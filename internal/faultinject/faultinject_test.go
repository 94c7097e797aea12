package faultinject

import "testing"

func TestDisarmedHitIsNoop(t *testing.T) {
	Disarm()
	Hit("anything")
	if Armed() || Killed() {
		t.Fatal("disarmed registry must stay inert")
	}
}

func TestCountdownFiresOnNth(t *testing.T) {
	defer Disarm()
	if err := Arm("p.one=3"); err != nil {
		t.Fatal(err)
	}
	var fired []string
	SetHandler(func(p string) { fired = append(fired, p) })
	Hit("p.one")
	Hit("p.other") // unarmed point: ignored
	Hit("p.one")
	if Killed() || len(fired) != 0 {
		t.Fatalf("fired early: %v", fired)
	}
	Hit("p.one")
	if !Killed() || len(fired) != 1 || fired[0] != "p.one" {
		t.Fatalf("killed=%v fired=%v", Killed(), fired)
	}
	// Once killed, further hits (even of other armed points) are inert.
	Hit("p.one")
	if len(fired) != 1 {
		t.Fatalf("hit after kill re-fired: %v", fired)
	}
}

func TestBareNameFiresFirstHit(t *testing.T) {
	defer Disarm()
	if err := Arm("solo"); err != nil {
		t.Fatal(err)
	}
	fired := false
	SetHandler(func(string) { fired = true })
	Hit("solo")
	if !fired || !Killed() {
		t.Fatal("bare point must fire on the first hit")
	}
}

func TestMultiPointSpec(t *testing.T) {
	defer Disarm()
	if err := Arm("a=2, b"); err != nil {
		t.Fatal(err)
	}
	var fired []string
	SetHandler(func(p string) { fired = append(fired, p) })
	Hit("b")
	if len(fired) != 1 || fired[0] != "b" {
		t.Fatalf("fired=%v", fired)
	}
	// b fired -> killed; a never fires now.
	Hit("a")
	Hit("a")
	if len(fired) != 1 {
		t.Fatalf("second point fired after kill: %v", fired)
	}
}

func TestBadSpecs(t *testing.T) {
	defer Disarm()
	for _, spec := range []string{"p=0", "p=-1", "p=x", "=3"} {
		if err := Arm(spec); err == nil {
			t.Errorf("Arm(%q) accepted", spec)
		}
	}
	// Empty spec arms nothing.
	if err := Arm(""); err != nil || Armed() {
		t.Fatalf("empty spec: err=%v armed=%v", err, Armed())
	}
}

func TestRearmClearsKilled(t *testing.T) {
	defer Disarm()
	SetHandler(func(string) {})
	if err := Arm("x"); err != nil {
		t.Fatal(err)
	}
	Hit("x")
	if !Killed() {
		t.Fatal("not killed")
	}
	if err := Arm("y=1"); err != nil {
		t.Fatal(err)
	}
	if Killed() {
		t.Fatal("re-arm must clear the killed state")
	}
}

func TestRecordCountsHits(t *testing.T) {
	defer Disarm()
	Record()
	Hit("a")
	Hit("b")
	Hit("a")
	if Armed() || Killed() {
		t.Fatal("recording must arm and kill nothing")
	}
	got := Hits()
	if len(got) != 2 || got["a"] != 2 || got["b"] != 1 {
		t.Fatalf("Hits() = %v", got)
	}
	// Arming ends the recording; Disarm clears it.
	if err := Arm("a=5"); err != nil {
		t.Fatal(err)
	}
	Hit("a")
	if len(Hits()) != 0 {
		t.Fatalf("armed registry still counting: %v", Hits())
	}
}
