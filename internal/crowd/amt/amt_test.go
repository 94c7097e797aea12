package amt

import (
	"fmt"
	"testing"
	"time"

	"crowddb/internal/crowd"
)

func probeGroup(n int) *crowd.HITGroup {
	g := &crowd.HITGroup{
		Title:       "fill abstracts",
		Kind:        crowd.TaskProbeValues,
		Reward:      2,
		Assignments: 3,
	}
	for i := 0; i < n; i++ {
		g.HITs = append(g.HITs, &crowd.HIT{
			ID: fmt.Sprintf("H%d", i),
			Fields: []crowd.Field{
				{Name: "abstract", Kind: crowd.FieldInput},
			},
			Truth: &crowd.SimTruth{Truth: map[string]string{"abstract": fmt.Sprintf("a%d", i)}},
		})
	}
	return g
}

// TestPlatformLifecycle drives one HIT group through every operation the
// Task Manager uses: post, step the clock, poll, fetch the answers,
// approve (once only), reject, expire — and the errors an unknown group
// and an empty one get.
func TestPlatformLifecycle(t *testing.T) {
	p := NewDefault(7)
	if p.Name() != "amt" {
		t.Errorf("name %q", p.Name())
	}
	id, err := p.Post(probeGroup(5))
	if err != nil {
		t.Fatal(err)
	}
	p.Step(48 * time.Hour)
	if p.Now() != 48*time.Hour {
		t.Errorf("Now after a 48h step: %v", p.Now())
	}
	st, err := p.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Fatalf("group not done after 48h: %+v", st)
	}
	res, err := p.Results(id)
	if err != nil || len(res) < 15 {
		t.Fatalf("results: %d %v", len(res), err)
	}
	if ans, _ := res[0].Answers.Get("abstract"); ans == "" {
		t.Error("an assignment came back without its answer")
	}
	if err := p.Approve(res[0].ID, 1); err != nil {
		t.Fatal(err)
	}
	paid := p.Market.TotalSpent()
	if paid != 3 {
		t.Errorf("paid %v for a 2¢ answer with a 1¢ bonus", paid)
	}
	if err := p.Approve(res[0].ID, 0); err == nil {
		t.Error("a second Approve of one assignment must fail")
	}
	if p2 := p.Market.TotalSpent(); p2 != paid {
		t.Errorf("a failed Approve moved the spend: %v, was %v", p2, paid)
	}
	if err := p.Reject(res[1].ID, "bad"); err != nil {
		t.Fatal(err)
	}
	if err := p.Expire(id); err != nil {
		t.Fatal(err)
	}
	if st, err = p.Status(id); err != nil || !st.Expired {
		t.Errorf("status after Expire: %+v, %v", st, err)
	}
	if _, err := p.Status("G99999"); err == nil {
		t.Error("Status of an unknown group must fail")
	}
	if _, err := p.Post(probeGroup(0)); err == nil {
		t.Error("posting a group without HITs must fail")
	}
}

// A group that expires before anyone answers is done with nothing in; the
// Task Manager reads its Status, then its Results, its last read, and the
// market forgets it then.
func TestUnansweredGroupExpires(t *testing.T) {
	p := NewDefault(7)
	g := probeGroup(3)
	g.Expiry = time.Second
	id, err := p.Post(g)
	if err != nil {
		t.Fatal(err)
	}
	p.Step(time.Hour)
	if st, err := p.Status(id); err != nil || !st.Done() || !st.Expired || st.Submitted != 0 {
		t.Fatalf("a group past its expiry: %+v, %v", st, err)
	}
	if res, err := p.Results(id); err != nil || len(res) != 0 {
		t.Fatalf("results of a group nobody answered: %d, %v", len(res), err)
	}
	want := fmt.Sprintf("sim: group %s is settled", id)
	if _, err := p.Status(id); fmt.Sprint(err) != want {
		t.Errorf("Status after Results: %v, want %q", err, want)
	}
}

func TestAMTRejectsGeoFence(t *testing.T) {
	p := NewDefault(7)
	g := probeGroup(1)
	g.Venue = &crowd.GeoFence{Lat: 47.6, Lon: -122.3, RadiusKM: 1}
	if _, err := p.Post(g); err == nil {
		t.Error("AMT must reject geo-fenced groups")
	}
}

// BenchmarkMarketRoundTrip is one 8-HIT × 3-assignment group's whole life
// on the platform, driven the way the Task Manager drives it: post, poll
// and step a virtual minute at a time until done, fetch, approve every
// answer. Run it with -benchtime 2000x: the groups of earlier iterations
// stay on the market, and the cost of one more must not depend on them.
func BenchmarkMarketRoundTrip(b *testing.B) {
	p := NewDefault(1)
	spec := probeGroup(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := p.Post(spec)
		if err != nil {
			b.Fatal(err)
		}
		for {
			st, err := p.Status(id)
			if err != nil {
				b.Fatal(err)
			}
			if st.Done() {
				break
			}
			p.Step(time.Minute)
		}
		res, err := p.Results(id)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range res {
			if err := p.Approve(a.ID, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}
