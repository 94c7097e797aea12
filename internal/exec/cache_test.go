package exec

import (
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// TestMemoModel checks the memo against a plain-map model under seeded
// random interleavings of claim / put / abandon / TakeDirty / Load:
// every answer put or loaded is resident from then on, every put is
// drained exactly once and in order, a question has at most one leader,
// followers see what their leader did, and the counters add up.
func TestMemoModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		runMemoModel(t, seed, 2000)
	}
}

func runMemoModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	c := NewCompareCache()
	type answer struct {
		val string
		ok  bool
	}
	type lead struct {
		key Key
		cl  Claim
	}
	var (
		resident  = map[Key]string{}
		dirty     []Entry
		leaders   []lead // open leader claims, oldest first
		stale     []Claim
		followers = map[Key][]chan answer{}
		claims    int64
	)
	labels := []string{"a", "b", "c", "d", "e"}
	randKey := func() Key {
		kind := kindEqual
		if rng.Intn(2) == 0 {
			kind = kindOrder
		}
		return newKey(kind, "q"+strconv.Itoa(rng.Intn(2)),
			labels[rng.Intn(len(labels))], labels[rng.Intn(len(labels))])
	}
	// The pair is unordered: callers present it either way round.
	operands := func(k Key) (string, string) {
		if rng.Intn(2) == 0 {
			return k.Right, k.Left
		}
		return k.Left, k.Right
	}
	randAnswer := func(k Key) string {
		if k.Kind == kindEqual {
			return []string{"yes", "no"}[rng.Intn(2)]
		}
		return []string{k.Left, k.Right}[rng.Intn(2)]
	}
	// settle expects k's flight to have ended with want.
	settle := func(k Key, want answer) {
		for _, ch := range followers[k] {
			if got := <-ch; got != want {
				t.Fatalf("seed %d: follower of %v woke with %+v, want %+v", seed, k, got, want)
			}
		}
		delete(followers, k)
		if i := slices.IndexFunc(leaders, func(l lead) bool { return l.key == k }); i >= 0 {
			stale = append(stale, leaders[i].cl)
			leaders = slices.Delete(leaders, i, i+1)
		}
	}
	put := func(k Key) {
		val := randAnswer(k)
		l, r := operands(k)
		if k.Kind == kindEqual {
			c.PutEqual(k.Question, l, r, val == "yes")
		} else {
			c.PutOrder(k.Question, l, r, val)
		}
		resident[k] = val
		dirty = append(dirty, Entry{k, val})
		settle(k, answer{val, true})
	}
	abandon := func(ld lead) {
		ld.cl.Abandon()
		settle(ld.key, answer{})
	}
	drain := func() {
		if got := c.TakeDirty(); !slices.Equal(got, dirty) {
			t.Fatalf("seed %d: TakeDirty = %v, want %v", seed, got, dirty)
		}
		dirty = nil
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(20); {
		case op < 10: // claim
			k := randKey()
			l, r := operands(k)
			var cl Claim
			if k.Kind == kindEqual {
				cl = c.ClaimEqual(k.Question, l, r)
			} else {
				cl = c.ClaimOrder(k.Question, l, r)
			}
			claims++
			val, memoized := resident[k]
			led := slices.ContainsFunc(leaders, func(l lead) bool { return l.key == k })
			switch {
			case memoized:
				if !cl.Hit || cl.Leader || cl.Value != val {
					t.Fatalf("seed %d: claim of resident %v=%q: %+v", seed, k, val, cl)
				}
			case led:
				if cl.Hit || cl.Leader {
					t.Fatalf("seed %d: claim of in-flight %v must follow: %+v", seed, k, cl)
				}
				ch := make(chan answer, 1)
				followers[k] = append(followers[k], ch)
				go func() {
					v, ok := cl.Wait()
					ch <- answer{v, ok}
				}()
			default:
				if cl.Hit || !cl.Leader {
					t.Fatalf("seed %d: first claim of %v must lead: %+v", seed, k, cl)
				}
				leaders = append(leaders, lead{k, cl})
			}
		case op < 14: // a leader memoizes its verdict
			if len(leaders) > 0 {
				put(leaders[rng.Intn(len(leaders))].key)
			}
		case op < 15: // an unclaimed put (tests and tools do this)
			put(randKey())
		case op < 17:
			if len(leaders) > 0 {
				abandon(leaders[rng.Intn(len(leaders))])
			}
		case op < 18: // a settled claim's deferred Abandon is a no-op
			if len(stale) > 0 {
				stale[rng.Intn(len(stale))].Abandon()
			}
		case op < 19:
			drain()
		default: // Load: resident, not dirty, not counted
			before := c.Stats()
			k := randKey()
			l, r := operands(k)
			val := randAnswer(k)
			c.Load([]Entry{{Key{k.Kind, k.Question, l, r}, val}})
			resident[k] = val
			after := c.Stats()
			before.Size = after.Size // the one field Load may move
			if after != before {
				t.Fatalf("seed %d: Load moved the counters: %+v -> %+v", seed, before, after)
			}
		}
	}
	for len(leaders) > 0 {
		if rng.Intn(2) == 0 {
			put(leaders[0].key)
		} else {
			abandon(leaders[0])
		}
	}
	drain()
	if n := c.InFlight(); n != 0 {
		t.Errorf("seed %d: %d flights left at quiesce", seed, n)
	}
	st := c.Stats()
	if st.Hits+st.Misses+st.Shared != claims {
		t.Errorf("seed %d: hits+misses+shared = %d, claims = %d (%+v)", seed, st.Hits+st.Misses+st.Shared, claims, st)
	}
	if st.Size != len(resident) {
		t.Errorf("seed %d: size %d, model %d", seed, st.Size, len(resident))
	}
	for k, want := range resident {
		if got, ok := c.get(k.Kind, k.Question, k.Right, k.Left); !ok || got != want {
			t.Errorf("seed %d: %v = %q, %v; want %q", seed, k, got, ok, want)
		}
	}
}

// TestMemoKeyKeepsFieldsApart: the key is a struct, so a NUL inside a
// question or label cannot make two different comparisons collide (the
// joined-string key served this put to the get below and persisted it
// under question "a").
func TestMemoKeyKeepsFieldsApart(t *testing.T) {
	c := NewCompareCache()
	c.PutEqual("a\x00b", "c", "d", true)
	if _, ok := c.GetEqual("a", "b", "c\x00d"); ok {
		t.Error("a different question was answered from another question's verdict")
	}
	if same, ok := c.GetEqual("a\x00b", "d", "c"); !ok || !same {
		t.Errorf("own verdict lost: %v, %v", same, ok)
	}
	d := c.TakeDirty()
	if len(d) != 1 || d[0].Question != "a\x00b" || d[0].Left != "c" || d[0].Right != "d" || d[0].Answer != "yes" {
		t.Errorf("persisted form: %+v", d)
	}
}

func TestCompareCacheClaimStates(t *testing.T) {
	c := NewCompareCache()

	leader := c.ClaimEqual("q", "x", "y")
	if !leader.Leader || leader.Hit {
		t.Fatalf("first claim must lead: %+v", leader)
	}
	follower := c.ClaimEqual("q", "y", "x") // symmetric key
	if follower.Leader || follower.Hit {
		t.Fatalf("second claim must follow: %+v", follower)
	}

	done := make(chan bool, 1)
	go func() {
		v, ok := follower.Wait()
		done <- ok && v == "yes"
	}()
	c.PutEqual("q", "x", "y", true)
	if !<-done {
		t.Fatal("follower did not observe the leader's answer")
	}
	if hit := c.ClaimEqual("q", "x", "y"); !hit.Hit || hit.Value != "yes" {
		t.Fatalf("post-resolution claim must hit: %+v", hit)
	}

	st := c.Stats()
	if st.Misses != 1 || st.Shared != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCompareCacheAbandonWakesFollowers(t *testing.T) {
	c := NewCompareCache()
	leader := c.ClaimOrder("q", "l", "r")
	follower := c.ClaimOrder("q", "l", "r")

	done := make(chan bool, 1)
	go func() {
		_, ok := follower.Wait()
		done <- ok
	}()
	leader.Abandon()
	if <-done {
		t.Fatal("abandoned flight must resolve followers with ok=false")
	}
	// The question is claimable again, and a later Put is a no-op on the
	// dead flight.
	again := c.ClaimOrder("q", "l", "r")
	if !again.Leader {
		t.Fatalf("re-claim after abandon must lead: %+v", again)
	}
	c.PutOrder("q", "l", "r", "l")
	leader.Abandon() // idempotent no-op after the answer is memoized
	if v, ok := c.GetOrder("q", "l", "r"); !ok || v != "l" {
		t.Fatalf("answer lost: %q, %v", v, ok)
	}
}

func TestCompareCacheConcurrentClaims(t *testing.T) {
	c := NewCompareCache()
	const goroutines, pairs = 16, 32
	var paid sync.Map // pair index -> number of leaders
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < pairs; p++ {
				l, r := string(rune('a'+p)), string(rune('A'+p))
				claim := c.ClaimEqual("q", l, r)
				switch {
				case claim.Hit:
				case claim.Leader:
					n, _ := paid.LoadOrStore(p, new(int))
					*(n.(*int))++ // counts leaders; must end at 1 per pair
					c.PutEqual("q", l, r, true)
				default:
					if _, ok := claim.Wait(); !ok {
						t.Errorf("pair %d: follower woke without answer", p)
					}
				}
			}
		}()
	}
	wg.Wait()
	for p := 0; p < pairs; p++ {
		n, ok := paid.Load(p)
		if !ok || *(n.(*int)) != 1 {
			t.Errorf("pair %d paid %v times, want exactly 1", p, n)
		}
	}
	if st := c.Stats(); st.Misses != pairs {
		t.Errorf("misses = %d, want %d (one leader per pair)", st.Misses, pairs)
	}
}

func TestCompareCacheSnapshotLoadRoundTrip(t *testing.T) {
	c := NewCompareCache()
	c.PutEqual("same entity?", "IBM", "International Business Machines", true)
	c.PutOrder("better talk?", "A", "B", "B")
	snap := c.TakeDirty()
	if len(snap) != 2 {
		t.Fatalf("dirty size %d", len(snap))
	}
	c2 := NewCompareCache()
	c2.Load(snap)
	if same, ok := c2.GetEqual("same entity?", "International Business Machines", "IBM"); !ok || !same {
		t.Error("equal entry lost in round trip")
	}
	if w, ok := c2.GetOrder("better talk?", "B", "A"); !ok || w != "B" {
		t.Error("order entry lost in round trip")
	}
	if st := c2.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Load must not count stats: %+v", st)
	}
}
