package amt

import (
	"fmt"
	"net/http/httptest"
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

func TestPlatformLifecycle(t *testing.T) {
	p := NewDefault(7)
	id, err := p.Post(probeGroup(5))
	if err != nil {
		t.Fatal(err)
	}
	p.Step(48 * time.Hour)
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
}

func TestCommission(t *testing.T) {
	p := NewDefault(7)
	id, _ := p.Post(probeGroup(2))
	p.Step(48 * time.Hour)
	res, _ := p.Results(id)
	if len(res) == 0 {
		t.Fatal("no assignments")
	}
	if err := p.Approve(res[0].ID, 0); err != nil {
		t.Fatal(err)
	}
	paid, fee := p.Spend()
	if paid != 2 {
		t.Errorf("paid: %v", paid)
	}
	if fee != 0 { // 10% of 2¢ rounds down to 0
		t.Errorf("fee: %v", fee)
	}
	if err := p.Approve(res[1].ID, 20); err != nil {
		t.Fatal(err)
	}
	paid, fee = p.Spend()
	if paid != 24 || fee != 2 {
		t.Errorf("paid=%v fee=%v", paid, fee)
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

// The HTTP client/server pair must behave identically to the in-process
// platform for the full lifecycle.
func TestHTTPBinding(t *testing.T) {
	p := NewDefault(7)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	c := NewClient(srv.URL)

	if c.Name() != "amt" {
		t.Error("name")
	}
	id, err := c.Post(probeGroup(3))
	if err != nil {
		t.Fatal(err)
	}
	c.Step(48 * time.Hour)
	if c.Now() != 48*time.Hour {
		t.Errorf("Now over HTTP: %v", c.Now())
	}
	st, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Fatalf("not done: %+v", st)
	}
	res, err := c.Results(id)
	if err != nil || len(res) < 9 {
		t.Fatalf("results over HTTP: %d %v", len(res), err)
	}
	if res[0].Answers["abstract"] == "" {
		t.Error("answers must survive the wire")
	}
	if err := c.Approve(res[0].ID, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Approve(res[0].ID, 0); err == nil {
		t.Error("double approve must fail over HTTP")
	}
	if err := c.Reject(res[1].ID, "bad"); err != nil {
		t.Fatal(err)
	}
	if err := c.Expire(id); err != nil {
		t.Fatal(err)
	}
	st, _ = c.Status(id)
	if !st.Expired {
		t.Error("expire not applied")
	}
	// Errors surface with server-side messages.
	if _, err := c.Status("G99999"); err == nil {
		t.Error("unknown group over HTTP must fail")
	}
	bad := probeGroup(0)
	if _, err := c.Post(bad); err == nil {
		t.Error("invalid group over HTTP must fail")
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
