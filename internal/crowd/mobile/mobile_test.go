package mobile

import (
	"fmt"
	"testing"
	"time"

	"crowddb/internal/crowd"
)

func talkRatingGroup(n int) *crowd.HITGroup {
	g := &crowd.HITGroup{
		Title:       "rate talks",
		Kind:        crowd.TaskProbeValues,
		Reward:      1,
		Assignments: 3,
	}
	for i := 0; i < n; i++ {
		g.HITs = append(g.HITs, &crowd.HIT{
			ID: fmt.Sprintf("T%d", i),
			Fields: []crowd.Field{
				{Name: "title", Kind: crowd.FieldDisplay, Value: fmt.Sprintf("Talk %d", i)},
				{Name: "nb_attendees", Kind: crowd.FieldInput, Label: "How many people attended?"},
			},
			Truth: &crowd.SimTruth{Truth: map[string]string{"nb_attendees": "80"}},
		})
	}
	return g
}

func TestMobileAutoFence(t *testing.T) {
	p := New(DefaultConfig(3))
	id, err := p.Post(talkRatingGroup(5))
	if err != nil {
		t.Fatal(err)
	}
	p.Step(12 * time.Hour)
	st, err := p.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Fatalf("conference crowd should finish in hours: %+v", st)
	}
	// Every answering worker must be inside the venue fence.
	res, _ := p.Results(id)
	fence := &crowd.GeoFence{Lat: p.venue.Lat, Lon: p.venue.Lon, RadiusKM: p.venue.RadiusKM}
	stats := p.Market.WorkerStats()
	byID := map[string]bool{}
	for _, w := range stats {
		w := w
		if !w.InFence(fence) {
			t.Fatalf("worker %s outside venue completed work", w.ID)
		}
		byID[w.ID] = true
	}
	for _, a := range res {
		if !byID[a.WorkerID] {
			t.Fatalf("assignment from unknown worker %s", a.WorkerID)
		}
	}
}

func TestMobileFasterThanAMTLatencyProfile(t *testing.T) {
	// The mobile crowd is smaller but co-located and quick; a small group
	// should complete faster than the default AMT profile at the same pay.
	p := New(DefaultConfig(3))
	id, _ := p.Post(talkRatingGroup(10))
	var done time.Duration
	for elapsed := time.Duration(0); elapsed < 48*time.Hour; elapsed += 10 * time.Minute {
		p.Step(10 * time.Minute)
		if st, _ := p.Status(id); st.Done() {
			done = elapsed
			break
		}
	}
	if done == 0 || done > 8*time.Hour {
		t.Errorf("mobile completion too slow: %v", done)
	}
}

func TestMobileQualityHigherThanSpammyCrowd(t *testing.T) {
	p := New(DefaultConfig(3))
	id, _ := p.Post(talkRatingGroup(20))
	p.Step(24 * time.Hour)
	res, _ := p.Results(id)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	correct := 0
	for _, a := range res {
		if ans, _ := a.Answers.Get("nb_attendees"); ans == "80" {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(res)); frac < 0.8 {
		t.Errorf("expert crowd accuracy too low: %.2f", frac)
	}
	if p.Name() != "mobile" {
		t.Error("name")
	}
}
