package taskmgr

import (
	"fmt"
	"testing"
	"time"

	"crowddb/internal/catalog"
	"crowddb/internal/crowd"
	"crowddb/internal/quality"
	"crowddb/internal/ui"
)

// instantPlatform answers every HIT of a group the moment it is posted:
// three assignments, all "yes", from the same three workers. It reuses one
// array of assignments, so a round trip through it costs the Task
// Manager's own work and next to nothing of the platform's. One group may
// be live at a time.
type instantPlatform struct {
	group  *crowd.HITGroup
	buf    []crowd.Assignment
	out    []*crowd.Assignment
	answer map[string]string
}

func (p *instantPlatform) Name() string { return "instant" }

func (p *instantPlatform) Post(g *crowd.HITGroup) (crowd.GroupID, error) {
	p.group = g
	return "G1", nil
}

func (p *instantPlatform) Status(crowd.GroupID) (crowd.GroupStatus, error) {
	n := len(p.group.HITs)
	return crowd.GroupStatus{Posted: n, Completed: n, Submitted: 3 * n}, nil
}

func (p *instantPlatform) Results(crowd.GroupID) ([]*crowd.Assignment, error) {
	p.out = p.out[:0]
	for i, h := range p.group.HITs {
		for w := 0; w < 3; w++ {
			if len(p.buf) <= 3*i+w {
				p.buf = append(p.buf, crowd.Assignment{
					ID:       fmt.Sprintf("A%d", len(p.buf)),
					WorkerID: fmt.Sprintf("W%d", w),
					Status:   crowd.AssignmentSubmitted,
					Answers:  p.answer,
				})
			}
			a := &p.buf[3*i+w]
			a.HITID, a.Source = h.ID, ""
			p.out = append(p.out, a)
		}
	}
	return p.out, nil
}

func (p *instantPlatform) Approve(string, crowd.Cents) error { return nil }
func (p *instantPlatform) Reject(string, string) error       { return nil }
func (p *instantPlatform) Expire(crowd.GroupID) error        { return nil }
func (p *instantPlatform) Step(time.Duration)                {}
func (p *instantPlatform) Now() time.Duration                { return 0 }

// BenchmarkTaskmgrRoundTrip is one 8-pair CROWDEQUAL request through the
// Task Manager on a platform that answers at Post: build and submit the
// group, poll it once, collect and index its 24 assignments, and decide
// every pair. It prices the Task Manager's own round trip, apart from the
// market simulator's (BenchmarkMarketRoundTrip in crowd/amt) and from
// payment (no payer).
func BenchmarkTaskmgrRoundTrip(b *testing.B) {
	uim := ui.NewManager(catalog.New())
	uim.GenerateAll()
	p := &instantPlatform{answer: map[string]string{ui.AnswerField: "yes"}}
	m := New(p, uim, quality.NewTracker(), nil, nil, DefaultConfig())
	pairs := make([]ComparePair, 8)
	for i := range pairs {
		pairs[i] = ComparePair{Left: fmt.Sprintf("company %d", i), Right: fmt.Sprintf("Company %d Inc.", i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := wait(m.CompareEqualAsync("Same company?", pairs))
		if err != nil {
			b.Fatal(err)
		}
		if len(ds) != len(pairs) || ds[0].Value != "yes" || !ds[0].Quorum {
			b.Fatalf("decisions: %+v", ds)
		}
	}
}
