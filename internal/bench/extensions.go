package bench

import (
	"fmt"
	"time"

	"crowddb/internal/quality"
	"crowddb/internal/sim"
)

// E13Diurnal reproduces the time-of-day observation of the SIGMOD paper's
// platform study: the same HIT group completes faster when posted at the
// crowd's peak hours than into the overnight trough.
func E13Diurnal(seed int64) *Table {
	t := &Table{
		ID:      "E13",
		Title:   "responsiveness by posting time of (virtual) day",
		Exhibit: "SIGMOD'11 platform study (diurnal responsiveness)",
		Headers: []string{"posted at", "t(50%)", "t(100%)"},
	}
	for _, startHour := range []int{2, 8, 14, 20} {
		cfg := sim.DefaultConfig()
		cfg.Seed = seed
		cfg.DiurnalAmplitude = 0.8
		m := sim.NewMarket(cfg)
		m.Step(time.Duration(startHour) * time.Hour)
		id, err := m.Post(probeHITGroup(30, 3, 2))
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		done, series := stepUntilDone(m, id, 10*time.Minute, 500*time.Hour)
		half := time.Duration(0)
		for i, f := range series {
			if f >= 0.5 {
				half = time.Duration(i+1) * 10 * time.Minute
				break
			}
		}
		t.AddRow(fmt.Sprintf("%02d:00", startHour), fmtDur(half), fmtDur(done))
	}
	t.Notes = append(t.Notes, "arrival rate peaks at virtual noon; overnight postings wait for the morning crowd")
	return t
}

// E14VotePolicy compares plain majority voting against score-weighted
// voting (the quality-control extension the SIGMOD paper sketches) on a
// spammy crowd, after a warm-up phase that teaches the tracker who is who.
func E14VotePolicy(seed int64) *Table {
	t := &Table{
		ID:      "E14",
		Title:   "quality control: majority vote vs score-weighted vote",
		Exhibit: "SIGMOD'11 quality-control discussion (extension)",
		Headers: []string{"policy", "correct", "error rate", "no-quorum"},
		Metrics: map[string]float64{},
	}
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Pool.SpammerFrac = 0.35 // a hostile crowd to separate the policies
	cfg.Pool.SpammerAccuracy = 0.3
	m := sim.NewMarket(cfg)
	tracker := quality.NewTracker()

	collect := func(n, replication int) map[string][]quality.Vote {
		g := probeHITGroup(n, replication, 2)
		id, _ := m.Post(g)
		stepUntilDone(m, id, time.Hour, 3000*time.Hour)
		res, _ := m.Results(id)
		byHIT := map[string][]quality.Vote{}
		for _, a := range res {
			ans, _ := a.Answers.Get("value")
			byHIT[a.HITID] = append(byHIT[a.HITID], quality.Vote{WorkerID: a.WorkerID, Answer: ans})
		}
		return byHIT
	}

	// Warm-up: 150 HITs teach the tracker (and build worker affinity, so
	// the same workers return for the evaluation round).
	for hit, votes := range collect(150, 3) {
		_ = hit
		tracker.Record(quality.MajorityVote(votes, 2))
	}

	// Evaluation round.
	const n = 120
	byHIT := collect(n, 3)
	type policy struct {
		name string
		vote func(votes []quality.Vote) quality.Decision
	}
	for _, p := range []policy{
		{"majority (3)", func(v []quality.Vote) quality.Decision {
			return quality.MajorityVote(v, quality.MajorityFor(3))
		}},
		{"score-weighted (3)", func(v []quality.Vote) quality.Decision {
			return quality.WeightedVote(v, tracker.Score, 0.5)
		}},
	} {
		wrong, noQuorum := 0, 0
		for i := 0; i < n; i++ {
			votes := byHIT[fmt.Sprintf("H%04d", i)]
			d := p.vote(votes)
			truth := fmt.Sprintf("v%d", i)
			switch {
			case !d.Quorum:
				noQuorum++
			case quality.Normalize(d.Value) != truth:
				wrong++
			}
		}
		correct := n - wrong - noQuorum
		t.AddRow(p.name, fmtPct(float64(correct)/float64(n)),
			fmtPct(float64(wrong)/float64(n)), fmtPct(float64(noQuorum)/float64(n)))
	}
	t.Notes = append(t.Notes, "with 35% spammers, score weighting resolves splits majority voting must leave undecided")

	// Adaptive vote sizing (metrics only; the rows above are pinned by
	// the golden replay): the same spammy crowd answers the same probe
	// workload with fixed 3-vote replication vs early-stop once answers
	// are unanimous above the quorum floor. The exhibit is paid
	// assignments dropping while correctness stays within tolerance.
	for _, arm := range []struct {
		prefix   string
		adaptive bool
	}{
		{"fixed_", false},
		{"adaptive_", true},
	} {
		am := sim.NewMarket(cfg)
		g := probeHITGroup(n, 3, 2)
		g.AdaptiveVotes = arm.adaptive
		gid, err := am.Post(g)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		stepUntilDone(am, gid, time.Hour, 3000*time.Hour)
		res, _ := am.Results(gid)
		armVotes := map[string][]quality.Vote{}
		for _, a := range res {
			ans, _ := a.Answers.Get("value")
			armVotes[a.HITID] = append(armVotes[a.HITID], quality.Vote{WorkerID: a.WorkerID, Answer: ans})
		}
		correct := 0
		for i := 0; i < n; i++ {
			d := quality.MajorityVote(armVotes[fmt.Sprintf("H%04d", i)], quality.MajorityFor(3))
			if d.Quorum && quality.Normalize(d.Value) == fmt.Sprintf("v%d", i) {
				correct++
			}
		}
		t.Metrics[arm.prefix+"paid_assignments"] = float64(len(res))
		t.Metrics[arm.prefix+"assignment_spend_cents"] = float64(len(res)) * 2
		t.Metrics[arm.prefix+"correct_pct"] = 100 * float64(correct) / float64(n)
	}
	return t
}
