package bench

import (
	"fmt"
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/quality"
	"crowddb/internal/sim"
)

// E1CompletionVsReward reproduces the AMT responsiveness micro-benchmark
// (SIGMOD Figs. 4–5): percentage of HITs completed over time for different
// rewards. Expected shape: higher pay completes faster, with diminishing
// returns at the top.
func E1CompletionVsReward(seed int64) *Table {
	t := &Table{
		ID:      "E1",
		Title:   "HIT-group completion time vs reward (50 HITs x 3 assignments)",
		Exhibit: "SIGMOD'11 Figs. 4-5 (platform responsiveness)",
		Headers: []string{"reward", "t(25%)", "t(50%)", "t(75%)", "t(100%)"},
	}
	const sample = 10 * time.Minute
	for _, reward := range []crowd.Cents{1, 2, 3, 4} {
		cfg := sim.DefaultConfig()
		cfg.Seed = seed
		m := sim.NewMarket(cfg)
		id, err := m.Post(probeHITGroup(50, 3, reward))
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		done, series := stepUntilDone(m, id, sample, 400*time.Hour)
		row := []string{reward.String()}
		for _, frac := range []float64{0.25, 0.5, 0.75} {
			at := time.Duration(0)
			for i, f := range series {
				if f >= frac {
					at = time.Duration(i+1) * sample
					break
				}
			}
			row = append(row, fmtDur(at))
		}
		row = append(row, fmtDur(done))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "higher reward => faster completion with diminishing returns (price-elastic arrivals)")
	return t
}

// E2TurnaroundVsBatch reproduces the batch-size study (SIGMOD Fig. 6):
// time to first and last answer as the HIT-group size grows. Expected
// shape: first answers arrive at similar times; the last answer grows
// sublinearly (big groups amortize worker visits).
func E2TurnaroundVsBatch(seed int64) *Table {
	t := &Table{
		ID:      "E2",
		Title:   "turnaround vs HIT-group size (2c, 3 assignments)",
		Exhibit: "SIGMOD'11 Fig. 6 (group-size effect)",
		Headers: []string{"batch", "first answer", "last answer", "assignments/hour"},
	}
	for _, batch := range []int{1, 5, 10, 25, 50, 100} {
		cfg := sim.DefaultConfig()
		cfg.Seed = seed
		m := sim.NewMarket(cfg)
		id, err := m.Post(probeHITGroup(batch, 3, 2))
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		done, _ := stepUntilDone(m, id, 5*time.Minute, 1000*time.Hour)
		res, _ := m.Results(id)
		if len(res) == 0 {
			t.AddRow(fmt.Sprintf("%d", batch), "-", "-", "-")
			continue
		}
		first := res[0].SubmittedAt
		last := res[len(res)-1].SubmittedAt
		rate := float64(len(res)) / last.Hours()
		t.AddRow(fmt.Sprintf("%d", batch), fmtDur(first), fmtDur(last), fmt.Sprintf("%.1f", rate))
		_ = done
	}
	t.Notes = append(t.Notes, "per-assignment throughput rises with batch size; last-answer time grows sublinearly")
	return t
}

// E3WorkerAffinity reproduces the worker-community observation (SIGMOD
// Fig. 7): a small set of returning workers does most of the work.
func E3WorkerAffinity(seed int64) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "worker affinity: share of assignments by most active workers",
		Exhibit: "SIGMOD'11 Fig. 7 (worker community / affinity)",
		Headers: []string{"workers", "assignments", "top-1 share", "top-5 share", "top-10 share", "gini"},
	}
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	m := sim.NewMarket(cfg)
	id, _ := m.Post(probeHITGroup(300, 3, 2))
	stepUntilDone(m, id, time.Hour, 2000*time.Hour)
	ws := m.WorkerStats()
	var counts []int
	total := 0
	for _, w := range ws {
		counts = append(counts, w.Completed)
		total += w.Completed
	}
	t.AddRow(
		fmt.Sprintf("%d", len(ws)),
		fmt.Sprintf("%d", total),
		fmtPct(topKShare(counts, 1)),
		fmtPct(topKShare(counts, 5)),
		fmtPct(topKShare(counts, 10)),
		fmt.Sprintf("%.2f", gini(counts)),
	)
	t.Notes = append(t.Notes, "preferential attachment: returning workers dominate, as the paper observed on live AMT")
	return t
}

// E4MajorityVote reproduces the quality-control study: answer error rate
// before and after majority vote, as the replication factor grows.
func E4MajorityVote(seed int64) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "answer error rate vs replication (majority vote)",
		Exhibit: "SIGMOD'11 quality-control study (§ Experiments)",
		Headers: []string{"assignments", "raw error", "voted error", "no-quorum"},
	}
	for _, replication := range []int{1, 3, 5, 7} {
		cfg := sim.DefaultConfig()
		cfg.Seed = seed
		m := sim.NewMarket(cfg)
		const n = 100
		g := probeHITGroup(n, replication, 2)
		id, _ := m.Post(g)
		stepUntilDone(m, id, time.Hour, 2000*time.Hour)
		res, _ := m.Results(id)
		byHIT := map[string][]quality.Vote{}
		rawWrong, rawTotal := 0, 0
		for _, a := range res {
			ans, _ := a.Answers.Get("value")
			byHIT[a.HITID] = append(byHIT[a.HITID], quality.Vote{WorkerID: a.WorkerID, Answer: ans})
		}
		votedWrong, noQuorum := 0, 0
		for i := 0; i < n; i++ {
			hitID := fmt.Sprintf("H%04d", i)
			truth := fmt.Sprintf("v%d", i)
			votes := byHIT[hitID]
			for _, v := range votes {
				rawTotal++
				if quality.Normalize(v.Answer) != truth {
					rawWrong++
				}
			}
			d := quality.MajorityVote(votes, quality.MajorityFor(replication))
			switch {
			case !d.Quorum:
				noQuorum++
			case quality.Normalize(d.Value) != truth:
				votedWrong++
			}
		}
		t.AddRow(
			fmt.Sprintf("%d", replication),
			fmtPct(float64(rawWrong)/float64(maxI(rawTotal, 1))),
			fmtPct(float64(votedWrong)/float64(n)),
			fmtPct(float64(noQuorum)/float64(n)),
		)
	}
	t.Notes = append(t.Notes, "voted error falls roughly geometrically with replication; raw error stays flat")
	return t
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
