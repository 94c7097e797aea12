package bench

import (
	"fmt"
	"time"

	"crowddb/internal/crowd/amt"
	"crowddb/internal/quality"
	"crowddb/internal/taskmgr"
	"crowddb/internal/wrm"
)

// asyncWorkload runs the E2-style workload (several probe HIT groups of
// the same shape) through the Task Manager's async scheduler at the given
// in-flight window and reports the virtual makespan (time until the last
// group resolves) plus the manager's stats.
func asyncWorkload(seed int64, window, groups, hitsPerGroup int) (time.Duration, taskmgr.Stats, error) {
	platform := amt.NewDefault(seed)
	cfg := taskmgr.DefaultConfig()
	cfg.MaxInFlight = window
	m := taskmgr.New(platform, nil, quality.NewTracker(), wrm.New(wrm.DefaultPolicy(), quality.NewTracker()), nil, cfg)

	// Submit every group up front — the paper's executor posts HITs and
	// continues processing — then collect them all.
	pendings := make([]*taskmgr.Pending, groups)
	for i := range pendings {
		g := probeHITGroup(hitsPerGroup, 3, 2)
		// HIT IDs must be unique across groups on one platform run.
		for h, hit := range g.HITs {
			hit.ID = fmt.Sprintf("G%02d-H%04d", i, h)
		}
		pendings[i] = m.Submit(g)
	}
	for _, p := range pendings {
		if _, err := p.Wait(); err != nil {
			return 0, taskmgr.Stats{}, err
		}
	}
	return platform.Now(), m.Stats(), nil
}

// E15AsyncScheduler measures the async HIT scheduler: the same E2-style
// workload (8 probe groups x 12 HITs, 3 assignments, 2c) dispatched at
// in-flight windows 1/2/4/8. Window 1 serializes the groups exactly like
// the original synchronous Task Manager; wider windows overlap their crowd
// waits, shrinking wall-clock turnaround while the per-group answer
// latency distribution stays the same.
func E15AsyncScheduler(seed int64) *Table {
	t := &Table{
		ID:      "E15",
		Title:   "async scheduler: turnaround vs in-flight window",
		Exhibit: "paper §3 asynchronous task manager (extension)",
		Headers: []string{"window", "makespan", "crowd time", "peak in-flight", "peak queue", "speedup"},
		Metrics: map[string]float64{},
	}
	const groups, hitsPerGroup = 8, 12
	var base time.Duration
	for _, window := range []int{1, 2, 4, 8} {
		makespan, st, err := asyncWorkload(seed, window, groups, hitsPerGroup)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		if window == 1 {
			base = makespan
		}
		speedup := "-"
		if base > 0 && makespan > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(base)/float64(makespan))
			t.Metrics[fmt.Sprintf("window%d_speedup", window)] = float64(base) / float64(makespan)
		}
		t.Metrics[fmt.Sprintf("window%d_makespan_minutes", window)] = makespan.Minutes()
		t.AddRow(
			fmt.Sprintf("%d", window),
			fmtDur(makespan),
			fmtDur(st.CrowdTime),
			fmt.Sprintf("%d", st.PeakInFlight),
			fmt.Sprintf("%d", st.PeakQueueDepth),
			speedup,
		)
	}
	t.Notes = append(t.Notes,
		"makespan = virtual time until the last of 8 concurrent probe groups resolves; window 1 reproduces the serial task manager")
	return t
}
