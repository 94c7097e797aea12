// Package bench is the experiment harness that regenerates the paper's
// evaluation exhibits (registry.go is the experiment index, printed by
// crowdbench -list; the README's benchmark-regression section covers the
// seed-42 baselines in bench/baselines). Each
// experiment returns a Table whose rows are the series the corresponding
// figure plots; cmd/crowdbench prints them and the root bench_test.go
// wraps them as testing.B benchmarks.
//
// Beyond the paper's exhibits, E13–E15 are extensions: E13 diurnal
// responsiveness, E14 weighted-vote quality control, and E15 the
// asynchronous HIT scheduler — wall-clock turnaround of a fixed workload
// as the Task Manager's in-flight window (taskmgr.Config.MaxInFlight)
// grows from 1 (the serial task manager) to 8 groups live at once.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/sim"
	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

// Table is one experiment's output: the rows a paper figure/table plots.
type Table struct {
	ID      string
	Title   string
	Exhibit string // which paper exhibit this regenerates
	Headers []string
	Rows    [][]string
	Notes   []string
	// Metrics carries machine-readable headline numbers (ops/sec, crowd
	// cost, cache hit rate, ...) for crowdbench's BENCH_<id>.json output.
	Metrics map[string]float64
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "   reproduces: %s\n", t.Exhibit)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		fmt.Fprint(w, "   ")
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Headers)
	total := 3
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, "   "+strings.Repeat("-", total-3))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// fmtDur renders a virtual duration compactly (minutes under 2h, hours
// otherwise).
func fmtDur(d time.Duration) string {
	if d < 2*time.Hour {
		return fmt.Sprintf("%.0fm", d.Minutes())
	}
	return fmt.Sprintf("%.1fh", d.Hours())
}

func fmtPct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }

// probeHITGroup builds a synthetic probe group of n HITs whose ground
// truth is "v<i>"; used by the platform micro-benchmarks E1–E4.
func probeHITGroup(n, assignments int, reward crowd.Cents) *crowd.HITGroup {
	g := &crowd.HITGroup{
		Title:       "platform microbenchmark",
		Kind:        crowd.TaskProbeValues,
		Reward:      reward,
		Assignments: assignments,
	}
	for i := 0; i < n; i++ {
		g.HITs = append(g.HITs, &crowd.HIT{
			ID:   fmt.Sprintf("H%04d", i),
			Kind: crowd.TaskProbeValues,
			Fields: []crowd.Field{
				{Name: "item", Kind: crowd.FieldDisplay, Value: fmt.Sprintf("item %d", i)},
				{Name: "value", Kind: crowd.FieldInput, Label: "enter the value"},
			},
			Truth: &crowd.SimTruth{
				Truth: map[string]string{"value": fmt.Sprintf("v%d", i)},
				Wrong: map[string][]string{"value": {fmt.Sprintf("v%d", i+1), "something else"}},
			},
		})
	}
	return g
}

// stepUntilDone advances a market until the group completes (or maxT),
// returning completion time and a completion-percentage series sampled at
// `sample` intervals.
func stepUntilDone(m *sim.Market, id crowd.GroupID, sample, maxT time.Duration) (time.Duration, []float64) {
	var series []float64
	for elapsed := time.Duration(0); elapsed < maxT; elapsed += sample {
		m.Step(sample)
		st, err := m.Status(id)
		if err != nil {
			break
		}
		series = append(series, float64(st.Completed)/float64(st.Posted))
		if st.Done() {
			return elapsed + sample, series
		}
	}
	return maxT, series
}

// insertPairs stores one row per company in table (id, a, b): id i holds
// companies[i]'s canonical name and its last variant, one INSERT each.
func insertPairs(eng *core.Engine, table string, companies []workload.Company) error {
	for i, c := range companies {
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%d, %s, %s)", table, i,
			sqltypes.NewString(c.Canonical).SQLLiteral(),
			sqltypes.NewString(c.Variants[len(c.Variants)-1]).SQLLiteral())); err != nil {
			return err
		}
	}
	return nil
}

// conferenceEngine builds an engine over simulated AMT with the demo
// schema, n talks stored (abstracts and attendance CNULL), and the
// conference oracle.
func conferenceEngine(seed int64, nTalks int, opts core.Config) (*core.Engine, *workload.Conference, error) {
	conf := workload.NewConference(nTalks, seed)
	cfg := opts
	if cfg.Platform == nil {
		cfg.Platform = amt.NewDefault(seed)
	}
	cfg.Oracle = conf.Oracle()
	if cfg.Payment == (wrm.PaymentPolicy{}) {
		cfg.Payment = wrm.DefaultPolicy()
	}
	eng, err := core.Open(cfg)
	if err != nil {
		return nil, nil, err
	}
	ddl := `CREATE TABLE Talk (
		title STRING PRIMARY KEY,
		room STRING,
		abstract CROWD STRING,
		nb_attendees CROWD INTEGER );
	CREATE CROWD TABLE NotableAttendee (
		name STRING PRIMARY KEY,
		title STRING,
		FOREIGN KEY (title) REF Talk(title) );`
	if _, err := eng.Exec(ddl); err != nil {
		return nil, nil, err
	}
	for i, talk := range conf.Talks {
		room := fmt.Sprintf("Room %d", i%4+1)
		_, err := eng.Exec(fmt.Sprintf("INSERT INTO Talk (title, room) VALUES (%s, %s)",
			sqltypes.NewString(talk.Title).SQLLiteral(), sqltypes.NewString(room).SQLLiteral()))
		if err != nil {
			return nil, nil, err
		}
	}
	return eng, conf, nil
}
