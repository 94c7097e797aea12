package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/server"
	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

// E16 load generator: K concurrent sessions on one crowddbd-style server,
// issuing mostly-overlapping CROWDEQUAL/CROWDORDER work plus one private
// query each. With the shared comparison cache and singleflight, the
// overlapping work is paid for once globally, so total crowd cost grows
// sublinearly in K (ideally: shared cost + K private comparisons).

// e16Result is one K's measurement.
type e16Result struct {
	sessions    int
	queries     int
	comparisons int // paid crowd comparisons, summed over sessions
	hitRate     float64
	spend       crowd.Cents
	hitsPosted  int
	makespan    time.Duration
}

// e16SharedPairs and e16Talks size the shared (overlapping) workload.
const (
	e16SharedPairs = 12
	e16Talks       = 8
)

// e16Engine builds the E16 dataset: a Pair table of company surface-form
// pairs (CROWDEQUAL), a Priv table with one pair per session (private
// work), and the conference talks (CROWDORDER), over simulated AMT.
func e16Engine(seed int64, sessions int) (*core.Engine, error) {
	cs := workload.NewCompanies(e16SharedPairs+sessions, seed)
	conf := workload.NewConference(e16Talks, seed)
	csO, confO := cs.Oracle(), conf.Oracle()
	o := workload.NewOracle()
	o.RegisterCompare(func(kind crowd.TaskKind, q, l, r string) *crowd.SimTruth {
		if kind == crowd.TaskCompareEqual {
			return csO.CompareTruth(kind, q, l, r)
		}
		return confO.CompareTruth(kind, q, l, r)
	})
	eng, err := core.Open(core.Config{
		Platform: amt.NewDefault(seed),
		Oracle:   o,
		Payment:  wrm.DefaultPolicy(),
		Tasks:    fastTasks(),
	})
	if err != nil {
		return nil, err
	}
	ddl := `CREATE TABLE Pair (id INTEGER PRIMARY KEY, a STRING, b STRING);
		CREATE TABLE Priv (id INTEGER PRIMARY KEY, a STRING, b STRING);
		CREATE TABLE Talk (title STRING PRIMARY KEY)`
	if _, err := eng.Exec(ddl); err != nil {
		return nil, err
	}
	insertPair := func(table string, id int, c workload.Company) error {
		variant := c.Variants[len(c.Variants)-1]
		_, err := eng.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%d, %s, %s)", table, id,
			sqltypes.NewString(c.Canonical).SQLLiteral(), sqltypes.NewString(variant).SQLLiteral()))
		return err
	}
	for i := 0; i < e16SharedPairs; i++ {
		if err := insertPair("Pair", i, cs.List[i]); err != nil {
			return nil, err
		}
	}
	for k := 0; k < sessions; k++ {
		if err := insertPair("Priv", k, cs.List[e16SharedPairs+k]); err != nil {
			return nil, err
		}
	}
	for _, talk := range conf.Talks {
		if _, err := eng.Exec("INSERT INTO Talk VALUES (" +
			sqltypes.NewString(talk.Title).SQLLiteral() + ")"); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// e16Exec runs one statement the way every client's does — as a job —
// and waits for it to retire.
func e16Exec(srv *server.Server, session, sql string) error {
	job, serr := srv.StartJob(session, sql)
	if serr != nil {
		return serr
	}
	state, err := job.Wait(context.Background())
	if err != nil {
		return err
	}
	if state != server.JobDone {
		return fmt.Errorf("job %s ended %s: %v", job.ID(), state, job.Err())
	}
	return nil
}

// e16Run drives K concurrent sessions through the query server over a
// fresh engine and reports the global crowd cost.
func e16Run(seed int64, sessions int) (e16Result, error) {
	eng, err := e16Engine(seed, sessions)
	if err != nil {
		return e16Result{}, err
	}
	defer eng.Close()
	srv := server.New(eng, server.Config{MaxSessions: sessions + 1, MaxConcurrent: sessions + 1})

	shared := []string{
		"SELECT id FROM Pair WHERE a ~= b",
		"SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which talk did you like better?')",
		"SELECT id FROM Pair WHERE a ~= b",
	}
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for k := 0; k < sessions; k++ {
		sess, serr := srv.CreateSession(-1)
		if serr != nil {
			return e16Result{}, serr
		}
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			queries := append(append([]string(nil), shared...),
				fmt.Sprintf("SELECT id FROM Priv WHERE a ~= b AND id = %d", k))
			for _, q := range queries {
				if errs[k] = e16Exec(srv, sess.ID(), q); errs[k] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return e16Result{}, err
		}
	}

	res := e16Result{sessions: sessions, queries: sessions * (len(shared) + 1)}
	for _, info := range srv.Stats().Sessions {
		res.comparisons += info.Stats.Comparisons
	}
	cs := eng.CacheStats()
	if resolved := cs.Hits + cs.Shared + cs.Misses; resolved > 0 {
		res.hitRate = float64(cs.Hits+cs.Shared) / float64(resolved)
	}
	ts := eng.Tasks().Stats()
	res.spend = ts.ApprovedSpend
	res.hitsPosted = ts.HITsPosted
	res.makespan = eng.Tasks().Platform().Now()
	return res, nil
}

// E16ConcurrentSessions measures the multi-session server: the same
// overlapping crowd workload issued by 1/2/4/8 concurrent sessions, on a
// fresh engine each time. Shared cache + singleflight keep the paid
// comparisons near-flat while sessions (and private work) grow — the
// sublinear total crowd cost the server exists for. The single-session
// row doubles as the regression baseline: it must match the serial
// engine's cost exactly.
func E16ConcurrentSessions(seed int64) *Table {
	t := &Table{
		ID:      "E16",
		Title:   "concurrent sessions: crowd cost vs K (shared cache + singleflight)",
		Exhibit: "crowddbd multi-session query server (extension)",
		Headers: []string{"sessions", "queries", "paid cmp", "cmp/session", "hit rate", "HITs", "spend", "makespan"},
		Metrics: map[string]float64{},
	}
	for _, k := range []int{1, 2, 4, 8} {
		r, err := e16Run(seed, k)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		t.AddRow(
			fmt.Sprintf("%d", r.sessions),
			fmt.Sprintf("%d", r.queries),
			fmt.Sprintf("%d", r.comparisons),
			fmt.Sprintf("%.1f", float64(r.comparisons)/float64(r.sessions)),
			fmtPct(r.hitRate),
			fmt.Sprintf("%d", r.hitsPosted),
			r.spend.String(),
			fmtDur(r.makespan),
		)
		prefix := fmt.Sprintf("k%d_", k)
		t.Metrics[prefix+"queries"] = float64(r.queries)
		t.Metrics[prefix+"crowd_cost_comparisons"] = float64(r.comparisons)
		t.Metrics[prefix+"cache_hit_rate"] = r.hitRate
		t.Metrics[prefix+"spend_cents"] = float64(r.spend)
		if r.makespan > 0 {
			t.Metrics[prefix+"ops_per_virtual_hour"] = float64(r.queries) / r.makespan.Hours()
		}
	}
	t.Notes = append(t.Notes,
		"each session issues 3 shared (overlapping) crowd queries + 1 private one; fresh engine per K",
		"paid cmp grows sublinearly in sessions: shared comparisons are paid once globally, only private work scales")
	return t
}
