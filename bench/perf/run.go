package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"crowddb/pkg/client"
)

const (
	setupRepeats   = 5 // setup_s is the median of this many full set-ups
	measuredRounds = 8 // untraced run: rounds after the warm-up round
	tracedRounds   = 3 // traced run: 2-client rounds before the staged ones
	noisySpread    = 0.15
)

// roundStat is one measured round: fixed work, followed by a calibration
// burst (the first round is also preceded by one).
type roundStat struct {
	Stmts        int     `json:"stmts"`
	WallSeconds  float64 `json:"wall_s"`
	CalibOpsPerS float64 `json:"calib_ops_per_s"` // the burst after the round
}

// measurement is what the closed-loop 2-client phase produced.
type measurement struct {
	rounds []roundStat
	// opSeconds is the run's calibration unit: the median over every
	// burst of the seconds one calibration op took.
	opSeconds float64
	latency   []float64 // seconds, pooled over the measured rounds
	ttfr      []float64
	attempted int
	failed    int
	decided   int
	right     int
	mallocs   uint64
	allocB    uint64
	gcCycles  uint32
	cpuSec    float64
	liveHeap  uint64
	before    promSample
	after     promSample
	wire      wireTotals // over the measured rounds
	walBytes  int64
	jrnBytes  int64
	stmts     int // statements in measured rounds
	scanned   int // rows the executor examined in measured rounds
	returned  int // rows streamed back in measured rounds
	exhausted bool
}

// deployment is one booted stack with its clients and workload model.
type deployment struct {
	w       workload
	sz      sizes
	st      *stack
	clients []*client.Client
	dir     string
}

// deploy builds the workload's generator, boots the stack, creates the
// schema and loads the data through the SDK. It returns how long the
// system's part (everything but building the generator) took.
func deploy(ctx context.Context, name string, seed int64, sz sizes) (*deployment, float64, error) {
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		return nil, 0, err
	}
	ddl, preload := w.ddl(), w.preload()
	start := time.Now()
	dir := ""
	if w.durable() {
		if dir, err = os.MkdirTemp(outDir, "data-"); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
	}
	st, err := bootStack(seed, dir, benchOracle{})
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{w: w, sz: sz, st: st, dir: dir}
	for c := 0; c < numClients; c++ {
		d.clients = append(d.clients, st.newClient())
	}
	for _, script := range append(ddl, preload...) {
		if _, err := d.clients[0].Query(ctx, script); err != nil {
			d.close()
			return nil, 0, fmt.Errorf("setup: %.60s…: %w", script, err)
		}
	}
	if err := w.prepare(ctx, d.clients); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, time.Since(start).Seconds(), nil
}

// close tears the stack down; the data directory is removed by finish.
func (d *deployment) close() error {
	err := d.st.close()
	d.st = nil
	return err
}

// finish closes the stack, runs the workload's post-run verification
// (durable reopen) and removes the data directory.
func (d *deployment) finish(seed int64) (recoverSeconds float64, err error) {
	if d.st != nil {
		err = d.close()
	}
	if err == nil {
		recoverSeconds, err = d.w.verify(d.dir, seed)
	}
	if d.dir != "" {
		if rerr := os.RemoveAll(d.dir); err == nil {
			err = rerr
		}
	}
	return recoverSeconds, err
}

// setupMedian deploys setupRepeats times, keeps the last deployment and
// returns the median set-up time.
func setupMedian(ctx context.Context, name string, seed int64, sz sizes) (*deployment, float64, error) {
	var times []float64
	var keep *deployment
	for i := 0; i < setupRepeats; i++ {
		d, secs, err := deploy(ctx, name, seed, sz)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, secs)
		if i < setupRepeats-1 {
			if _, err := d.finish(seed); err != nil {
				return nil, 0, err
			}
			continue
		}
		keep = d
	}
	return keep, median(times), nil
}

// clientRound is one client's share of a round.
type clientRound struct {
	lat, ttfr         []float64 // seconds, one per statement
	failed            int
	decided, right    int
	scanned, returned int // rows examined by the executor, rows streamed back
}

// runStatements is the closed loop: the next statement is submitted only
// after the previous one reached its terminal state, exactly the calls
// client.Query makes (Submit → Rows → Wait → Close) with a clock on the
// first stream event.
func runStatements(ctx context.Context, cl *client.Client, w workload, stmts []stmt, rec *clientRound) {
	var out outcome
	for i := range stmts {
		st := &stmts[i]
		out.rows = out.rows[:0]
		out.state, out.affected, out.scanned = "", 0, 0
		start := time.Now()
		ttfr, err := execOne(ctx, cl, st.sql, start, &out)
		lat := time.Since(start).Seconds()
		rec.lat = append(rec.lat, lat)
		rec.ttfr = append(rec.ttfr, ttfr)
		rec.scanned += out.scanned
		rec.returned += len(out.rows)
		if err != nil || !w.check(st, &out) {
			rec.failed++
			continue
		}
		d, r := w.score(st, &out)
		rec.decided += d
		rec.right += r
	}
}

// execOne runs one statement through the SDK and fills out. It returns
// the time from start to the first event on the row stream.
func execOne(ctx context.Context, cl *client.Client, sql string, start time.Time, out *outcome) (float64, error) {
	job, err := cl.Submit(ctx, sql)
	if err != nil {
		return 0, err
	}
	it, err := job.Rows(ctx)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	ttfr := -1.0
	for it.Next() {
		if ttfr < 0 {
			ttfr = time.Since(start).Seconds()
		}
		out.rows = append(out.rows, it.Row())
	}
	if ttfr < 0 {
		ttfr = time.Since(start).Seconds() // the first event was the trailer
	}
	if err := it.Err(); err != nil {
		return ttfr, err
	}
	status, err := job.Wait(ctx)
	if err != nil {
		return ttfr, err
	}
	out.state, out.affected, out.scanned = status.State, status.Affected, status.Stats.RowsScanned
	return ttfr, nil
}

// generate builds every client's statements and records for round r,
// outside any measured window. ok is false when the workload has no
// statements left.
func (d *deployment) generate(r int) (streams [][]stmt, recs []*clientRound, stmts int, ok bool) {
	streams = make([][]stmt, len(d.clients))
	recs = make([]*clientRound, len(d.clients))
	for c := range d.clients {
		streams[c] = d.w.round(c, r)
		if streams[c] == nil {
			return nil, nil, 0, false
		}
		n := len(streams[c])
		stmts += n
		recs[c] = &clientRound{lat: make([]float64, 0, n), ttfr: make([]float64, 0, n)}
	}
	return streams, recs, stmts, true
}

// runRound runs one generated round on every client concurrently and
// returns its wall time.
func (d *deployment) runRound(ctx context.Context, streams [][]stmt, recs []*clientRound) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for c, cl := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runStatements(ctx, cl, d.w, streams[c], recs[c])
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measure runs one unmeasured warm-up round and then rounds measured
// rounds of fixed work, each bracketed by calibration bursts. It returns
// the next unused workload round index.
func (d *deployment) measure(ctx context.Context, cal *calibrator, rounds int) (*measurement, int, error) {
	m := &measurement{}
	r := 0
	note := func(recs []*clientRound, measured bool) {
		for _, rec := range recs {
			if measured {
				m.scanned += rec.scanned
				m.returned += rec.returned
			}
			m.attempted += len(rec.lat)
			m.failed += rec.failed
			m.decided += rec.decided
			m.right += rec.right
		}
	}
	// Warm-up: fills connection pools, the server's job ring and the
	// runtime's heap target. Checked, but not timed.
	streams, recs, _, ok := d.generate(r)
	if !ok {
		return nil, r, fmt.Errorf("%s: no statements to run", d.w.name())
	}
	d.runRound(ctx, streams, recs)
	note(recs, false)
	r++

	var err error
	if m.before, err = d.st.scrape(); err != nil {
		return nil, r, err
	}
	wal0, jrn0 := d.st.logBytes()
	wire0 := d.st.wire.load()
	first, err := cal.burst(d.sz.burst())
	if err != nil {
		return nil, r, err
	}
	bursts := []float64{first}
	var ms0, ms1 runtime.MemStats
	for n := 0; n < rounds; n++ {
		streams, recs, stmts, ok := d.generate(r)
		if !ok {
			m.exhausted = true
			break
		}
		r++
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuSeconds()
		wall := d.runRound(ctx, streams, recs)
		cpu1 := cpuSeconds()
		runtime.ReadMemStats(&ms1)
		op, err := cal.burst(d.sz.burst())
		if err != nil {
			return nil, r, err
		}
		bursts = append(bursts, op)
		note(recs, true)
		m.stmts += stmts
		m.mallocs += ms1.Mallocs - ms0.Mallocs
		m.allocB += ms1.TotalAlloc - ms0.TotalAlloc
		m.gcCycles += ms1.NumGC - ms0.NumGC
		m.cpuSec += cpu1 - cpu0
		m.rounds = append(m.rounds, roundStat{Stmts: stmts, WallSeconds: wall, CalibOpsPerS: 1 / op})
		for _, rec := range recs {
			m.latency = append(m.latency, rec.lat...)
			m.ttfr = append(m.ttfr, rec.ttfr...)
		}
	}
	if len(m.rounds) == 0 {
		return nil, r, fmt.Errorf("%s: data exhausted before the first measured round", d.w.name())
	}
	m.opSeconds = median(bursts)
	m.liveHeap = liveHeap()
	if m.after, err = d.st.scrape(); err != nil {
		return nil, r, err
	}
	wal1, jrn1 := d.st.logBytes()
	m.walBytes, m.jrnBytes = wal1-wal0, jrn1-jrn0
	m.wire = d.st.wire.load().minus(wire0)
	return m, r, nil
}

// liveHeap is HeapAlloc after two forced collections (the second sweeps
// what the first one's finalizers released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// noisy reports whether the calibration bursts of one run disagree by
// more than noisySpread of their median: a reader should distrust the
// run's time metrics then.
func (m *measurement) noisy() bool {
	rates := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		rates[i] = r.CalibOpsPerS
	}
	sort.Float64s(rates)
	return (rates[len(rates)-1]-rates[0])/percentile(rates, 0.5) > noisySpread
}

// endToEndValues derives the contract's end-to-end metrics.
func (m *measurement) endToEndValues(setupSeconds float64) map[string]float64 {
	wall := 0.0
	for _, r := range m.rounds {
		wall += r.WallSeconds
	}
	lat := sortedCopy(m.latency)
	accuracy := 1.0
	if m.decided > 0 {
		accuracy = float64(m.right) / float64(m.decided)
	}
	n := float64(m.stmts)
	return map[string]float64{
		"setup_s":           setupSeconds,
		"stmts_per_kcu":     n / (wall / m.opSeconds) * 1000,
		"stmt_p50_cu":       percentile(lat, 0.50) / m.opSeconds,
		"stmt_p95_cu":       percentile(lat, 0.95) / m.opSeconds,
		"ttfr_p50_cu":       median(m.ttfr) / m.opSeconds,
		"allocs_per_stmt":   float64(m.mallocs) / n,
		"alloc_kb_per_stmt": float64(m.allocB) / 1024 / n,
		"live_heap_mb":      float64(m.liveHeap) / (1 << 20),
		"crowd_accuracy":    accuracy,
	}
}

// driverValues derives the raw wall-clock and count metrics the traced
// run reports beside the staircase.
func (m *measurement) driverValues() map[string]float64 {
	n := float64(m.stmts)
	raw := sortedCopy(m.latency)
	wall := 0.0
	for _, r := range m.rounds {
		wall += r.WallSeconds
	}
	hits := delta(m.before, m.after, "crowddb_taskmgr_hits_posted_total")
	perHit := 0.0
	if hits > 0 {
		perHit = delta(m.before, m.after, "crowddb_taskmgr_assignments_in_total") / hits
	}
	fsyncs := delta(m.before, m.after, "crowddb_wal_fsync_seconds_count")
	groupRows := 0.0
	if fsyncs > 0 {
		groupRows = delta(m.before, m.after, "crowddb_wal_fsync_batch_rows_sum") / fsyncs
	}
	resolved := delta(m.before, m.after, "crowddb_cache_hits_total") +
		delta(m.before, m.after, "crowddb_cache_misses_total") +
		delta(m.before, m.after, "crowddb_cache_shared_total")
	hitRatio := 0.0
	if resolved > 0 {
		hitRatio = (resolved - delta(m.before, m.after, "crowddb_cache_misses_total")) / resolved
	}
	examined := 0.0
	if m.returned > 0 {
		examined = float64(m.scanned) / float64(m.returned)
	}
	return map[string]float64{
		"driver.calib_ops_per_s":             1 / m.opSeconds,
		"driver.raw_stmts_per_s":             n / wall,
		"driver.raw_p50_ms":                  percentile(raw, 0.50) * 1e3,
		"driver.raw_p95_ms":                  percentile(raw, 0.95) * 1e3,
		"driver.raw_p99_ms":                  percentile(raw, 0.99) * 1e3,
		"driver.raw_cpu_ms_per_stmt":         m.cpuSec / n * 1e3,
		"driver.gc_cycles_per_kstmt":         float64(m.gcCycles) / n * 1e3,
		"driver.log_bytes_per_stmt":          float64(m.walBytes+m.jrnBytes) / n,
		"client.http_requests_per_stmt":      float64(m.wire.requests) / n,
		"client.dials_per_stmt":              float64(m.wire.dials) / n,
		"client.wire_bytes_per_stmt":         float64(m.wire.bytes) / n,
		"server.journal_bytes_per_stmt":      float64(m.jrnBytes) / n,
		"server.streamed_rows_per_stmt":      delta(m.before, m.after, "crowddb_jobs_streamed_rows_total") / n,
		"exec.rows_examined_per_result_row":  examined,
		"exec.batches_per_stmt":              delta(m.before, m.after, "crowddb_exec_op_batches_total") / n,
		"storage.fsyncs_per_stmt":            fsyncs / n,
		"storage.group_commit_rows":          groupRows,
		"storage.wal_bytes_per_stmt":         float64(m.walBytes) / n,
		"storage.mvcc_retained_versions_end": m.after.sum("crowddb_mvcc_retained_versions"),
		"taskmgr.groups_per_stmt":            delta(m.before, m.after, "crowddb_taskmgr_groups_posted_total") / n,
		"taskmgr.hits_per_stmt":              hits / n,
		"taskmgr.assignments_per_hit":        perHit,
		"taskmgr.retries":                    delta(m.before, m.after, "crowddb_taskmgr_retries_total"),
		"taskmgr.virtual_min_per_stmt":       delta(m.before, m.after, "crowddb_taskmgr_group_roundtrip_seconds_sum") / 60 / n,
		"taskmgr.cents_per_stmt":             delta(m.before, m.after, "crowddb_taskmgr_approved_spend_cents_total") / n,
		"cache.hit_ratio":                    hitRatio,
		"cache.resident_entries_end":         m.after.sum("crowddb_cache_resident_entries"),
	}
}
