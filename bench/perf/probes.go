package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"crowddb/internal/catalog"
	"crowddb/internal/core"
	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/exec"
	"crowddb/internal/optimizer"
	"crowddb/internal/parser"
	"crowddb/internal/plan"
	"crowddb/internal/quality"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
	"crowddb/internal/taskmgr"
	"crowddb/internal/ui"
	"crowddb/internal/wrm"
)

// Probes time single public functions of the layers below the engine, on
// benchmark-owned instances loaded with the workload's own rows (the
// engine does not export its store). They say what a layer costs per
// call; the staircase says how much of a statement that is.

// perCall runs f(i) for i in [0, n) in five batches and returns the
// median batch's seconds per call, which shrugs off one collection or
// scheduler hiccup.
func perCall(n int, f func(i int)) float64 {
	const batches = 5
	size := max(n/batches, 1)
	per := make([]float64, 0, batches)
	i := 0
	for b := 0; b < batches; b++ {
		start := time.Now()
		for k := 0; k < size; k++ {
			f(i)
			i++
		}
		per = append(per, time.Since(start).Seconds()/float64(size))
	}
	return median(per)
}

// probeData is a benchmark-owned catalog and store holding a workload's
// schema and rows.
type probeData struct {
	cat   *catalog.Catalog
	store *storage.Store
	rows  map[string][]storage.Row // lower-cased table name → its rows
}

// setupScripts is a workload's DDL followed by its INSERT scripts.
func setupScripts(w workload) []string { return append(w.ddl(), w.preload()...) }

// loadProbeData applies DDL and INSERT scripts to a fresh in-memory store
// the way core.Engine does, using only public functions.
func loadProbeData(scripts []string) (*probeData, error) {
	store, err := storage.NewStoreOptions("", storage.Options{Shards: benchShards})
	if err != nil {
		return nil, err
	}
	pd := &probeData{cat: catalog.New(), store: store, rows: make(map[string][]storage.Row)}
	for _, script := range scripts {
		stmt, err := parser.Parse(script)
		if err != nil {
			return nil, err
		}
		switch s := stmt.(type) {
		case *parser.CreateTable:
			t := &catalog.Table{Name: s.Name, Crowd: s.Crowd, PrimaryKey: s.PrimaryKey}
			for _, c := range s.Columns {
				t.Columns = append(t.Columns, catalog.Column{Name: c.Name, Type: c.Type, Crowd: c.Crowd, PrimaryKey: c.PrimaryKey})
			}
			if err := pd.cat.CreateTable(t); err != nil {
				return nil, err
			}
			if err := store.CreateTable(t.Name, t.PrimaryKeyIndexes()); err != nil {
				return nil, err
			}
			t.SetShardCount(int64(store.NumShards()))
		case *parser.CreateIndex:
			t, ok := pd.cat.Table(s.Table)
			if !ok {
				return nil, fmt.Errorf("index on unknown table %s", s.Table)
			}
			cols := make([]int, len(s.Columns))
			for i, c := range s.Columns {
				cols[i] = t.ColumnIndex(c)
			}
			if err := pd.cat.CreateIndex(&catalog.Index{Name: s.Name, Table: t.Name, Columns: s.Columns, Unique: s.Unique}); err != nil {
				return nil, err
			}
			if err := store.CreateIndex(t.Name, s.Name, cols, s.Unique); err != nil {
				return nil, err
			}
		case *parser.Insert:
			if err := pd.insert(s); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("unexpected setup statement %T", stmt)
		}
	}
	return pd, nil
}

func (pd *probeData) insert(s *parser.Insert) error {
	t, ok := pd.cat.Table(s.Table)
	if !ok {
		return fmt.Errorf("insert into unknown table %s", s.Table)
	}
	colIdx := make([]int, 0, len(t.Columns))
	if len(s.Columns) == 0 {
		for i := range t.Columns {
			colIdx = append(colIdx, i)
		}
	}
	for _, c := range s.Columns {
		colIdx = append(colIdx, t.ColumnIndex(c))
	}
	tx := pd.store.Begin()
	defer tx.Commit()
	for _, exprs := range s.Rows {
		row := make(storage.Row, len(t.Columns))
		for ci, c := range t.Columns {
			if c.Crowd {
				row[ci] = sqltypes.CNull()
			} else {
				row[ci] = sqltypes.Null()
			}
		}
		for i, ex := range exprs {
			v, err := exec.EvalConst(ex)
			if err != nil {
				return err
			}
			if row[colIdx[i]], err = v.Coerce(t.Columns[colIdx[i]].Type); err != nil {
				return err
			}
		}
		if _, err := tx.Insert(t.Name, row); err != nil {
			return err
		}
		t.AddRowCount(1)
		for ci, c := range t.Columns {
			if row[ci].IsCNull() {
				t.AdjustCNull(c.Name, 1)
			}
		}
		key := strings.ToLower(t.Name)
		pd.rows[key] = append(pd.rows[key], row)
	}
	return nil
}

// runProbes measures every probe metric for one workload.
func runProbes(ctx context.Context, name string, opts runOpts) (map[string]float64, error) {
	w, err := newWorkload(name, opts.seed, opts.sz)
	if err != nil {
		return nil, err
	}
	scripts := setupScripts(w)
	pd, err := loadProbeData(scripts)
	if err != nil {
		return nil, err
	}
	defer pd.store.Close()
	vals := make(map[string]float64)
	sz := opts.sz
	pd.storageReads(w, sz, vals)
	if err := pd.execProbe(w, sz, vals); err != nil {
		return nil, err
	}
	if err := storageWrites(sz, vals); err != nil {
		return nil, err
	}
	if err := crowdProbes(opts.seed, sz, vals); err != nil {
		return nil, err
	}
	cacheAndVoteProbes(sz, vals)
	if err := obsProbe(ctx, scripts, w.probeSQL(), opts.seed, sz, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// storageReads times the read paths on the workload's probe table.
func (pd *probeData) storageReads(w workload, sz sizes, vals map[string]float64) {
	const us = 1e6
	table := w.probeTable()
	t, _ := pd.cat.Table(table)
	rows := pd.rows[strings.ToLower(table)]
	ts := pd.store.VisibleTS()
	pk := t.PrimaryKeyIndexes()[0]
	n := len(rows)
	// A stride coprime with n visits keys in a scattered order.
	at := func(i int) storage.Row { return rows[(i*7919)%n] }

	vals["storage.lookup_pk_us"] = us * perCall(sz.of(20000), func(i int) {
		pd.store.LookupPKRowAt(table, ts, at(i)[pk])
	})
	vals["storage.index_lookup_us"] = 0
	if idx := pd.cat.Indexes(table); len(idx) > 0 {
		col := t.ColumnIndex(idx[0].Columns[0])
		vals["storage.index_lookup_us"] = us * perCall(sz.of(5000), func(i int) {
			pd.store.LookupIndexRowsAt(table, idx[0].Name, ts, at(i)[col]) //nolint:errcheck // the index exists
		})
	}
	scans := max(sz.of(200000)/n, 5)
	vals["storage.scan_us_per_krow"] = us * perCall(scans, func(int) {
		pd.store.ScanRowsAt(table, ts) //nolint:errcheck // the table exists
	}) / (float64(n) / 1000)
	vals["storage.encode_row_us"] = us * perCall(sz.of(20000), func(i int) {
		storage.EncodeRow(at(i)) //nolint:errcheck // plain values always encode
	})
}

// execProbe times exec.Build + exec.Run of the workload's machine-only
// plans, compiled once.
func (pd *probeData) execProbe(w workload, sz sizes, vals map[string]float64) error {
	total := 0.0
	for _, sql := range w.probeSQL() {
		stmt, err := parser.Parse(sql)
		if err != nil {
			return err
		}
		sel, ok := stmt.(*parser.Select)
		if !ok {
			return fmt.Errorf("probe statement is not a SELECT: %s", sql)
		}
		root, err := plan.Build(sel, pd.cat)
		if err != nil {
			return err
		}
		opt, err := optimizer.Optimize(root, pd.cat, optimizer.Options{})
		if err != nil {
			return err
		}
		var runErr error
		once := func(int) {
			ectx := &exec.Ctx{Store: pd.store, Cat: pd.cat, SnapshotTS: pd.store.VisibleTS()}
			op, err := exec.Build(opt.Root, ectx)
			if err == nil {
				_, err = exec.Run(op, ectx)
			}
			if err != nil {
				runErr = err
			}
		}
		// Size the loop from one timed run: about 0.2 s per plan.
		start := time.Now()
		once(0)
		iters := sz.of(min(max(int(0.2/time.Since(start).Seconds()), 10), 5000))
		total += perCall(iters, once)
		if runErr != nil {
			return fmt.Errorf("%s: %w", sql, runErr)
		}
	}
	vals["exec.build_run_us"] = 1e6 * total / float64(len(w.probeSQL()))
	return nil
}

// storageWrites times one-row transactions with and without a WAL, and
// the record log the jobs journal is built on.
func storageWrites(sz sizes, vals map[string]float64) error {
	const us = 1e6
	dir, err := os.MkdirTemp(outDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	insertPerRow := func(storeDir string, n int) (float64, error) {
		store, err := storage.NewStoreOptions(storeDir, storage.Options{Shards: benchShards, Sync: storage.SyncGroup})
		if err != nil {
			return 0, err
		}
		defer store.Close()
		if err := store.CreateTable("p", []int{0}); err != nil {
			return 0, err
		}
		var insErr error
		per := perCall(n, func(i int) {
			tx := store.Begin()
			_, err := tx.Insert("p", storage.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("value"), sqltypes.NewInt(int64(i % 1000))})
			tx.Commit()
			if err != nil {
				insErr = err
			}
		})
		return per, insErr
	}
	mem, err := insertPerRow("", sz.of(20000))
	if err != nil {
		return err
	}
	durable, err := insertPerRow(filepath.Join(dir, "store"), sz.of(300))
	if err != nil {
		return err
	}
	vals["storage.insert_mem_us"] = us * mem
	vals["storage.insert_durable_us"] = us * durable
	vals["storage.wal_us"] = us * (durable - mem)

	log, err := storage.OpenRecordLog(filepath.Join(dir, "records.log"), storage.SyncGroup)
	if err != nil {
		return err
	}
	defer log.Close()
	type record struct {
		T   string   `json:"t"`
		Job string   `json:"job"`
		Row []string `json:"row"`
	}
	var appendErr error
	vals["storage.recordlog_append_us"] = us * perCall(sz.of(300), func(int) {
		if err := log.Append(record{T: "row", Job: "j000001", Row: []string{"talk-00001", "42"}}); err != nil {
			appendErr = err
		}
	})
	return appendErr
}

// crowdProbes times the task manager and the bare simulated platform.
func crowdProbes(seed int64, sz sizes, vals map[string]float64) error {
	const us = 1e6
	// The task manager renders HIT forms from the catalog, so it gets the
	// crowd workloads' schema whatever workload is being traced.
	pd, err := loadProbeData(setupScripts(newCrowdWorkload(seed, sizes{div: 50, seconds: refSeconds}, false)))
	if err != nil {
		return err
	}
	defer pd.store.Close()
	uim := ui.NewManager(pd.cat)
	uim.GenerateAll()
	tracker := quality.NewTracker()
	tasks := taskmgr.New(amt.NewDefault(seed), uim, tracker, wrm.New(wrm.DefaultPolicy(), tracker), benchOracle{}, taskmgr.DefaultConfig())

	const groupSize = 8
	groups := max(sz.of(25), 5)
	var callErr error
	perGroup := perCall(groups, func(i int) {
		pairs := make([]taskmgr.ComparePair, groupSize)
		for j := range pairs {
			a, b := pairStrings(1000+i, j)
			pairs[j] = taskmgr.ComparePair{Left: a, Right: b}
		}
		call, err := tasks.CompareEqualAsync("Same company?", pairs)
		if err == nil {
			_, err = call.Wait()
		}
		if err != nil {
			callErr = err
		}
	})
	vals["taskmgr.compare_us_per_pair"] = us * perGroup / groupSize
	perGroup = perCall(groups, func(i int) {
		reqs := make([]taskmgr.ProbeRequest, itemsPerGroup)
		for j := range reqs {
			reqs[j] = taskmgr.ProbeRequest{
				Known: map[string]sqltypes.Value{"name": sqltypes.NewString(itemName(1000+i, j))},
				Ask:   []string{"headcount"},
			}
		}
		call, err := tasks.ProbeValuesAsync("Item", reqs)
		if err == nil {
			_, err = call.Wait()
		}
		if err != nil {
			callErr = err
		}
	})
	vals["taskmgr.probe_us_per_req"] = us * perGroup / itemsPerGroup
	if callErr != nil {
		return callErr
	}

	platform := amt.NewDefault(seed)
	perGroup = perCall(groups, func(i int) {
		group := &crowd.HITGroup{
			Title: "Compare items", Kind: crowd.TaskCompareEqual,
			Reward: 2, Assignments: 3, Expiry: 72 * time.Hour,
		}
		for j := 0; j < groupSize; j++ {
			group.HITs = append(group.HITs, &crowd.HIT{
				ID:     fmt.Sprintf("probe-%d-%d", i, j),
				Kind:   crowd.TaskCompareEqual,
				Fields: []crowd.Field{{Name: "answer", Kind: crowd.FieldChoice, Options: []string{"yes", "no"}}},
				Truth:  &crowd.SimTruth{Truth: map[string]string{"answer": "yes"}, Difficulty: 0.15},
			})
		}
		id, err := platform.Post(group)
		for err == nil {
			var st crowd.GroupStatus
			if st, err = platform.Status(id); err != nil || st.Done() {
				break
			}
			platform.Step(time.Minute)
		}
		if err == nil {
			_, err = platform.Results(id)
		}
		if err != nil {
			callErr = err
		}
	})
	vals["crowd.amt_roundtrip_us_per_hit"] = us * perGroup / groupSize
	return callErr
}

// cacheAndVoteProbes times the comparison cache and majority voting.
func cacheAndVoteProbes(sz sizes, vals map[string]float64) {
	const ns = 1e9
	entries := sz.of(20000)
	cache := exec.NewCompareCache()
	lefts := make([]string, entries)
	for i := range lefts {
		lefts[i] = fmt.Sprintf("Acme Corp #%d", i)
	}
	vals["cache.put_ns"] = ns * perCall(entries, func(i int) {
		cache.PutEqual("Same company?", lefts[i], "Acme Corporation", i%2 == 0)
	})
	vals["cache.claim_hit_ns"] = ns * perCall(entries, func(i int) {
		cache.ClaimEqual("Same company?", lefts[i], "Acme Corporation")
	})
	votes := []quality.Vote{{WorkerID: "w1", Answer: "yes"}, {WorkerID: "w2", Answer: "Yes "}, {WorkerID: "w3", Answer: "no"}}
	vals["quality.majority_vote_ns"] = ns * perCall(entries, func(int) {
		quality.MajorityVote(votes, quality.MajorityFor(len(votes)))
	})
}

// obsProbe compares Engine.Execute with per-statement tracing on (the
// default) and off, on two engines holding the workload's rows. The two
// arms alternate statement by statement so drift hits both alike.
func obsProbe(ctx context.Context, scripts, queries []string, seed int64, sz sizes, vals map[string]float64) error {
	open := func(disable bool) (*core.Engine, error) {
		cfg := engineConfig(seed, "", benchOracle{})
		cfg.DisableObservability = disable
		eng, err := core.Open(cfg)
		if err != nil {
			return nil, err
		}
		for _, script := range scripts {
			if _, err := eng.Exec(script); err != nil {
				eng.Close()
				return nil, err
			}
		}
		return eng, nil
	}
	on, err := open(false)
	if err != nil {
		return err
	}
	defer on.Close()
	off, err := open(true)
	if err != nil {
		return err
	}
	defer off.Close()
	ratios := 0.0
	for _, sql := range queries {
		timeOne := func(eng *core.Engine) (float64, error) {
			start := time.Now()
			_, err := eng.Execute(ctx, sql, core.DefaultExecOpts())
			return time.Since(start).Seconds(), err
		}
		first, err := timeOne(on)
		if err != nil {
			return err
		}
		iters := sz.of(min(max(int(0.15/first), 10), 3000))
		tOn, tOff := make([]float64, 0, iters), make([]float64, 0, iters)
		for i := 0; i < iters; i++ {
			a, err := timeOne(on)
			if err != nil {
				return err
			}
			b, err := timeOne(off)
			if err != nil {
				return err
			}
			tOn, tOff = append(tOn, a), append(tOff, b)
		}
		sort.Float64s(tOn)
		sort.Float64s(tOff)
		ratios += percentile(tOn, 0.5) / percentile(tOff, 0.5)
	}
	vals["obs.trace_overhead_ratio"] = ratios / float64(len(queries))
	return nil
}
