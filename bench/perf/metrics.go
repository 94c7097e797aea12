package main

// metricDef names one metric of the benchmark contract. BENCHMARK.json
// carries the same names, units and directions (plus the regression
// bounds); TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd lists what a user of the stack feels, one value per workload.
// Time metrics are in calibration units (cu, see calib.go). Metrics that
// are legitimately zero on some workload (log bytes on in-memory ones,
// crowd cents on machine ones, the failure ratio) cannot carry a relative
// bound, so they are per-layer metrics instead (driver.log_bytes_per_stmt,
// taskmgr.cents_per_stmt) or the result line's failed/attempted counts.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"stmts_per_kcu", "1/kcu", "higher"},
	{"stmt_p50_cu", "cu", "lower"},
	{"stmt_p95_cu", "cu", "lower"},
	{"ttfr_p50_cu", "cu", "lower"},
	{"allocs_per_stmt", "count", "lower"},
	{"alloc_kb_per_stmt", "KiB", "lower"},
	{"live_heap_mb", "MiB", "lower"},
	{"crowd_accuracy", "ratio", "higher"},
}

// perLayer lists the traced run's numbers, grouped by the package that
// owns the cost. They carry no bound: they say where an end-to-end change
// came from.
var perLayer = []metricDef{
	// pkg/client + loopback
	{"client.self_us", "us", "lower"},
	{"client.http_requests_per_stmt", "count", "lower"},
	{"client.wire_bytes_per_stmt", "B", "lower"},
	{"client.dials_per_stmt", "count", "lower"},
	// internal/server
	{"server.http_self_us", "us", "lower"},
	{"server.jobs_self_us", "us", "lower"},
	{"server.journal_bytes_per_stmt", "B", "lower"},
	{"server.streamed_rows_per_stmt", "count", "lower"},
	// lexer / parser / optimizer
	{"lexer.tokenize_us", "us", "lower"},
	{"parser.parse_us", "us", "lower"},
	{"optimizer.compile_us", "us", "lower"},
	// core / exec
	{"core.exec_stmt_us", "us", "lower"},
	{"exec.build_run_us", "us", "lower"},
	{"exec.rows_examined_per_result_row", "ratio", "lower"},
	{"exec.batches_per_stmt", "count", "lower"},
	// storage
	{"storage.lookup_pk_us", "us", "lower"},
	{"storage.index_lookup_us", "us", "lower"},
	{"storage.scan_us_per_krow", "us", "lower"},
	{"storage.insert_mem_us", "us", "lower"},
	{"storage.insert_durable_us", "us", "lower"},
	{"storage.wal_us", "us", "lower"},
	{"storage.recordlog_append_us", "us", "lower"},
	{"storage.encode_row_us", "us", "lower"},
	{"storage.fsyncs_per_stmt", "count", "lower"},
	{"storage.group_commit_rows", "count", "higher"},
	{"storage.wal_bytes_per_stmt", "B", "lower"},
	{"storage.recover_ms_per_krec", "ms", "lower"},
	{"storage.mvcc_retained_versions_end", "count", "lower"},
	// taskmgr
	{"taskmgr.compare_us_per_pair", "us", "lower"},
	{"taskmgr.probe_us_per_req", "us", "lower"},
	{"taskmgr.groups_per_stmt", "count", "lower"},
	{"taskmgr.hits_per_stmt", "count", "lower"},
	{"taskmgr.assignments_per_hit", "count", "lower"},
	{"taskmgr.retries", "count", "lower"},
	{"taskmgr.virtual_min_per_stmt", "min", "lower"},
	{"taskmgr.cents_per_stmt", "cents", "lower"},
	// crowd platform / quality
	{"crowd.amt_roundtrip_us_per_hit", "us", "lower"},
	{"quality.majority_vote_ns", "ns", "lower"},
	// exec.CompareCache
	{"cache.claim_hit_ns", "ns", "lower"},
	{"cache.put_ns", "ns", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.resident_entries_end", "count", "lower"},
	// obs
	{"obs.trace_overhead_ratio", "ratio", "lower"},
	// the driver itself: raw wall-clock, for reading and converting cu
	{"driver.calib_ops_per_s", "1/s", "higher"},
	{"driver.raw_stmts_per_s", "1/s", "higher"},
	{"driver.raw_p50_ms", "ms", "lower"},
	{"driver.raw_p95_ms", "ms", "lower"},
	{"driver.raw_p99_ms", "ms", "lower"},
	{"driver.raw_cpu_ms_per_stmt", "ms", "lower"},
	{"driver.gc_cycles_per_kstmt", "count", "lower"},
	{"driver.log_bytes_per_stmt", "B", "lower"},
	{"driver.trace_overhead_ratio", "ratio", "lower"},
}

// value is one reported number with its unit, as the result line wants it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]value

// fill builds a metricSet for defs from raw numbers; a name missing from
// vals is reported as absent (the caller treats that as a bug).
func fill(defs []metricDef, vals map[string]float64) (metricSet, []string) {
	out := make(metricSet, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, missing
}
