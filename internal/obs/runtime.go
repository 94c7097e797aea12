package obs

import (
	"runtime/debug"
	"runtime/metrics"
)

// RegisterRuntime exports the Go runtime's own account of the process —
// what a statement costs in allocation and collection, next to what it
// costs in crowd cents — as func-backed series read at scrape time.
func RegisterRuntime(reg *Registry) {
	reg.GaugeFunc("crowddb_runtime_goroutines", "goroutines that currently exist",
		runtimeSample("/sched/goroutines:goroutines"))
	reg.CounterFunc("crowddb_runtime_gc_cycles_total", "completed garbage-collection cycles",
		runtimeSample("/gc/cycles/total:gc-cycles"))
	reg.CounterFunc("crowddb_runtime_heap_alloc_bytes_total", "bytes allocated on the heap since the process started",
		runtimeSample("/gc/heap/allocs:bytes"))
	reg.CounterFunc("crowddb_runtime_heap_alloc_objects_total", "objects allocated on the heap since the process started",
		runtimeSample("/gc/heap/allocs:objects"))
	reg.GaugeFunc("crowddb_runtime_heap_live_bytes", "heap bytes the last collection found reachable",
		runtimeSample("/gc/heap/live:bytes"))
	// runtime/metrics has pauses as a distribution only; the exact total
	// comes from the collector's own record.
	reg.CounterFunc("crowddb_runtime_gc_pause_seconds_total", "time the collector has stopped the world",
		func() float64 {
			var st debug.GCStats
			debug.ReadGCStats(&st)
			return st.PauseTotal.Seconds()
		})
}

// runtimeSample reads one uint64 runtime/metrics value per call (0 when
// this Go version does not export it).
func runtimeSample(name string) func() float64 {
	return func() float64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		if s[0].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return float64(s[0].Value.Uint64())
	}
}
