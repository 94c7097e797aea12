module crowddb/bench/perf

go 1.23

require crowddb v0.0.0

replace crowddb => ../..
