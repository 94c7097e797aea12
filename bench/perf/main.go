// Command perf is crowdperf, the end-to-end performance benchmark of the
// CrowdDB stack. It boots the real system in-process — core.Open →
// server.New → HTTPHandler on a loopback listener — and drives it through
// pkg/client the way a user would, two closed-loop clients on two cores.
//
//	bash bench/perf/run.sh --workload point_read --seed 1 --seconds 10 --trace 0
//	bash bench/perf/run.sh                       # all workloads, both modes
//	bash bench/perf/run.sh -compare A.json B.json
//
// With --workload the last line of standard output is the contract's
// result object: {"correct", "attempted", "failed", "metrics"}; --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones. See
// README.md for what each workload and metric is for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// outDir receives data directories, span logs and result files; it is
// relative to the working directory (run.sh makes that bench/perf).
const outDir = "out"

// envStanza says where and how a result was measured.
type envStanza struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	Engine     string  `json:"engine_config"`
	Server     string  `json:"server_config"`
}

// commit is stamped by run.sh (-ldflags -X) when the checkout is a git
// repository.
var commit = "unknown"

func environment(seed int64, seconds float64) envStanza {
	return envStanza{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       seed,
		Seconds:    seconds,
		Clients:    numClients,
		Engine:     fmt.Sprintf("shards=%d wal_sync=group batch=default tracing=on platform=amt tasks=default payment=default", benchShards),
		Server:     "defaults (max_jobs=256 max_concurrent=32); jobs journal on durable workloads, group sync",
	}
}

// runRecord is one invocation's outcome for one workload and mode.
type runRecord struct {
	Workload  string      `json:"workload"`
	Trace     bool        `json:"trace"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Noisy     bool        `json:"noisy"`
	Exhausted bool        `json:"data_exhausted,omitempty"`
	Metrics   metricSet   `json:"metrics"`
	Rounds    []roundStat `json:"rounds"`
	// Raw carries the untraced run's wall-clock numbers, for reading
	// beside the calibrated ones (driver.* metrics of the traced run).
	Raw map[string]float64 `json:"raw,omitempty"`
	// CentsPerStmt feeds the hot-vs-cold spend gate of the all-workloads
	// run (it is also the traced run's taskmgr.cents_per_stmt).
	CentsPerStmt float64  `json:"cents_per_stmt"`
	Problems     []string `json:"problems,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env  envStanza   `json:"env"`
	Runs []runRecord `json:"runs"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run one workload and end with the contract's result line (default: all workloads, both modes)")
	seed := fs.Int64("seed", 1, "generator seed (also the simulated crowd's)")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	smoke := fs.Bool("smoke", false, "run at 1/50 size (self-test)")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	out := fs.String("out", filepath.Join(outDir, "result.json"), "result file of the all-workloads run")
	runs := fs.Int("runs", 1, "all-workloads run: untraced runs per workload, on consecutive seeds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perf: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perf: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perf: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 || math.IsNaN(*seconds) {
		fmt.Fprintln(stderr, "perf: -seconds must be positive")
		return 2
	}
	runtime.GOMAXPROCS(numClients)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	sz := sizes{div: 1, seconds: *seconds}
	if *smoke {
		sz.div = 50
	}
	opts := runOpts{seed: *seed, sz: sz}
	env := environment(*seed, *seconds)

	if *workloadName != "" {
		rec, err := runOne(context.Background(), *workloadName, *trace == 1, opts)
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
		printRun(stdout, env, rec)
		line, err := json.Marshal(struct {
			Correct   bool      `json:"correct"`
			Attempted int       `json:"attempted"`
			Failed    int       `json:"failed"`
			Metrics   metricSet `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rec.Correct {
			return 1
		}
		return 0
	}
	return runAll(context.Background(), env, opts, max(*runs, 1), *out, stdout, stderr)
}

// runOpts is what one run needs besides the workload's name.
type runOpts struct {
	seed int64
	sz   sizes
}

// runOne runs one workload in one mode.
func runOne(ctx context.Context, name string, traced bool, opts runOpts) (*runRecord, error) {
	if traced {
		return runTraced(ctx, name, opts)
	}
	return runUntraced(ctx, name, opts)
}

// runUntraced is the end-to-end run: median set-up time, then the
// calibrated closed-loop phase, then the workload's post-run check.
func runUntraced(ctx context.Context, name string, opts runOpts) (*runRecord, error) {
	d, setupSeconds, err := setupMedian(ctx, name, opts.seed, opts.sz)
	if err != nil {
		return nil, err
	}
	cal, err := newCalibrator()
	if err != nil {
		d.finish(opts.seed) //nolint:errcheck // the calibrator's error wins
		return nil, err
	}
	m, _, merr := d.measure(ctx, cal, measuredRounds)
	cal.close()
	_, verr := d.finish(opts.seed)
	if merr != nil {
		return nil, merr
	}
	rec := &runRecord{
		Workload:  name,
		Attempted: m.attempted,
		Failed:    m.failed,
		Noisy:     m.noisy(),
		Exhausted: m.exhausted,
		Rounds:    m.rounds,
	}
	rec.Raw = m.driverValues()
	rec.CentsPerStmt = rec.Raw["taskmgr.cents_per_stmt"]
	if verr != nil {
		rec.Problems = append(rec.Problems, verr.Error())
	}
	var missing []string
	rec.Metrics, missing = fill(endToEnd, m.endToEndValues(setupSeconds))
	for _, name := range missing {
		rec.Problems = append(rec.Problems, "metric not measured: "+name)
	}
	rec.Correct = rec.Failed == 0 && len(rec.Problems) == 0
	return rec, nil
}

// printRun writes the human-readable part of a single-workload run.
func printRun(w io.Writer, env envStanza, rec *runRecord) {
	envJSON, _ := json.Marshal(env) //nolint:errcheck // plain struct
	fmt.Fprintf(w, "crowdperf %s trace=%v env=%s\n", rec.Workload, rec.Trace, envJSON)
	for i, r := range rec.Rounds {
		fmt.Fprintf(w, "  round %2d: %5d stmts in %6.3fs, calib %8.0f ops/s\n", i+1, r.Stmts, r.WallSeconds, r.CalibOpsPerS)
	}
	if rec.Noisy {
		fmt.Fprintf(w, "  WARNING noisy: calibration bursts spread by more than %.0f%%; distrust this run's time metrics\n", noisySpread*100)
	}
	if rec.Exhausted {
		fmt.Fprintln(w, "  note: the workload's data ran out before the time budget did")
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := rec.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-38s %14.4f %-6s (%s is better)\n", d.Name, v.Value, v.Unit, d.Better)
		}
	}
	if rec.Raw != nil {
		fmt.Fprintf(w, "  raw: %.1f stmts/s, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, %.0f calib ops/s (1 cu = %.2f us)\n",
			rec.Raw["driver.raw_stmts_per_s"], rec.Raw["driver.raw_p50_ms"], rec.Raw["driver.raw_p95_ms"],
			rec.Raw["driver.raw_p99_ms"], rec.Raw["driver.calib_ops_per_s"], 1e6/rec.Raw["driver.calib_ops_per_s"])
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}
