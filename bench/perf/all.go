package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// hotSpendLimit is the most crowd_hot may spend per statement, as a share
// of crowd_cold's spend: the replayed statements must come from the cache
// and the store, not from the crowd.
const hotSpendLimit = 0.02

// runAll runs every workload untraced (runs times, on consecutive seeds)
// and traced (once), prints both metric tables, applies the correctness
// gates and writes the result file -compare reads.
func runAll(ctx context.Context, env envStanza, opts runOpts, runs int, outPath string, stdout, stderr io.Writer) int {
	file := resultFile{Env: env}
	for _, name := range workloadNames {
		for i := 0; i < runs; i++ {
			o := opts
			o.seed += int64(i)
			rec, err := runUntraced(ctx, name, o)
			if err != nil {
				fmt.Fprintf(stderr, "perf: %s: %v\n", name, err)
				return 1
			}
			fmt.Fprintf(stdout, "%-14s untraced seed %d: %d statements, %d failed%s\n",
				name, o.seed, rec.Attempted, rec.Failed, noisyNote(rec))
			file.Runs = append(file.Runs, *rec)
		}
		rec, err := runTraced(ctx, name, opts)
		if err != nil {
			fmt.Fprintf(stderr, "perf: %s (traced): %v\n", name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%-14s traced   seed %d: %d statements, %d failed%s\n",
			name, opts.seed, rec.Attempted, rec.Failed, noisyNote(rec))
		file.Runs = append(file.Runs, *rec)
	}
	printTable(stdout, "End-to-end metrics (untraced, 2 clients; median over runs)", endToEnd, file.Runs, false)
	printTable(stdout, "Per-layer metrics (traced run)", perLayer, file.Runs, true)

	problems := gate(file.Runs)
	for _, p := range problems {
		fmt.Fprintln(stdout, "GATE FAILED:", p)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(outPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresult file: %s (span logs: %s/trace-<workload>.jsonl)\n", outPath, outDir)
	if len(problems) > 0 {
		return 1
	}
	return 0
}

func noisyNote(rec *runRecord) string {
	if rec.Noisy {
		return " (noisy: calibration bursts disagree, distrust the time metrics)"
	}
	return ""
}

// gate applies the benchmark's own pass/fail rules to a set of runs.
func gate(runs []runRecord) []string {
	var problems []string
	cents := make(map[string][]float64)
	for _, r := range runs {
		if r.Failed > 0 {
			problems = append(problems, fmt.Sprintf("%s: %d of %d statements failed or returned a wrong result", r.Workload, r.Failed, r.Attempted))
		}
		for _, p := range r.Problems {
			problems = append(problems, r.Workload+": "+p)
		}
		if !r.Trace {
			cents[r.Workload] = append(cents[r.Workload], r.CentsPerStmt)
		}
	}
	if cold, hot := cents["crowd_cold"], cents["crowd_hot"]; len(cold) > 0 && len(hot) > 0 {
		if limit := hotSpendLimit * median(cold); median(hot) > limit {
			problems = append(problems, fmt.Sprintf("crowd_hot spends %.4f cents/stmt, more than %.0f%% of crowd_cold's %.4f",
				median(hot), hotSpendLimit*100, median(cold)))
		}
	}
	return problems
}

// printTable prints one row per metric and one column per workload.
func printTable(w io.Writer, title string, defs []metricDef, runs []runRecord, traced bool) {
	fmt.Fprintf(w, "\n%s\n", title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\tbetter\t")
	for _, name := range workloadNames {
		fmt.Fprintf(tw, "%s\t", name)
	}
	fmt.Fprintln(tw)
	for _, d := range defs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t", d.Name, d.Unit, d.Better)
		for _, name := range workloadNames {
			var vals []float64
			for _, r := range runs {
				if v, ok := r.Metrics[d.Name]; ok && r.Workload == name && r.Trace == traced {
					vals = append(vals, v.Value)
				}
			}
			if len(vals) == 0 {
				fmt.Fprint(tw, "-\t")
				continue
			}
			fmt.Fprintf(tw, "%.4g\t", median(vals))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
