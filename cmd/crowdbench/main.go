// Command crowdbench regenerates the paper's evaluation exhibits (the
// index is internal/bench/registry.go, printed by -list; the README's
// benchmark-regression section covers the seed-42 baselines in
// bench/baselines). Each experiment prints the series the corresponding
// figure or table reports.
//
// Usage:
//
//	crowdbench                 # run every experiment
//	crowdbench -run E6,E10     # run selected experiments
//	crowdbench -seed 7         # change the simulation seed
//	crowdbench -list           # list experiments
//	crowdbench -json out/      # also write BENCH_<id>.json per experiment
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"crowddb/internal/bench"
)

func writeJSON(dir string, seed int64, t *bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(bench.BenchFile{
		ID: t.ID, Title: t.Title, Exhibit: t.Exhibit, Seed: seed,
		Headers: t.Headers, Rows: t.Rows, Notes: t.Notes, Metrics: t.Metrics,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+t.ID+".json"), append(data, '\n'), 0o644)
}

func main() {
	seed := flag.Int64("seed", 42, "simulation seed (all experiments are deterministic per seed)")
	run := flag.String("run", "", "comma-separated experiment IDs (e.g. E1,E6); empty = all")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonDir := flag.String("json", "", "directory for machine-readable BENCH_<id>.json results (empty = disabled)")
	flag.Parse()

	experiments := bench.All()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return
	}
	want := map[string]bool{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	ran := 0
	for _, e := range experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		tab := e.Run(*seed)
		tab.Fprint(os.Stdout)
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, *seed, tab); err != nil {
				fmt.Fprintf(os.Stderr, "crowdbench: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "crowdbench: no experiment matches %q (use -list)\n", *run)
		os.Exit(1)
	}
}
