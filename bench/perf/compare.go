package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkJSON is the part of the root BENCHMARK.json -compare needs.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// findBenchmarkJSON walks up from the working directory.
func findBenchmarkJSON() (*benchmarkJSON, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var b benchmarkJSON
			if err := json.Unmarshal(data, &b); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &b, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// verdict compares the untraced values of one metric on one workload.
// change is (B−A)/A; it is "worse" when B's median is worse than A's by
// more than bound, "unresolved" when A's own run-to-run spread is wider
// than the bound (unless every B run beats every A run), "ok" otherwise.
func verdict(a, b []float64, better string, bound float64) (change float64, status string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	worse := change
	if better == "higher" {
		worse = -change
	}
	if len(a) >= 2 && spreadShare(a) > bound {
		separated := true
		for _, x := range a {
			for _, y := range b {
				if (better == "lower" && y >= x) || (better == "higher" && y <= x) {
					separated = false
				}
			}
		}
		if !separated {
			return change, "unresolved"
		}
		return change, "ok"
	}
	if worse > bound {
		return change, "worse"
	}
	return change, "ok"
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative change with its base, and the verdict against the bound
// in BENCHMARK.json. It returns 1 when any pairing is worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	bench, err := findBenchmarkJSON()
	var a, b *resultFile
	if err == nil {
		a, err = readResult(pathA)
	}
	if err == nil {
		b, err = readResult(pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 2
	}
	values := func(f *resultFile, workload, metric string) []float64 {
		var out []float64
		for _, r := range f.Runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				out = append(out, v.Value)
			}
		}
		return out
	}
	fmt.Fprintf(stdout, "A = %s (commit %s, seed %d)\nB = %s (commit %s, seed %d)\n",
		pathA, a.Env.Commit, a.Env.Seed, pathB, b.Env.Commit, b.Env.Seed)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tchange (base A)\tbound\tverdict")
	counts := map[string]int{}
	for _, w := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.0f%%\tmissing\n", w.Name, m.Name, m.Bound*100)
				counts["missing"]++
				continue
			}
			change, status := verdict(va, vb, m.Better, m.Bound)
			counts[status]++
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.2f%% of %.4g %s\t%.0f%%\t%s\n",
				w.Name, m.Name, median(va), median(vb), change*100, median(va), m.Unit, m.Bound*100, status)
		}
	}
	tw.Flush()
	fmt.Fprintf(stdout, "ok %d, worse %d, unresolved %d, missing %d\n",
		counts["ok"], counts["worse"], counts["unresolved"], counts["missing"])
	if counts["worse"] > 0 || counts["missing"] > 0 {
		return 1
	}
	return 0
}
