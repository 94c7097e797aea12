package bench

// Benchmark-regression comparison: the logic behind cmd/benchdiff and the
// CI gate. Baselines are the BENCH_<id>.json files crowdbench -json
// writes, committed under bench/baselines/; a candidate run at the same
// seed is compared metric by metric.
//
// Rules (the documented tolerance):
//
//   - Metrics are classified by key: cost-like metrics (comparisons,
//     spend, cents, minutes, makespan, HITs, error rates) must not rise,
//     benefit-like metrics (hit_rate, speedup, ops_per*, queries,
//     correct) must not fall.
//   - The allowance per metric is max(tolerance × baseline, slack): the
//     relative tolerance absorbs proportional drift on large numbers,
//     the absolute slack keeps single-digit metrics (e.g. 8 paid
//     comparisons) from failing on a ±1 wobble.
//   - A missing candidate experiment or metric, a seed mismatch, or a
//     row-count change is a hard failure; new metrics and textual cell
//     changes are reported as notes.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// BenchFile is the BENCH_<id>.json shape crowdbench -json writes: the
// full result table plus the experiment's headline metrics.
type BenchFile struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Exhibit string             `json:"exhibit"`
	Seed    int64              `json:"seed"`
	Headers []string           `json:"headers"`
	Rows    [][]string         `json:"rows"`
	Notes   []string           `json:"notes,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// DiffResult is the outcome of comparing a candidate run to a baseline.
type DiffResult struct {
	// Failures are regressions beyond tolerance; a non-empty list fails
	// the gate.
	Failures []string
	// Notes are informational differences (new metrics, cell changes).
	Notes []string
	// Compared counts experiments matched against a baseline.
	Compared int
}

// OK reports whether the candidate passed the gate.
func (d *DiffResult) OK() bool { return len(d.Failures) == 0 }

// Report renders the outcome for CI logs.
func (d *DiffResult) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "benchdiff: %d experiments compared\n", d.Compared)
	for _, n := range d.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	for _, f := range d.Failures {
		fmt.Fprintf(&sb, "FAIL: %s\n", f)
	}
	if d.OK() {
		sb.WriteString("benchdiff: no regressions\n")
	}
	return sb.String()
}

// lowerIsBetter / higherIsBetter classify metric keys by substring.
var (
	lowerIsBetter  = []string{"comparison", "spend", "cents", "minutes", "makespan", "hits_posted", "err", "tasks", "groups"}
	higherIsBetter = []string{"hit_rate", "speedup", "ops_per", "queries", "correct", "rows_out"}
)

func classify(key string) int { // -1 lower-better, +1 higher-better, 0 info
	k := strings.ToLower(key)
	// Forecast metrics are informational: a predicted_* value may
	// legitimately rise when the model becomes MORE accurate, so gating
	// it directionally would punish accuracy fixes.
	if strings.Contains(k, "predicted") {
		return 0
	}
	// "err" must not shadow benefit keys that merely contain it.
	for _, s := range higherIsBetter {
		if strings.Contains(k, s) {
			return 1
		}
	}
	for _, s := range lowerIsBetter {
		if strings.Contains(k, s) {
			return -1
		}
	}
	return 0
}

// LoadBenchDir reads every BENCH_*.json in dir, keyed by experiment ID.
func LoadBenchDir(dir string) (map[string]*BenchFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]*BenchFile, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var bf BenchFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if bf.ID == "" {
			return nil, fmt.Errorf("%s: missing experiment id", p)
		}
		out[bf.ID] = &bf
	}
	return out, nil
}

// Compare applies the regression rules to one experiment.
func Compare(base, cand *BenchFile, tol, slack float64, res *DiffResult) {
	id := base.ID
	if cand == nil {
		res.Failures = append(res.Failures, fmt.Sprintf("%s: missing from candidate run", id))
		return
	}
	res.Compared++
	if base.Seed != cand.Seed {
		res.Failures = append(res.Failures,
			fmt.Sprintf("%s: seed mismatch (baseline %d, candidate %d)", id, base.Seed, cand.Seed))
		return
	}
	if len(base.Rows) != len(cand.Rows) {
		res.Failures = append(res.Failures,
			fmt.Sprintf("%s: row count changed %d -> %d", id, len(base.Rows), len(cand.Rows)))
	} else {
		changed := 0
		for i := range base.Rows {
			if strings.Join(base.Rows[i], "|") != strings.Join(cand.Rows[i], "|") {
				changed++
			}
		}
		if changed > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: %d result rows changed textually", id, changed))
		}
	}
	keys := make([]string, 0, len(base.Metrics))
	for k := range base.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		bv := base.Metrics[k]
		cv, ok := cand.Metrics[k]
		if !ok {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: metric %s missing from candidate", id, k))
			continue
		}
		allowance := tol * math.Abs(bv)
		if allowance < slack {
			allowance = slack
		}
		switch classify(k) {
		case -1:
			if cv > bv+allowance {
				res.Failures = append(res.Failures,
					fmt.Sprintf("%s: %s regressed %.3f -> %.3f (allowed <= %.3f)", id, k, bv, cv, bv+allowance))
			}
		case 1:
			if cv < bv-allowance {
				res.Failures = append(res.Failures,
					fmt.Sprintf("%s: %s regressed %.3f -> %.3f (allowed >= %.3f)", id, k, bv, cv, bv-allowance))
			}
		}
	}
	for k := range cand.Metrics {
		if _, ok := base.Metrics[k]; !ok {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: new metric %s (no baseline; commit updated baselines)", id, k))
		}
	}
}

// CompareDirs runs the gate over two BENCH_*.json directories.
func CompareDirs(baselineDir, candidateDir string, tol, slack float64) (*DiffResult, error) {
	base, err := LoadBenchDir(baselineDir)
	if err != nil {
		return nil, err
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("benchdiff: no BENCH_*.json baselines in %s", baselineDir)
	}
	cand, err := LoadBenchDir(candidateDir)
	if err != nil {
		return nil, err
	}
	res := &DiffResult{}
	ids := make([]string, 0, len(base))
	for id := range base {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		Compare(base[id], cand[id], tol, slack, res)
	}
	for id := range cand {
		if _, ok := base[id]; !ok {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: new experiment (no baseline; commit one)", id))
		}
	}
	return res, nil
}
