package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"crowddb/internal/crowd"
)

var smokeSizes = sizes{div: 50, seconds: refSeconds}

// streamOf renders the first rounds of every client's stream and counts
// statements per class.
func streamOf(t *testing.T, name string, seed int64) (string, []int) {
	t.Helper()
	w, err := newWorkload(name, seed, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	classes := make([]int, len(w.classes()))
	for c := 0; c < numClients; c++ {
		for r := 0; r < 3; r++ {
			for _, st := range w.round(c, r) {
				sb.WriteString(st.sql)
				sb.WriteByte('\n')
				classes[st.class]++
			}
		}
	}
	return sb.String(), classes
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		a, classesA := streamOf(t, name, 7)
		b, _ := streamOf(t, name, 7)
		if a != b {
			t.Errorf("%s: same seed produced different statement streams", name)
		}
		c, classesC := streamOf(t, name, 8)
		if a == c {
			t.Errorf("%s: a different seed produced the same statement order", name)
		}
		for i := range classesA {
			if classesA[i] != classesC[i] {
				t.Errorf("%s: class mix differs between seeds: %v vs %v", name, classesA, classesC)
				break
			}
		}
		if len(a) == 0 {
			t.Errorf("%s: empty stream", name)
		}
	}
}

func TestSetupScriptsAreSeedIndependent(t *testing.T) {
	for _, name := range workloadNames {
		w1, _ := newWorkload(name, 1, smokeSizes)
		w2, _ := newWorkload(name, 2, smokeSizes)
		if strings.Join(w1.preload(), ";") != strings.Join(w2.preload(), ";") {
			t.Errorf("%s: preloaded rows depend on the seed; count metrics would not be comparable across seeds", name)
		}
	}
}

func TestCalibOpAllocFree(t *testing.T) {
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer cal.close()
	lane := cal.lanes[0]
	if allocs := testing.AllocsPerRun(200, func() {
		if err := lane.op(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("calibration op allocates %.1f times per run; the unit would depend on heap size", allocs)
	}
	per, err := cal.burst(smokeSizes.burst())
	if err != nil || per <= 0 {
		t.Fatalf("burst: %v seconds per op, err %v", per, err)
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 4, 3, 2, 5, 7, 6, 9, 8} // 1..10
	sorted := sortedCopy(xs)
	if xs[0] != 10 {
		t.Fatal("sortedCopy modified its input")
	}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {0.5, 5.5}, {0.95, 9.55}, {1, 10}} {
		if got := percentile(sorted, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spreadShare(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestOracleIsConsistent(t *testing.T) {
	var o benchOracle
	answer := func(kind crowd.TaskKind, l, r string) string {
		return o.CompareTruth(kind, "q", l, r).Truth["answer"]
	}
	for g := 0; g < 50; g++ {
		for j := 0; j < pairsPerGroup; j++ {
			a, b := pairStrings(g, j)
			want := "no"
			if pairSame(g, j) {
				want = "yes"
			}
			if answer(crowd.TaskCompareEqual, a, b) != want || answer(crowd.TaskCompareEqual, b, a) != want {
				t.Fatalf("CROWDEQUAL truth for (%q, %q) is not symmetric or not %s", a, b, want)
			}
		}
		for i := 0; i < itemsPerGroup; i++ {
			for j := i + 1; j < itemsPerGroup; j++ {
				l, r := itemName(g, i), itemName(g, j)
				if w1, w2 := answer(crowd.TaskCompareOrder, l, r), answer(crowd.TaskCompareOrder, r, l); w1 != w2 || (w1 != l && w1 != r) {
					t.Fatalf("CROWDORDER truth for (%q, %q) is not antisymmetric: %q vs %q", l, r, w1, w2)
				}
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"within bound", []float64{100, 101, 99}, []float64{104, 105, 103}, "lower", 0.10, "ok"},
		{"regressed latency", []float64{100, 101, 99}, []float64{120, 121, 119}, "lower", 0.10, "worse"},
		{"improved latency", []float64{100, 101, 99}, []float64{50, 51, 49}, "lower", 0.10, "ok"},
		{"regressed throughput", []float64{100, 101, 99}, []float64{80, 81, 79}, "higher", 0.10, "worse"},
		{"spread wider than bound", []float64{80, 100, 120, 140}, []float64{90, 100, 110, 120}, "lower", 0.10, "unresolved"},
		{"noisy but separated", []float64{80, 100, 120, 140}, []float64{10, 20, 30, 40}, "lower", 0.10, "ok"},
		{"single runs", []float64{100}, []float64{111}, "lower", 0.10, "worse"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps the contract file and the program
// in step: same workloads, same metric names, units and directions.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bench, err := findBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(workloadNames))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d: %q (why %q), want %q with a reason", i, w.Name, w.Why, workloadNames[i])
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d in the program", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range bench.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d in the program", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range bench.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload at 1/50 size in both modes through the
// same entry point the contract uses and checks the result line: every
// named metric present, finite and carrying its unit, nothing failed.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil { // out/ lands in the temp dir
		t.Fatal(err)
	}
	defer os.Chdir(old) //nolint:errcheck // best effort on the way out
	for _, name := range workloadNames {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-smoke", "--workload", name, "--seed", "3", "--seconds", "10", "--trace", strconv.Itoa(trace)}
			if code := realMain(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool      `json:"correct"`
				Attempted int       `json:"attempted"`
				Failed    int       `json:"failed"`
				Metrics   metricSet `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result object: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v)", name, trace, d.Name, v, ok)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; relative bounds need it positive", name, d.Name, v.Value)
				}
			}
		}
		if _, err := os.Stat("out/trace-" + name + ".jsonl"); err != nil {
			t.Errorf("%s: span log missing: %v", name, err)
		}
	}
}

// TestGate checks the all-workloads run's pass/fail rules.
func TestGate(t *testing.T) {
	ok := []runRecord{
		{Workload: "crowd_cold", CentsPerStmt: 30},
		{Workload: "crowd_hot", CentsPerStmt: 0.1},
	}
	if p := gate(ok); len(p) != 0 {
		t.Errorf("clean runs gated: %v", p)
	}
	bad := []runRecord{
		{Workload: "crowd_cold", CentsPerStmt: 30},
		{Workload: "crowd_hot", CentsPerStmt: 3},
		{Workload: "durable_write", Attempted: 10, Failed: 1, Problems: []string{"row 7 resurrected after reopen"}},
	}
	if p := gate(bad); len(p) != 3 {
		t.Errorf("want 3 gate failures (hot spend, failed statements, reopen check), got %v", p)
	}
}
