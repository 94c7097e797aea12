package bench

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// E17: the cost-based optimizer must pay strictly fewer comparisons than
// the flat heuristic on the mixed cheap/crowd predicate workload, with
// identical answers, and its forecast must match the measured spend.
func TestE17Shape(t *testing.T) {
	tab := E17CostBasedOptimizer(42)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	heuristic := cellInt(t, tab.Rows[0][1])
	costBased := cellInt(t, tab.Rows[1][1])
	if costBased >= heuristic {
		t.Errorf("cost-based must pay fewer comparisons: %d vs %d", costBased, heuristic)
	}
	if tab.Rows[0][2] != tab.Rows[1][2] {
		t.Errorf("answers must be identical: %v vs %v rows out", tab.Rows[0][2], tab.Rows[1][2])
	}
	// The spend halves or better (24 -> 8 pairs at the default workload).
	if tab.Metrics["costbased_spend_cents"] >= tab.Metrics["heuristic_spend_cents"] {
		t.Errorf("spend must drop: %v", tab.Metrics)
	}
	// Forecast accuracy: predicted == actual for both configurations on
	// this deterministic workload.
	for _, prefix := range []string{"heuristic_", "costbased_"} {
		p, a := tab.Metrics[prefix+"predicted_cents"], tab.Metrics[prefix+"actual_cents"]
		if p != a {
			t.Errorf("%s forecast must match actual: predicted %v actual %v", prefix, p, a)
		}
	}
}

// TestE1E15GoldenSeed42 pins the full rendered output of experiments
// E1–E15 at seed 42 against the PR 2 baseline: the cost-based optimizer
// may change plans, but crowd answers and crowd costs must not drift.
func TestE1E15GoldenSeed42(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	golden, err := os.ReadFile("testdata/golden_e1e15_seed42.txt")
	if err != nil {
		t.Fatal(err)
	}
	skip := map[string]bool{"E16": true, "E17": true, "E23": true, "E24": true}
	var buf bytes.Buffer
	for _, e := range All() {
		if skip[e.ID] {
			continue
		}
		e.Run(42).Fprint(&buf)
	}
	if buf.String() != string(golden) {
		t.Errorf("E1-E15 output drifted from the PR 2 baseline at seed 42:\n%s",
			firstDiff(string(golden), buf.String()))
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n golden: %s\n    got: %s", i+1, al[i], bl[i])
		}
	}
	return "length mismatch"
}
