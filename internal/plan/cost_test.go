package plan

import (
	"math"
	"testing"
)

// TestCostString pins Cost's rendering, including the unit a value lands
// in once rounded: a value that rounds to the next unit's threshold is
// shown in that unit.
func TestCostString(t *testing.T) {
	for _, tc := range []struct {
		c    Cost
		want string
	}{
		{Cost{}, "¢0"},
		{Cost{MachineSeconds: 0.0009}, "¢0"},
		{Cost{MachineSeconds: 0.01}, "¢0 cpu:10ms"},
		{Cost{MachineSeconds: 0.9994}, "¢0 cpu:999ms"},
		{Cost{MachineSeconds: 0.9995}, "¢0 cpu:1.0s"},
		{Cost{MachineSeconds: 2.26}, "¢0 cpu:2.3s"},
		{Cost{Cents: 36, Seconds: 1800}, "¢36.0 ~30m"},
		{Cost{Cents: 0.25, Seconds: 12.4}, "¢0.2 ~12s"},
		{Cost{Cents: 1, Seconds: 89.4}, "¢1.0 ~89s"},
		{Cost{Cents: 1, Seconds: 89.6}, "¢1.0 ~1m"},
		{Cost{Cents: 1, Seconds: 7169}, "¢1.0 ~119m"},
		{Cost{Cents: 1, Seconds: 7170}, "¢1.0 ~2.0h"},
		{Cost{Cents: 60, Seconds: 9000, MachineSeconds: 0.003}, "¢60.0 ~2.5h cpu:3ms"},
		{Cost{Cents: math.Inf(1)}, "¢∞"},
		{Cost{Rows: math.Inf(1)}, "¢∞"},
	} {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.c, got, tc.want)
		}
	}
}
