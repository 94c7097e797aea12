package plan

import (
	"math"
	"strconv"
)

// Cost is the optimizer's crowd cost prediction for a (sub)plan (paper
// §3.2.2: crowd queries must be planned against monetary cost AND human
// latency, not tuple counts alone). Cents is the expected crowd spend,
// Seconds the expected crowd-side latency (virtual time the query waits
// on people), Rows the predicted output cardinality. MachineSeconds is
// the machine-side scan time after dividing by the storage engine's
// effective scan parallelism (shards × cores) — microscopic next to any
// crowd round-trip, but it makes EXPLAIN and plan ranking reflect the
// real hardware.
type Cost struct {
	Cents          float64
	Seconds        float64
	Rows           float64
	MachineSeconds float64
}

// Plus accumulates the crowd and machine dimensions of another cost
// (Rows is a per-node property and is NOT summed; the caller sets it
// explicitly).
func (c Cost) Plus(o Cost) Cost {
	c.Cents += o.Cents
	c.Seconds += o.Seconds
	c.MachineSeconds += o.MachineSeconds
	return c
}

// IsUnbounded reports whether the prediction diverged (an unbounded crowd
// access: infinitely many tuples, infinite spend).
func (c Cost) IsUnbounded() bool {
	return math.IsInf(c.Cents, 1) || math.IsInf(c.Rows, 1)
}

// String renders the crowd dimensions compactly for EXPLAIN:
// "¢36.0 ~30m". A costless node renders as "¢0". Machine time is shown
// only once it is human-noticeable (≥ 1ms) — crowd dimensions dominate
// every real plan, and sub-millisecond noise would only clutter EXPLAIN.
func (c Cost) String() string {
	var buf [64]byte
	b, _ := c.AppendText(buf[:0])
	return string(b)
}

// AppendText appends the text String returns to b.
func (c Cost) AppendText(b []byte) ([]byte, error) {
	if c.IsUnbounded() {
		return append(b, "¢∞"...), nil
	}
	b = append(b, "¢"...)
	if c.Cents == 0 && c.Seconds == 0 {
		b = append(b, '0')
	} else {
		b = strconv.AppendFloat(b, c.Cents, 'f', 1, 64)
		b = append(b, " ~"...)
		b = appendSeconds(b, c.Seconds)
	}
	if c.MachineSeconds >= 0.001 {
		b = append(b, " cpu:"...)
		b = appendMachineSeconds(b, c.MachineSeconds)
	}
	return b, nil
}

// appendMachineSeconds renders machine scan time in milliseconds, or in
// seconds once it rounds to 1000ms or more.
func appendMachineSeconds(b []byte, s float64) []byte {
	if ms := s * 1000; math.RoundToEven(ms) < 1000 {
		return append(strconv.AppendFloat(b, ms, 'f', 0, 64), "ms"...)
	}
	return append(strconv.AppendFloat(b, s, 'f', 1, 64), 's')
}

// appendSeconds renders a duration prediction in seconds as seconds,
// minutes or hours (crowd latencies are human-scale). The unit is the one
// the rounded value falls in: 7170s is "2.0h", not "120m".
func appendSeconds(b []byte, s float64) []byte {
	switch {
	case math.RoundToEven(s) < 90:
		return append(strconv.AppendFloat(b, s, 'f', 0, 64), 's')
	case math.RoundToEven(s/60) < 120:
		return append(strconv.AppendFloat(b, s/60, 'f', 0, 64), 'm')
	default:
		return append(strconv.AppendFloat(b, s/3600, 'f', 1, 64), 'h')
	}
}
