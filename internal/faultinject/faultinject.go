// Package faultinject is a deterministic crashpoint registry for
// robustness testing. Production code marks interesting instants —
// a WAL append, a job state transition, a crowd platform call — with
// Hit("name"); when the registry is disarmed (the default) a hit is a
// single atomic load and nothing more. Tests and the CI kill-restart
// smoke arm specific points with a countdown:
//
//	faultinject.Arm("server.job.row=3")   // crash on the 3rd streamed row
//	CROWDDB_CRASHPOINTS=wal.append=10 crowddbd ...
//
// When an armed countdown reaches zero the registry fires: it enters
// the killed state and invokes the handler. The default handler exits
// the process with status 137 (the SIGKILL convention), simulating a
// hard crash; tests install a softer handler with SetHandler to cut
// durability paths in-process instead. While killed, durability layers
// that consult Killed() silently drop writes — exactly what a torn
// process would have failed to persist — so recovery code can be
// exercised without forking.
package faultinject

import (
	"fmt"
	"maps"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// EnvVar is the environment variable ArmFromEnv reads crashpoint specs
// from.
const EnvVar = "CROWDDB_CRASHPOINTS"

var (
	// active is the fast path: non-zero while any point is armed or the
	// registry is killed. Disarmed Hit calls read it and return.
	active atomic.Int32

	mu      sync.Mutex
	points  map[string]int // remaining hits before each point fires
	counts  map[string]int // hits per point while recording (nil = off)
	killed  bool
	handler func(point string)
)

// defaultHandler simulates a hard crash: exit 137, the shell's code for
// a SIGKILLed process.
func defaultHandler(point string) {
	fmt.Fprintf(os.Stderr, "faultinject: crashpoint %s fired\n", point)
	os.Exit(137)
}

// Arm installs crashpoints from a spec: comma-separated "point=N" pairs
// (fire on the N-th hit, N >= 1) or bare "point" (fire on the first).
// Arming replaces any previous spec and clears the killed state.
func Arm(spec string) error {
	parsed := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, countStr, hasCount := strings.Cut(part, "=")
		count := 1
		if hasCount {
			n, err := strconv.Atoi(countStr)
			if err != nil || n < 1 {
				return fmt.Errorf("faultinject: bad crashpoint count %q in %q", countStr, part)
			}
			count = n
		}
		if name == "" {
			return fmt.Errorf("faultinject: empty crashpoint name in %q", spec)
		}
		parsed[name] = count
	}
	mu.Lock()
	defer mu.Unlock()
	points = parsed
	counts = nil
	killed = false
	if len(parsed) > 0 {
		active.Store(1)
	} else {
		active.Store(0)
	}
	return nil
}

// ArmFromEnv arms crashpoints from $CROWDDB_CRASHPOINTS; unset or empty
// leaves the registry disarmed.
func ArmFromEnv() error {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return nil
	}
	return Arm(spec)
}

// Record starts counting hits per point with nothing armed, replacing
// any previous spec. A test runs its workload once uninterrupted, reads
// Hits, and sweeps every point at every count — so a newly added Hit is
// swept without anyone naming it.
func Record() {
	mu.Lock()
	defer mu.Unlock()
	points = nil
	counts = make(map[string]int)
	killed = false
	active.Store(1)
}

// Hits returns how often each point was hit since Record.
func Hits() map[string]int {
	mu.Lock()
	defer mu.Unlock()
	return maps.Clone(counts)
}

// Disarm clears every crashpoint, the killed state, the hit counts, and
// any installed handler.
func Disarm() {
	mu.Lock()
	defer mu.Unlock()
	points = nil
	counts = nil
	killed = false
	handler = nil
	active.Store(0)
}

// Armed reports whether any crashpoint is installed and not yet fired.
func Armed() bool {
	if active.Load() == 0 {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	return len(points) > 0
}

// Killed reports whether a crashpoint has fired. Durability layers use
// it to drop writes after the simulated crash instant.
func Killed() bool {
	if active.Load() == 0 {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	return killed
}

// SetHandler replaces the process-exit default with fn for in-process
// crash simulation (the registry still enters the killed state before
// fn runs). A nil fn restores the default.
func SetHandler(fn func(point string)) {
	mu.Lock()
	defer mu.Unlock()
	handler = fn
}

// Hit marks one pass through a named crashpoint. Disarmed, it is a
// single atomic load. Recording, it counts the pass. Armed, it decrements
// the point's countdown and — on zero — marks the registry killed and
// invokes the handler (which by default never returns).
func Hit(point string) {
	if active.Load() == 0 {
		return
	}
	mu.Lock()
	if counts != nil {
		counts[point]++
	}
	if killed {
		mu.Unlock()
		return
	}
	n, ok := points[point]
	if !ok {
		mu.Unlock()
		return
	}
	if n > 1 {
		points[point] = n - 1
		mu.Unlock()
		return
	}
	delete(points, point)
	killed = true
	fn := handler
	mu.Unlock()
	if fn == nil {
		fn = defaultHandler
	}
	fn(point)
}
