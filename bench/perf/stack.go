package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/server"
	"crowddb/internal/storage"
	"crowddb/internal/taskmgr"
	"crowddb/internal/wrm"
	"crowddb/pkg/client"
)

// benchShards pins the storage fan-out so the numbers do not depend on
// how many CPUs the host reports.
const benchShards = 2

// engineConfig is the daemon's default configuration (cmd/crowddbd with
// no flags but -data/-shards): simulated AMT, default payment policy and
// task configuration, group-commit WAL, default batch size, tracing on.
// dir == "" keeps the store in memory.
func engineConfig(seed int64, dir string, oracle taskmgr.Oracle) core.Config {
	return core.Config{
		DataDir:  dir,
		Shards:   benchShards,
		WALSync:  storage.SyncGroup,
		Platform: amt.NewDefault(seed),
		Oracle:   oracle,
		Tasks:    taskmgr.DefaultConfig(),
		Payment:  wrm.DefaultPolicy(),
	}
}

// stack is the real system under test, assembled in-process the way
// cmd/crowddbd assembles it: engine → jobs server → HTTP handler on a
// loopback listener.
type stack struct {
	eng  *core.Engine
	srv  *server.Server
	hs   *http.Server
	done chan struct{} // closed when hs.Serve returns
	url  string
	dir  string // data dir ("" = in-memory)
	wire wireCounters
	idle []*http.Transport // client transports to release on close
}

// wireCounters is what the clients' transports saw on the loopback.
type wireCounters struct {
	requests atomic.Int64
	dials    atomic.Int64
	bytes    atomic.Int64 // both directions, headers included
}

// wireTotals is a reading of wireCounters.
type wireTotals struct{ requests, dials, bytes int64 }

func (w *wireCounters) load() wireTotals {
	return wireTotals{w.requests.Load(), w.dials.Load(), w.bytes.Load()}
}

func (t wireTotals) minus(o wireTotals) wireTotals {
	return wireTotals{t.requests - o.requests, t.dials - o.dials, t.bytes - o.bytes}
}

func bootStack(seed int64, dir string, oracle taskmgr.Oracle) (*stack, error) {
	eng, err := core.Open(engineConfig(seed, dir, oracle))
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	srv := server.New(eng, server.Config{})
	if dir != "" {
		if err := srv.EnableJournal(filepath.Join(dir, "jobs.log"), storage.SyncGroup); err != nil {
			eng.Close()
			return nil, fmt.Errorf("boot: jobs journal: %w", err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("boot: listen: %w", err)
	}
	s := &stack{
		eng:  eng,
		srv:  srv,
		hs:   &http.Server{Handler: srv.HTTPHandler()},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
		dir:  dir,
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after close()
	}()
	return s, nil
}

// countConn counts the bytes crossing one client connection.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countingRT counts requests in front of a transport.
type countingRT struct {
	next http.RoundTripper
	n    *atomic.Int64
}

func (rt countingRT) RoundTrip(r *http.Request) (*http.Response, error) {
	rt.n.Add(1)
	return rt.next.RoundTrip(r)
}

// newClient returns an SDK client with its own connection pool, so two
// clients are two independent users. Requests, dials and wire bytes are
// counted from outside the SDK, through WithHTTPClient.
func (s *stack) newClient() *client.Client {
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			s.wire.dials.Add(1)
			return countConn{Conn: conn, n: &s.wire.bytes}, nil
		},
	}
	s.idle = append(s.idle, tr)
	hc := &http.Client{Transport: countingRT{next: tr, n: &s.wire.requests}}
	return client.New(s.url, client.WithHTTPClient(hc))
}

// close drains the server, stops the listener and closes the engine.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	for _, tr := range s.idle {
		tr.CloseIdleConnections()
	}
	if cerr := s.hs.Close(); err == nil {
		err = cerr
	}
	<-s.done
	if cerr := s.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// logBytes sums the on-disk size of the shard WALs and the jobs journal.
func (s *stack) logBytes() (wal, journal int64) {
	if s.dir == "" {
		return 0, 0
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || e.IsDir() {
			continue
		}
		switch {
		case e.Name() == "jobs.log":
			journal += info.Size()
		case strings.HasPrefix(e.Name(), "wal"):
			wal += info.Size()
		}
	}
	return wal, journal
}

// promSample is one scrape of GET /metrics: series (name plus rendered
// labels) → value.
type promSample map[string]float64

// scrape reads the daemon's own /metrics endpoint (ROADMAP aim 4: the
// harness reads the product's telemetry, it keeps no private counters
// inside the product).
func (s *stack) scrape() (promSample, error) {
	resp, err := http.Get(s.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: HTTP %d", resp.StatusCode)
	}
	out := make(promSample)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the family name, whatever its labels.
func (p promSample) sum(name string) float64 {
	total := 0.0
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// delta is after.sum − before.sum for one family.
func delta(before, after promSample, name string) float64 {
	return after.sum(name) - before.sum(name)
}
