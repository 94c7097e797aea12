package main

import (
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

// Calibration. Raw wall-clock on a shared 2-core box moves ±20 % between
// invocations of the same code, so end-to-end times are reported in
// calibration units: 1 cu is the time of one calibOp, sampled in a short
// burst before the first round of the workload and after every round; the
// run's unit is the median over those bursts. (Dividing each round by its
// own two bursts was tried and is worse: on a shared box a 250 ms burst is
// itself ±10 %, uncorrelated with the round next to it. What calibration
// buys is protection against the slow drift between invocations.) The op
// mixes the three things a statement spends time on — hashing/branching,
// sorting (memory traffic) and a loopback TCP round trip (syscalls +
// scheduler wake-ups), the latter about a fifth of the op because it is
// the noisiest part — and allocates nothing, so the database's heap size
// cannot leak into the unit through the collector.

const (
	calibLanes    = 2 // one per client, like the workload itself
	calibHashLen  = 8192
	calibSortLen  = 1024
	calibEchoLen  = 64
	calibBurstDur = 250 * time.Millisecond
)

// calibLane is one goroutine's private state: a persistent loopback TCP
// pair to an echo goroutine plus preallocated scratch.
type calibLane struct {
	conn  net.Conn
	state uint64
	hash  [calibHashLen]byte
	keys  [calibSortLen]uint64
	msg   [calibEchoLen]byte
}

// op is one calibration operation. It must stay allocation-free
// (TestCalibOpAllocFree).
func (l *calibLane) op() error {
	// xorshift refill, so the sort always sees fresh disorder.
	x := l.state
	for i := range l.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		l.keys[i] = x
	}
	l.state = x
	slices.Sort(l.keys[:])
	// FNV-1a over the scratch block, perturbed by the sort result.
	h := uint64(14695981039346656037) ^ l.keys[0]
	for i := range l.hash {
		h ^= uint64(l.hash[i])
		h *= 1099511628211
	}
	l.hash[h%calibHashLen] = byte(h)
	for i := 0; i < 8; i++ {
		l.msg[i] = byte(h >> (8 * i))
	}
	if _, err := l.conn.Write(l.msg[:]); err != nil {
		return err
	}
	_, err := io.ReadFull(l.conn, l.msg[:])
	return err
}

// calibrator owns the lanes and their echo peers.
type calibrator struct {
	ln    net.Listener
	lanes []*calibLane
	peers sync.WaitGroup
}

func newCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calib: listen: %w", err)
	}
	c := &calibrator{ln: ln}
	for i := 0; i < calibLanes; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			c.close()
			return nil, fmt.Errorf("calib: dial: %w", err)
		}
		peer, err := ln.Accept()
		if err != nil {
			conn.Close()
			c.close()
			return nil, fmt.Errorf("calib: accept: %w", err)
		}
		c.peers.Add(1)
		go func() {
			defer c.peers.Done()
			defer peer.Close()
			var buf [calibEchoLen]byte
			for {
				if _, err := io.ReadFull(peer, buf[:]); err != nil {
					return // lane closed
				}
				if _, err := peer.Write(buf[:]); err != nil {
					return
				}
			}
		}()
		c.lanes = append(c.lanes, &calibLane{conn: conn, state: 0x9E3779B97F4A7C15 + uint64(i)})
	}
	return c, nil
}

// burst runs every lane flat out for d and returns the seconds one op
// took, averaged over the lanes.
func (c *calibrator) burst(d time.Duration) (float64, error) {
	type res struct {
		perOp float64
		err   error
	}
	out := make([]res, len(c.lanes))
	var wg sync.WaitGroup
	for i, l := range c.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			ops := 0
			for {
				if err := l.op(); err != nil {
					out[i].err = err
					return
				}
				ops++
				if ops%8 == 0 && time.Since(start) >= d {
					break
				}
			}
			out[i].perOp = time.Since(start).Seconds() / float64(ops)
		}()
	}
	wg.Wait()
	sum := 0.0
	for _, r := range out {
		if r.err != nil {
			return 0, fmt.Errorf("calib: %w", r.err)
		}
		sum += r.perOp
	}
	return sum / float64(len(out)), nil
}

// close stops the echo goroutines and waits for them.
func (c *calibrator) close() {
	for _, l := range c.lanes {
		l.conn.Close()
	}
	c.ln.Close()
	c.peers.Wait()
}
