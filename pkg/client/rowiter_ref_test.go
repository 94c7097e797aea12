package client

import (
	"bufio"
	"bytes"
	"context"
	"io"
)

// refRowIter is the stream reader as it was before rows were decoded in
// batches from pooled stream state: one line per Scan, one decodeRow per
// row. It is kept verbatim but for its names, and for the scan buffer
// its constructor takes (nil is the old iterator's own), as the
// reference the iterator is held to.
type refRowIter struct {
	job  *Job
	body io.ReadCloser
	sc   *bufio.Scanner
	// ctx and stop are set when the iterator reads under a context other
	// than its request's (Job.take): stop detaches the watcher that
	// closes body when ctx fires.
	ctx   context.Context
	stop  func() bool
	cur   Row
	err   error
	final *JobStatus
	done  bool
}

func newRefRowIter(job *Job, body io.ReadCloser, buf []byte) *refRowIter {
	sc := bufio.NewScanner(body)
	sc.Buffer(buf, maxLine)
	return &refRowIter{job: job, body: body, sc: sc}
}

// Next advances to the next row, blocking until the server streams one
// (or the job ends). It returns false at the end of the stream.
func (it *refRowIter) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	for it.sc.Scan() {
		line := bytes.TrimSpace(it.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if line[0] == '[' {
			row, err := refDecodeRow(line)
			if err != nil {
				it.err = err
				return false
			}
			it.cur = row
			return true
		}
		// Trailer object: the terminal job resource.
		var st JobStatus
		if err := decodeStatus(line, &st); err != nil {
			it.err = err
			return false
		}
		it.final, it.done = &st, true
		if st.ID == it.job.id {
			it.job.mu.Lock()
			it.job.final = &st
			it.job.mu.Unlock()
		}
		// Nothing follows the trailer; reading the end of the body is what
		// returns the connection to the pool.
		for it.sc.Scan() {
		}
		return false
	}
	it.err = it.sc.Err()
	if it.ctx != nil && it.ctx.Err() != nil {
		it.err = it.ctx.Err()
	}
	it.done = true
	return false
}

// Row returns the current row (valid after a true Next).
func (it *refRowIter) Row() Row { return it.cur }

// Err reports a stream/transport error (nil on a clean end).
func (it *refRowIter) Err() error { return it.err }

// FinalState returns the job's terminal state from the stream trailer
// ("" when the stream ended without one).
func (it *refRowIter) FinalState() string {
	if it.final == nil {
		return ""
	}
	return it.final.State
}

// FinalError returns the job's coded error from the trailer, if any.
func (it *refRowIter) FinalError() *Error {
	if it.final == nil {
		return nil
	}
	return it.final.Error
}

// Close releases the stream.
func (it *refRowIter) Close() error {
	if it.stop != nil {
		it.stop()
	}
	return it.body.Close()
}

// refDecodeRow decodes a row line: an array of strings and nulls.
func refDecodeRow(line []byte) (Row, error) {
	s := scanner{b: line}
	s.ws()
	if null, err := s.null(); null || err != nil {
		return nil, firstErr(err, s.end())
	}
	// The cells' bytes go back to back into one string, and every cell
	// is a slice of it: three allocations a row, whatever its width.
	type cell struct {
		end  int
		null bool
	}
	var text [256]byte
	cells, all := make([]cell, 0, 16), text[:0]
	err := s.array(1, func() error {
		null, err := s.null()
		if err == nil && !null {
			var v []byte
			v, err = s.str()
			all = append(all, v...)
		}
		cells = append(cells, cell{len(all), null})
		return err
	})
	if err = firstErr(err, s.end()); err != nil {
		return nil, err
	}
	joined := string(all)
	vals, row := make([]string, len(cells)), make(Row, len(cells))
	start := 0
	for i, c := range cells {
		if !c.null {
			vals[i], row[i] = joined[start:c.end], &vals[i]
			start = c.end
		}
	}
	return row, nil
}
