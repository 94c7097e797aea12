package client

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// fullBufferRowIter is the reference the stream reader is compared with:
// the same iterator over a scanner that owns a whole maxLine buffer from
// the start, so it never grows one.
func fullBufferRowIter(job *Job, body io.ReadCloser) *RowIter {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, maxLine), maxLine)
	return &RowIter{job: job, body: body, sc: sc}
}

// chunked hands its bytes out at most n at a time, so lines straddle
// reads the way they straddle TCP segments.
type chunked struct {
	data []byte
	n    int
}

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), c.n, len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// streamed is everything a caller can observe of one response body.
type streamed struct {
	rows     []Row
	state    string
	jobErr   *Error
	err      string
	terminal *JobStatus
}

func readStream(t *testing.T, open func(*Job, io.ReadCloser) *RowIter, body io.Reader) streamed {
	t.Helper()
	job := &Job{id: "j1"}
	it := open(job, io.NopCloser(body))
	var out streamed
	for it.Next() {
		if it.Err() != nil {
			t.Fatalf("Next returned a row after the error %v", it.Err())
		}
		out.rows = append(out.rows, it.Row())
	}
	if it.Next() {
		t.Fatal("Next returned a row after the end of the stream")
	}
	if err := it.Err(); err != nil {
		out.err = err.Error()
		if it.FinalState() != "" {
			t.Fatalf("stream failed with %v and still reports the trailer %q", err, it.FinalState())
		}
	}
	out.state, out.jobErr, out.terminal = it.FinalState(), it.FinalError(), job.terminal()
	return out
}

// FuzzRowIter feeds arbitrary bytes as a response body to the stream
// reader, a few bytes per read, and to the full-buffer reference in one
// piece: rows, trailer, the resource left on the handle and the error
// must be the same, nothing follows an error, and nothing panics.
func FuzzRowIter(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzRowIter) holds the small
	// shapes; lines at the limit are generated.
	row := func(n int) string { return `["` + strings.Repeat("x", n-4) + `"]` }
	f.Add([]byte(row(maxLine-1)+"\n"+`["after"]`+"\n"), uint16(4096))
	f.Add([]byte(`["before"]`+"\n"+row(maxLine)+"\n"+`["after"]`+"\n"), uint16(6))
	f.Add([]byte(row(maxLine+1)), uint16(65535))
	f.Fuzz(func(t *testing.T, body []byte, chunk uint16) {
		// At most 256 reads: the scanner searches its whole buffer again
		// after each one, so a long line read a byte at a time is quadratic.
		n := max(int(chunk)+1, len(body)/256)
		got := readStream(t, newRowIter, &chunked{data: body, n: n})
		want := readStream(t, fullBufferRowIter, bytes.NewReader(body))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reading %d bytes %d at a time:\n got %s\nwant %s", len(body), n, got, want)
		}
	})
}

func (s streamed) String() string {
	return fmt.Sprintf("%d rows, state %q, job error %v, error %q, terminal %+v",
		len(s.rows), s.state, s.jobErr, s.err, s.terminal)
}
