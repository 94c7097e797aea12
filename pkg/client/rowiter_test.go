package client

import (
	"bufio"
	"bytes"
	"encoding/json"
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

// statusKeys are the field names the scanner matches, as JobStatus and
// the types inside it tag them.
var statusKeys = func() []string {
	var keys []string
	for _, v := range []any{JobStatus{}, Stats{}, Error{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			keys = append(keys, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
	}
	return keys
}()

// foldedKey reports whether line has an object key that is one of
// statusKeys case-folded but not as written: json.Unmarshal matches it,
// the scanner on purpose does not.
func foldedKey(line []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(line))
	var objects []bool // the open containers, true for an object
	key := false       // the next string is a key
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' || v == '[' {
				objects = append(objects, v == '{')
				key = v == '{'
				continue
			}
			objects = objects[:len(objects)-1]
		case string:
			if key {
				for _, name := range statusKeys {
					if v != name && strings.EqualFold(v, name) {
						return true
					}
				}
				key = false
				continue
			}
		}
		key = len(objects) > 0 && objects[len(objects)-1] // a value ended
	}
}

// decodedBothWays holds the scanner to json.Unmarshal on every line of
// body, as RowIter splits and trims it: the same value, or an error from
// both.
func decodedBothWays(t *testing.T, body []byte) {
	t.Helper()
	for _, line := range bytes.Split(body, []byte{'\n'}) {
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		var got, want any
		var gotErr, wantErr error
		if line[0] == '[' {
			var row Row
			row, gotErr = decodeRow(line)
			var ref Row
			wantErr = json.Unmarshal(line, &ref)
			got, want = row, ref
		} else {
			if foldedKey(line) {
				continue
			}
			var st, ref JobStatus
			gotErr, wantErr = decodeStatus(line, &st), json.Unmarshal(line, &ref)
			got, want = st, ref
		}
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("line %q:\nscanner        %#v (%v)\njson.Unmarshal %#v (%v)", line, got, gotErr, want, wantErr)
		}
	}
}

// FuzzRowIter feeds arbitrary bytes as a response body to the stream
// reader, a few bytes per read, and to the full-buffer reference in one
// piece: rows, trailer, the resource left on the handle and the error
// must be the same, nothing follows an error, and nothing panics. Every
// line must also decode as json.Unmarshal decodes it (decodedBothWays).
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
		decodedBothWays(t, body)
	})
}

func (s streamed) String() string {
	return fmt.Sprintf("%d rows, state %q, job error %v, error %q, terminal %+v",
		len(s.rows), s.state, s.jobErr, s.err, s.terminal)
}
