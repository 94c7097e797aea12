package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

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

// rowStream is what a caller sees of an iterator: the one under test
// and the reference in rowiter_ref_test.go.
type rowStream interface {
	Next() bool
	Row() Row
	Err() error
	FinalState() string
	FinalError() *Error
	Close() error
}

func readStream(t *testing.T, open func(*Job, io.ReadCloser) rowStream, body io.Reader) streamed {
	t.Helper()
	job := &Job{id: "j1"}
	it := open(job, io.NopCloser(body))
	defer it.Close()
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

// The readers FuzzRowIter compares: the iterator, the parent's iterator
// as it was, and the parent's iterator over a scanner that owns a whole
// maxLine buffer from the start, so it never grows one.
func openRowIter(job *Job, body io.ReadCloser) rowStream { return newRowIter(job, body) }

func openRefRowIter(job *Job, body io.ReadCloser) rowStream { return newRefRowIter(job, body, nil) }

func openFullBufferRowIter(job *Job, body io.ReadCloser) rowStream {
	return newRefRowIter(job, body, make([]byte, 0, maxLine))
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

// decodeRow decodes a single row line through the stream's batch
// decoder.
func decodeRow(line []byte) (Row, error) {
	var b batch
	if b.decode(line); b.err != nil {
		return nil, b.err
	}
	row, _ := b.pop()
	return row, nil
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
// reader, a few bytes per read; to the parent's iterator, kept in
// rowiter_ref_test.go, over the same reads; and to the parent's iterator
// over a full buffer in one piece. Rows — those before a malformed line
// included —, trailer, the resource left on the handle and the error
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
		got := readStream(t, openRowIter, &chunked{data: body, n: n})
		parent := readStream(t, openRefRowIter, &chunked{data: body, n: n})
		if !reflect.DeepEqual(got, parent) {
			t.Fatalf("reading %d bytes %d at a time:\n   got %s\nparent %s", len(body), n, got, parent)
		}
		full := readStream(t, openFullBufferRowIter, bytes.NewReader(body))
		if !reflect.DeepEqual(got, full) {
			t.Fatalf("reading %d bytes %d at a time:\n got %s\nwant %s", len(body), n, got, full)
		}
		decodedBothWays(t, body)
	})
}

func (s streamed) String() string {
	return fmt.Sprintf("%d rows, state %q, job error %v, error %q, terminal %+v",
		len(s.rows), s.state, s.jobErr, s.err, s.terminal)
}

// rowBody is a stream of n row lines — three cells each: an id, a
// string with escapes and non-ASCII text or a null, an empty string —
// and a trailer, with the rows json.Unmarshal makes of its lines.
func rowBody(t testing.TB, n int) ([]byte, []Row) {
	t.Helper()
	var body []byte
	want := make([]Row, n)
	for i := range want {
		id, text, empty := fmt.Sprint(i), fmt.Sprintf("café \"%d\"\n", i), ""
		cells := Row{&id, &text, &empty}
		if i%3 == 0 {
			cells[1] = nil
		}
		line, err := json.Marshal(cells)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(line, &want[i]); err != nil {
			t.Fatal(err)
		}
		body = append(append(body, line...), '\n')
	}
	return append(body, `{"id":"j1","state":"done"}`+"\n"...), want
}

// collect drains it and closes it.
func collect(t testing.TB, it *RowIter) []Row {
	t.Helper()
	defer it.Close()
	var rows []Row
	for it.Next() {
		rows = append(rows, it.Row())
	}
	if it.Err() != nil || it.FinalState() != "done" {
		t.Fatalf("stream ended with %v, trailer %q", it.Err(), it.FinalState())
	}
	return rows
}

// cannedServer answers every submit with head, body and nothing else.
func cannedServer(t *testing.T, body []byte) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ndjson)
		w.Write(append([]byte(`{"id":"j1","state":"running"}`+"\n"), body...)) //nolint:errcheck // the client sees a cut
	}))
	t.Cleanup(ts.Close)
	return New(ts.URL)
}

func queryRows(t *testing.T, c *Client) []Row {
	t.Helper()
	res, err := c.Query(context.Background(), "SELECT")
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// TestRowsOutliveTheirBatch: rows decoded together stay what they were
// after the stream reads on, after it is closed and after its pooled
// state decodes another stream — and scribbling on one row, by append or
// through a cell, changes no other.
func TestRowsOutliveTheirBatch(t *testing.T) {
	body, want := rowBody(t, 1000)
	c := cannedServer(t, body)
	read := [][]Row{queryRows(t, c)}
	for _, n := range []int{1, 7, 4096, len(body)} {
		read = append(read, collect(t, newRowIter(&Job{id: "j1"}, io.NopCloser(&chunked{data: body, n: n}))))
	}
	queryRows(t, c) // a second stream on the same client
	check := func(skip *string) {
		t.Helper()
		for s, rows := range read {
			if len(rows) != len(want) {
				t.Fatalf("stream %d: %d rows, want %d", s, len(rows), len(want))
			}
			for i, row := range rows {
				if len(row) > 0 && row[0] == skip {
					continue
				}
				if !reflect.DeepEqual(row, want[i]) {
					t.Fatalf("stream %d row %d = %s, want %s", s, i, render(row), render(want[i]))
				}
			}
		}
	}
	check(nil)
	for _, rows := range read {
		x := "appended"
		for i := range rows[:len(rows)-1] {
			_ = append(rows[i], &x)
		}
	}
	check(nil)
	scribbled := read[0][500][0]
	*scribbled = "scribbled"
	check(scribbled)
}

func render(r Row) string {
	cells := make([]string, len(r))
	for i := range r {
		cells[i] = fmt.Sprintf("%q", r.Cell(i))
	}
	return "[" + strings.Join(cells, " ") + "]"
}

var raceEnabled bool // set by race_test.go

// TestRowIterAllocs: a stream's rows cost allocations per batch, not per
// row — a 1 000-row body a few dozen, where the parent's iterator paid
// three a row — and a one-row answer no more than it did.
func TestRowIterAllocs(t *testing.T) {
	big, _ := rowBody(t, 1000)
	one, _ := rowBody(t, 1)
	var rd bytes.Reader
	body := io.NopCloser(&rd)
	job := &Job{id: "j1"}
	drain := func(b []byte, open func() rowStream) float64 {
		return testing.AllocsPerRun(50, func() {
			rd.Reset(b)
			it := open()
			for it.Next() {
			}
			if it.Err() != nil || it.FinalState() != "done" {
				t.Fatalf("stream ended with %v, trailer %q", it.Err(), it.FinalState())
			}
			it.Close()
		})
	}
	iter := func() rowStream { return newRowIter(job, body) }
	parent := func() rowStream { return newRefRowIter(job, body, nil) }
	n, ref := drain(big, iter), drain(big, parent)
	t.Logf("1 000 rows (%d B): %v allocations, the parent's iterator %v", len(big), n, ref)
	if n > 40 {
		t.Errorf("a 1 000-row body costs %v allocations, want at most 40", n)
	}
	if ref < 3000 {
		t.Errorf("the parent's iterator costs %v allocations on 1 000 rows; the test is meaningless", ref)
	}
	n, ref = drain(one, iter), drain(one, parent)
	t.Logf("one row: %v allocations, the parent's iterator %v", n, ref)
	if n > ref && !raceEnabled {
		t.Errorf("a one-row body costs %v allocations, the parent's iterator %v", n, ref)
	}
}

// TestStreamStateNotShared: the pooled state goes back exactly once —
// on a double Close, a Next after Close, a Close that interrupts a
// blocked Next — so it never reaches two live iterators, and two streams
// decoding at once keep their own rows. Run it under -race.
func TestStreamStateNotShared(t *testing.T) {
	body, want := rowBody(t, 300)
	job := &Job{id: "j1"}
	open := func(n int) *RowIter { return newRowIter(job, io.NopCloser(&chunked{data: body, n: n})) }
	var kept [][]Row
	for i := 0; i < 20; i++ {
		it := open(64)
		if !it.Next() {
			t.Fatal(it.Err())
		}
		it.Close()
		it.Close()
		if it.Next() || it.Err() == nil {
			t.Fatalf("Next after Close: a row, or no error (%v)", it.Err())
		}
		a, b := open(1+i), open(4096)
		if a.st == b.st {
			t.Fatal("one stream state handed to two live iterators")
		}
		var ra, rb []Row
		for a.Next() {
			ra = append(ra, a.Row())
			if b.Next() {
				rb = append(rb, b.Row())
			}
		}
		for b.Next() {
			rb = append(rb, b.Row())
		}
		a.Close()
		b.Close()
		kept = append(kept, ra, rb)
	}

	// A Close while Next waits for bytes that never come: that Next
	// returns false and hands the state back, once.
	pr, pw := io.Pipe()
	it := newRowIter(job, pr)
	go pw.Write(body[:bytes.IndexByte(body, '\n')+1]) //nolint:errcheck // the reader closes
	if !it.Next() || !reflect.DeepEqual(it.Row(), want[0]) {
		t.Fatalf("first row: %v", it.Err())
	}
	first := it.Row()
	next := make(chan bool)
	go func() { next <- it.Next() }()
	for reading := false; !reading; {
		it.mu.Lock()
		reading = it.reading
		it.mu.Unlock()
		runtime.Gosched()
	}
	it.Close()
	if <-next {
		t.Fatal("Next returned a row after Close")
	}
	if it.st != nil || it.Next() {
		t.Fatal("the interrupted Next kept its stream state")
	}
	it.Close()
	kept = append(kept, []Row{first})

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; n < 4096; n *= 3 {
				it := open(n)
				var rows []Row
				for it.Next() {
					rows = append(rows, it.Row())
				}
				it.Close()
				if it.Err() != nil || !reflect.DeepEqual(rows, want) {
					t.Errorf("stream read %d bytes at a time: %d rows, %v", n, len(rows), it.Err())
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, rows := range kept {
		if !reflect.DeepEqual(rows, want[:len(rows)]) {
			t.Fatal("a stream's rows changed after its state went back to the pool")
		}
	}
}
