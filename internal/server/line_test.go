package server

// The line appender against what it replaced — json.Marshal of the
// cells renderRow made and of the job resource, which is how every line
// was written before — and the client's scanner against json.Unmarshal
// on the bytes the appender writes.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"crowddb/internal/exec"
	"crowddb/internal/sqltypes"
	"crowddb/pkg/client"
)

// renderRow is the cell form rows were streamed and journaled in before
// the appender (nil = JSON null: SQL NULL or CNULL); appendRow must write
// what json.Marshal writes for it.
func renderRow(row exec.Row) []*string {
	cells := make([]*string, len(row))
	for i, v := range row {
		if v.IsUnknown() {
			continue
		}
		rendered := v.String()
		cells[i] = &rendered
	}
	return cells
}

// marshalLine is how a job resource line was written before appendInfo:
// json.Marshal, or null when it fails.
func marshalLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte("null")
	}
	return b
}

// fuzzValues builds a row and a job resource out of a fuzzer's inputs:
// kinds picks each cell's kind and which optional fields are set, the
// strings and numbers fill them.
func fuzzValues(kinds []byte, s1, s2, s3 string, n int64, x, y float64) (exec.Row, JobInfo) {
	strs := []string{s1, s2, s3}
	var row exec.Row
	for i, k := range kinds {
		if i == 16 {
			break
		}
		switch k % 6 {
		case 0:
			row = append(row, sqltypes.Null())
		case 1:
			row = append(row, sqltypes.CNull())
		case 2:
			row = append(row, sqltypes.NewString(strs[i%3]))
		case 3:
			row = append(row, sqltypes.NewInt(n-int64(k)))
		case 4:
			row = append(row, sqltypes.NewFloat([]float64{x, y, x * y, -x}[i%4]))
		default:
			row = append(row, sqltypes.NewBool(k&8 != 0))
		}
	}
	bit := func(i int) bool { return len(kinds) > 0 && kinds[0]&(1<<i) != 0 }
	pick := func(i int, f float64) float64 {
		if bit(i) {
			return f
		}
		return 0
	}
	info := JobInfo{
		ID:             s2,
		State:          JobState(s3),
		RowsEmitted:    int(n),
		StatementsDone: len(kinds),
		Stats: exec.Stats{RowsScanned: int(n), ProbeRequests: len(s1), NewTupleRequests: -len(s2),
			Comparisons: int(n >> 3), CacheHits: len(kinds), SharedFlights: int(n % 7), BudgetDenied: 1},
		PredictedCents:   pick(0, x),
		PredictedSeconds: pick(1, y),
		SpentCents:       x * y,
		ActualCents:      pick(2, x+y),
		TraceID:          s2,
	}
	if bit(3) {
		info.Session, info.Plan, info.Affected, info.SnapshotTS = s1, s1+"\n"+s3, int(-n), n
	}
	if bit(4) {
		info.Columns = strings.Split(s1, ",")
		info.Warnings = []string{s3, s2}
	}
	if bit(5) {
		info.Columns = []string{} // empty, not absent: omitted all the same
	}
	if bit(6) {
		info.Error = &Error{Code: Code(s1), Message: s3}
	}
	return row, info
}

// fixedBody is a transport that answers every request with one body.
type fixedBody []byte

func (b fixedBody) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {"application/x-ndjson"}},
		Body: io.NopCloser(bytes.NewReader(b)), Request: r}, nil
}

// FuzzLineCodec: for any row and job resource, appendRow and appendInfo
// write the bytes json.Marshal wrote for them, and the client reads those
// bytes — as a stream's row and trailer, and as a polled resource — into
// what json.Unmarshal makes of them.
func FuzzLineCodec(f *testing.F) {
	f.Add([]byte{0x7f, 0, 1, 2, 3, 4, 5}, "a,<b>&c", "j000001", "done", int64(42), 0.25, 1e21)
	f.Add([]byte{0x51, 2, 2, 4}, "\xff\xfe\u2028", "\u2029\x00\"\\/", "\b\f\n\r\t\x1f\x7f", int64(-1), 1e-7, math.Copysign(0, -1))
	f.Add([]byte{0x48, 4, 4}, "é😀", "", "running", int64(math.MaxInt64), math.NaN(), 3.0)
	f.Add([]byte{0x03, 4}, "", "x", "y", int64(math.MinInt64), math.Inf(-1), 5e-324)
	f.Fuzz(func(t *testing.T, kinds []byte, s1, s2, s3 string, n int64, x, y float64) {
		row, info := fuzzValues(kinds, s1, s2, s3, n, x, y)
		rowLine := appendRow(nil, row)
		if want, err := json.Marshal(renderRow(row)); err != nil || !bytes.Equal(rowLine, want) {
			t.Fatalf("row %v:\nappendRow    %s\njson.Marshal %s (%v)", row, rowLine, want, err)
		}
		infoLine := appendInfo(nil, &info)
		if want := marshalLine(info); !bytes.Equal(infoLine, want) {
			t.Fatalf("job resource %+v:\nappendInfo   %s\njson.Marshal %s", info, infoLine, want)
		}

		var wantRow client.Row
		if err := json.Unmarshal(rowLine, &wantRow); err != nil {
			t.Fatal(err)
		}
		var wantInfo client.JobStatus
		if err := json.Unmarshal(infoLine, &wantInfo); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		body := append(append(append(rowLine, '\n'), infoLine...), '\n')
		c := client.New("http://crowddbd.invalid", client.WithHTTPClient(&http.Client{Transport: fixedBody(body)}))
		it, err := c.Job("j1").RowsFrom(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		if !it.Next() || !reflect.DeepEqual(it.Row(), wantRow) {
			t.Fatalf("client read the row %q as %v (%v), json.Unmarshal as %v", rowLine, it.Row(), it.Err(), wantRow)
		}
		if it.Next() || it.Err() != nil || it.FinalState() != wantInfo.State || !reflect.DeepEqual(it.FinalError(), wantInfo.Error) {
			t.Fatalf("client read the trailer %q as state %q, error %v (%v); json.Unmarshal as %q, %v",
				infoLine, it.FinalState(), it.FinalError(), it.Err(), wantInfo.State, wantInfo.Error)
		}
		c = client.New("http://crowddbd.invalid", client.WithHTTPClient(&http.Client{Transport: fixedBody(infoLine)}))
		got, err := c.Job("j1").Status(ctx)
		if err != nil || !reflect.DeepEqual(*got, wantInfo) {
			t.Fatalf("client read the resource %q as %+v (%v), json.Unmarshal as %+v", infoLine, got, err, wantInfo)
		}
	})
}

// TestPushWithoutStreamerMakesNoChannel: rows, progress and snapshots
// that no streamer or waiter is watching allocate nothing per push — no
// channel, no cell strings — once the row buffer has grown.
func TestPushWithoutStreamerMakesNoChannel(t *testing.T) {
	j := &Job{srv: &Server{}}
	row := exec.Row{sqltypes.NewInt(1234567), sqltypes.NewString("a <b>"), sqltypes.Null(), sqltypes.NewFloat(2.5)}
	for i := 0; i < 100; i++ {
		j.Row(row)
	}
	if allocs := testing.AllocsPerRun(10000, func() {
		j.Row(row)
		j.Progress(exec.Stats{RowsScanned: 1})
		j.Snapshot(7)
	}); allocs != 0 {
		t.Fatalf("a push nobody waits for allocates %.2f times", allocs)
	}
	if j.notify != nil {
		t.Fatal("a push made a notify channel nobody asked for")
	}
	// A waiter gets a channel, and the next push closes it.
	_, _, _, _, notify := j.rowsFrom(0)
	j.Row(row)
	select {
	case <-notify:
	default:
		t.Fatal("the push after rowsFrom did not wake its caller")
	}
}
