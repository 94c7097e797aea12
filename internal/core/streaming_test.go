package core

// Tests for the streaming/cancellation seam: Execute(ctx) and the
// statement's Observer.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"crowddb/internal/exec"
	"crowddb/internal/parser"
	"crowddb/internal/storage"
)

func itemEngine(t *testing.T, n int) *Engine {
	t.Helper()
	eng, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Exec(`CREATE TABLE Item (id INTEGER PRIMARY KEY, grp INTEGER)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := eng.Exec(intInsert(i)); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

func intInsert(i int) string {
	return "INSERT INTO Item VALUES (" + itoa(i) + ", " + itoa(i%3) + ")"
}

func itoa(i int) string { return string(rune('0'+i/10)) + string(rune('0'+i%10)) }

// recorder is a test Observer: each callback, when set, sees its call.
type recorder struct {
	onSnapshot func(int64)
	onSchema   func([]string)
	onRow      func(exec.Row) error
	onProgress func(exec.Stats)
	onFinal    func(exec.Stats)
}

func (r *recorder) Snapshot(ts int64) {
	if r.onSnapshot != nil {
		r.onSnapshot(ts)
	}
}

func (r *recorder) Schema(cols []string) {
	if r.onSchema != nil {
		r.onSchema(cols)
	}
}

func (r *recorder) Row(row exec.Row) error {
	if r.onRow != nil {
		return r.onRow(row)
	}
	return nil
}

func (r *recorder) Progress(st exec.Stats) {
	if r.onProgress != nil {
		r.onProgress(st)
	}
}

func (r *recorder) Final(st exec.Stats) {
	if r.onFinal != nil {
		r.onFinal(st)
	}
}

// TestExecuteStreamsIdenticalRows: the observer receives exactly the rows
// the materializing path returns, in order, with the schema announced
// before the first row.
func TestExecuteStreamsIdenticalRows(t *testing.T) {
	eng := itemEngine(t, 12)
	query := "SELECT id FROM Item WHERE grp = 1"

	materialized, err := eng.Query(query)
	if err != nil {
		t.Fatal(err)
	}

	var streamed []storage.Row
	var cols []string
	sawSchemaFirst := true
	opts := DefaultExecOpts()
	opts.Observer = &recorder{
		onSchema: func(c []string) { cols = c },
		onRow: func(r exec.Row) error {
			if cols == nil {
				sawSchemaFirst = false
			}
			streamed = append(streamed, r)
			return nil
		},
	}
	res, err := eng.Execute(context.Background(), query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sawSchemaFirst {
		t.Error("Schema must be called before the first row")
	}
	if res.Rows != nil {
		t.Errorf("streamed Result must not materialize rows, got %d", len(res.Rows))
	}
	if !reflect.DeepEqual(cols, materialized.Columns) {
		t.Errorf("columns = %v, want %v", cols, materialized.Columns)
	}
	if !reflect.DeepEqual(streamed, materialized.Rows) {
		t.Errorf("streamed rows diverge:\n%v\nvs\n%v", streamed, materialized.Rows)
	}
}

// TestExecuteSinkErrorStops: an error from the observer's Row aborts the
// statement.
func TestExecuteSinkErrorStops(t *testing.T) {
	eng := itemEngine(t, 12)
	boom := errors.New("sink full")
	n := 0
	opts := DefaultExecOpts()
	opts.Observer = &recorder{onRow: func(exec.Row) error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	}}
	_, err := eng.Execute(context.Background(), "SELECT id FROM Item", opts)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink error", err)
	}
	if n != 2 {
		t.Fatalf("sink called %d times, want 2", n)
	}
}

// TestExecuteCancelledContext: a pre-cancelled context stops execution
// and still reports Final (budget settlement path).
func TestExecuteCancelledContext(t *testing.T) {
	eng := itemEngine(t, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	statsFired := false
	opts := DefaultExecOpts()
	opts.Observer = &recorder{onFinal: func(exec.Stats) { statsFired = true }}
	_, err := eng.Execute(ctx, "SELECT id FROM Item", opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A script-level cancellation may stop before the statement compiles;
	// run the statement-level path too.
	stmtErrFired := false
	opts.Observer = &recorder{onFinal: func(exec.Stats) { stmtErrFired = true }}
	stmt, perr := parser.Parse("SELECT id FROM Item")
	if perr != nil {
		t.Fatal(perr)
	}
	if _, err := eng.ExecStmtCtx(ctx, stmt, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("stmt err = %v", err)
	}
	if !stmtErrFired {
		t.Error("Final must be called even when the statement is cancelled")
	}
	_ = statsFired
}
