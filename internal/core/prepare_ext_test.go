package core_test

import (
	"context"
	"fmt"
	"testing"

	"crowddb/internal/core"
	"crowddb/internal/server"
)

// TestPrepareHitDoesNotParse: once a SELECT's key is cached, the same
// statement with another literal never enters the parser — through
// Engine.Execute and through Server.StartJob — and still answers with its
// own row. A statement of a new shape and an INSERT are parsed.
func TestPrepareHitDoesNotParse(t *testing.T) {
	eng, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Exec("CREATE TABLE Talk (title STRING PRIMARY KEY, n INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO Talk VALUES ('talk-%02d', %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(eng, server.Config{})
	defer srv.Shutdown(context.Background())
	point := func(i int) string { return fmt.Sprintf("SELECT n FROM Talk WHERE title = 'talk-%02d'", i) }

	// parsed runs f and reports how many parses it ran.
	parsed := func(f func()) int64 {
		before := core.ParseCount()
		f()
		return core.ParseCount() - before
	}
	execute := func(sql string) *core.Result {
		res, err := eng.Execute(context.Background(), sql, core.DefaultExecOpts())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if n := parsed(func() { execute(point(0)) }); n != 1 {
		t.Fatalf("the first statement of a shape parsed %d times, want 1", n)
	}
	for i := 1; i < 10; i++ {
		var res *core.Result
		if n := parsed(func() { res = execute(point(i)) }); n != 0 {
			t.Errorf("Execute of a cached shape parsed %d times", n)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(i) {
			t.Errorf("%s: rows %v", point(i), res.Rows)
		}
	}
	for i := 0; i < 10; i++ {
		var info server.JobInfo
		n := parsed(func() {
			job, serr := srv.StartJob("", point(i))
			if serr != nil {
				t.Fatal(serr)
			}
			if _, err := job.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			info = job.Info()
		})
		if n != 0 {
			t.Errorf("StartJob of a cached shape parsed %d times", n)
		}
		if info.State != server.JobDone || info.RowsEmitted != 1 {
			t.Errorf("%s: job %s with %d rows (%v)", point(i), info.State, info.RowsEmitted, info.Error)
		}
	}
	if n := parsed(func() { execute("SELECT title FROM Talk WHERE n = 3") }); n != 1 {
		t.Errorf("a new shape parsed %d times, want 1", n)
	}
	if n := parsed(func() { execute("INSERT INTO Talk VALUES ('talk-10', 10)") }); n != 1 {
		t.Errorf("an INSERT parsed %d times, want 1", n)
	}
}
