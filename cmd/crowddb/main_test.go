package main

import (
	"bufio"
	"context"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"crowddb"
	"crowddb/internal/server"
	"crowddb/internal/workload"
	"crowddb/pkg/client"
)

// TestReadLoop: a statement over two lines runs once, whole; a \-command
// outside a statement goes to the command handler; \quit ends the loop
// before the statement after it. A line over the 1 MiB limit ends the
// loop with bufio.ErrTooLong instead of passing for the end of input.
func TestReadLoop(t *testing.T) {
	for _, tc := range []struct {
		in       string
		ran      []string
		commands []string
		err      error
	}{
		{
			in:       "SELECT title\n  FROM Talk;\n\\stats\n\\quit\nSELECT 1;\n",
			ran:      []string{"SELECT title\n  FROM Talk;\n"},
			commands: []string{`\stats`, `\quit`},
		},
		{
			in:  "SELECT 1;\nSELECT '" + strings.Repeat("a", 2<<20) + "';\nSELECT 2;\n",
			ran: []string{"SELECT 1;\n"},
			err: bufio.ErrTooLong,
		},
	} {
		var ran, commands []string
		err := readLoop(strings.NewReader(tc.in), func(sql string) { ran = append(ran, sql) }, func(cmd string) bool {
			commands = append(commands, cmd)
			return cmd == `\quit`
		})
		if !reflect.DeepEqual(ran, tc.ran) {
			t.Errorf("ran %.40q, want %q", ran, tc.ran)
		}
		if !reflect.DeepEqual(commands, tc.commands) {
			t.Errorf("commands %q, want %q", commands, tc.commands)
		}
		if !errors.Is(err, tc.err) {
			t.Errorf("err %v, want %v", err, tc.err)
		}
	}
}

// serveTest opens an in-memory engine without a crowd platform (the
// shell's -platform none) and serves it as main does.
func serveTest(t *testing.T) (srv *server.Server, url string, shutdown func()) {
	t.Helper()
	db, err := crowddb.Open(crowddb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv, url, shutdown, err = serveLocal(db)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	return srv, url, shutdown
}

// captureStdout returns what f prints to standard output.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	f()
	w.Close()
	return <-out
}

// noneLeft fails unless srv holds no session and runs no job.
func noneLeft(t *testing.T, srv *server.Server) {
	t.Helper()
	st := srv.Stats().Server
	if st.ActiveSessions != 0 || st.SessionsClosed != st.SessionsOpened || st.ActiveJobs != 0 || st.InFlightQueries != 0 {
		t.Errorf("left behind: %+v", st)
	}
}

// TestLocalModeEndToEnd: the in-process server answers DDL, an INSERT
// and a SELECT sent through runRemote, the SELECT sees the inserted row,
// and after the session closes and the server shuts down nothing is left.
func TestLocalModeEndToEnd(t *testing.T) {
	srv, url, shutdown := serveTest(t)
	ctx := context.Background()
	c := client.New(url)
	if _, err := c.CreateSession(ctx, 0); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() {
		for _, sql := range []string{
			"CREATE TABLE Talk (title STRING PRIMARY KEY, room STRING);",
			"INSERT INTO Talk VALUES ('CrowdDB', 'A');",
			"SELECT title, room FROM Talk;",
		} {
			if !runRemote(ctx, c, sql) {
				t.Errorf("%s failed", sql)
			}
		}
	})
	for _, want := range []string{"1 row(s) affected\n", "title | room\n", "CrowdDB | A\n(1 rows)\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if err := c.CloseSession(ctx); err != nil {
		t.Fatal(err)
	}
	shutdown()
	noneLeft(t, srv)
}

// TestFailingScriptClosesSession: a -c script that fails makes the shell
// exit 1, and the session it ran on is closed first.
func TestFailingScriptClosesSession(t *testing.T) {
	srv, url, _ := serveTest(t)
	var code int
	out := captureStdout(t, func() { code = serverMain(url, "test", "SELECT nope FROM Talk;", 0) })
	if code != 1 || !strings.HasPrefix(out, "error:") {
		t.Errorf("exit status %d, output %q; want 1 and an error", code, out)
	}
	noneLeft(t, srv)
}

// TestExplainPrintsNoCostLine: EXPLAIN and EXPLAIN ANALYZE print their
// cents in the plan text, and the shell adds no cost line after it; a
// statement without a plan still gets one.
func TestExplainPrintsNoCostLine(t *testing.T) {
	_, url, _ := serveTest(t)
	ctx := context.Background()
	c := client.New(url)
	if _, err := c.CreateSession(ctx, 0); err != nil {
		t.Fatal(err)
	}
	defer c.CloseSession(ctx) //nolint:errcheck // the server shuts down at cleanup
	var loaded bool
	captureStdout(t, func() { loaded = runRemote(ctx, c, workload.NewConference(20, 1).DemoScript()) })
	if !loaded {
		t.Fatal("demo load failed")
	}
	const probe = "SELECT title, nb_attendees FROM Talk LIMIT 2;"
	for _, tc := range []struct {
		sql, plan string
		costLine  bool
	}{
		{"EXPLAIN " + probe, "predicted: ¢", false},
		{"EXPLAIN ANALYZE SELECT title FROM Talk LIMIT 2;", "actual: ¢", false},
		{probe, "", true},
	} {
		out := captureStdout(t, func() {
			if !runRemote(ctx, c, tc.sql) {
				t.Errorf("%s failed", tc.sql)
			}
		})
		if !strings.Contains(out, tc.plan) || strings.Contains(out, "cost:") != tc.costLine {
			t.Errorf("%s printed:\n%s\nwant a plan with %q and a cost line: %v", tc.sql, out, tc.plan, tc.costLine)
		}
	}
}
