package client_test

// SDK integration tests: a real internal/server over httptest, driven
// exclusively through the public client surface.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/server"
	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
	"crowddb/pkg/client"
)

func testServer(t testing.TB, seed int64, nPairs int) (*httptest.Server, *core.Engine) {
	t.Helper()
	conf := workload.NewConference(8, seed)
	eng, err := core.Open(core.Config{
		Platform: amt.NewDefault(seed),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Exec(`CREATE TABLE Pair (id INTEGER PRIMARY KEY, a STRING, b STRING)`); err != nil {
		t.Fatal(err)
	}
	cs := workload.NewCompanies(nPairs, seed)
	for i, c := range cs.List {
		variant := c.Variants[len(c.Variants)-1]
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO Pair VALUES (%d, %s, %s)",
			i, sqltypes.NewString(c.Canonical).SQLLiteral(), sqltypes.NewString(variant).SQLLiteral())); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(eng, server.Config{})
	ts := httptest.NewServer(srv.HTTPHandler())
	t.Cleanup(ts.Close)
	return ts, eng
}

func TestClientJobLifecycle(t *testing.T) {
	ts, _ := testServer(t, 81, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	c := client.New(ts.URL)
	if !c.Healthy(ctx) {
		t.Fatal("server unhealthy")
	}
	info, err := c.CreateSession(ctx, 25)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.BudgetLeft != 25 {
		t.Fatalf("session: %+v", info)
	}

	job, err := c.Submit(ctx, "SELECT id FROM Pair WHERE a ~= b")
	if err != nil {
		t.Fatal(err)
	}
	it, err := job.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var rows []client.Row
	for it.Next() {
		rows = append(rows, it.Row())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if it.FinalState() != "done" || len(rows) != 3 {
		t.Fatalf("stream: state=%s rows=%d err=%v", it.FinalState(), len(rows), it.FinalError())
	}
	st, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Stats.Comparisons != 3 || st.SpentCents <= 0 {
		t.Fatalf("status: %+v", st)
	}

	// The session settled the spend.
	sinfo, err := c.SessionStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sinfo.BudgetLeft != 25-3 {
		t.Fatalf("budget_left = %d, want 22", sinfo.BudgetLeft)
	}
	if err := c.CloseSession(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestClientQueryConvenienceAndErrors(t *testing.T) {
	ts, _ := testServer(t, 83, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := client.New(ts.URL)

	res, err := c.Query(ctx, "SELECT id, a FROM Pair")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Columns) != 2 || res.Rows[0].Cell(0) != "0" {
		t.Fatalf("result: %+v", res)
	}

	// Coded errors surface as *client.Error.
	_, err = c.Query(ctx, "SELEC nope")
	var cerr *client.Error
	if !errors.As(err, &cerr) || cerr.Code != "parse_error" {
		t.Fatalf("parse error = %v", err)
	}
	// Unknown job ids 404 with a code.
	_, err = c.Query(ctx, "SELECT id FROM NoSuchTable")
	if !errors.As(err, &cerr) || cerr.Code != "internal" {
		t.Fatalf("exec error = %v", err)
	}
}

// TestClientStreamRowsReconnects: a stream dropped without a terminal
// trailer is transparently re-opened with from=<next unseen offset>, so
// the caller sees every row exactly once even when the connection (or
// the whole server) goes away mid-stream.
func TestClientStreamRowsReconnects(t *testing.T) {
	rows := []string{`["a"]`, `["b"]`, `["c"]`, `["d"]`, `["e"]`}
	var requests int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := atomic.AddInt32(&requests, 1)
		from, _ := strconv.Atoi(r.URL.Query().Get("from"))
		w.Header().Set("Content-Type", "application/x-ndjson")
		switch n {
		case 1:
			// First attempt: two rows, then the "connection" drops — no
			// terminal trailer.
			for _, row := range rows[from:2] {
				fmt.Fprintln(w, row)
			}
		default:
			// The "restarted server" serves the tail and finishes cleanly.
			for _, row := range rows[from:] {
				fmt.Fprintln(w, row)
			}
			fmt.Fprintln(w, `{"state":"done"}`)
		}
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithPollInterval(time.Millisecond))
	job := c.Job("j000042") // reattach by id, as after a restart
	var got []string
	state, jobErr, err := job.StreamRows(context.Background(), 0, 3, func(row client.Row) error {
		got = append(got, row.Cell(0))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if state != "done" || jobErr != nil {
		t.Fatalf("trailer = %q / %v, want done / nil", state, jobErr)
	}
	want := []string{"a", "b", "c", "d", "e"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed %v, want %v (no duplicates, no gaps)", got, want)
	}
	if n := atomic.LoadInt32(&requests); n != 2 {
		t.Fatalf("requests = %d, want 2 (one drop, one reconnect)", n)
	}
}

// TestClientStreamRowsGivesUp: a stream that never produces a trailer
// exhausts its reconnect budget and surfaces a transport error, and a
// submit answered with a plain job resource instead of a stream is an
// error naming what came back.
func TestClientStreamRowsGivesUp(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintln(w, `{"id":"j1","state":"queued"}`)
		}
		// Always drop without a trailer.
	}))
	defer ts.Close()
	c := client.New(ts.URL, client.WithPollInterval(time.Millisecond))
	_, _, err := c.Job("j1").StreamRows(context.Background(), 0, 2, func(client.Row) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "did not recover after 2 reconnects") {
		t.Fatalf("err = %v, want reconnect exhaustion", err)
	}
	if job, err := c.Submit(context.Background(), "SELECT 1;"); err == nil || !strings.Contains(err.Error(), `answered "application/json"`) {
		t.Fatalf("Submit = %v, %v; want an error naming the content type", job, err)
	}
}

func TestClientCancelMidCrowdWait(t *testing.T) {
	ts, eng := testServer(t, 87, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := client.New(ts.URL)

	// Pose as a foreign session's unresolved in-flight comparison, so the
	// job is deterministically parked mid-crowd-wait.
	cs := workload.NewCompanies(1, 87)
	l := cs.List[0].Canonical
	r := cs.List[0].Variants[len(cs.List[0].Variants)-1]
	leader := eng.Cache().ClaimEqual("", l, r)
	if !leader.Leader {
		t.Fatal("test setup: expected to lead the claim")
	}
	defer leader.Abandon()

	job, err := c.Submit(ctx, "SELECT id FROM Pair WHERE a ~= b")
	if err != nil {
		t.Fatal(err)
	}
	// Parked means the job's claim joined the foreign flight.
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for deadline := time.After(10 * time.Second); eng.CacheStats().Shared < 1; {
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatal("the job never joined the foreign in-flight comparison")
		}
	}
	if st, err := job.Status(ctx); err != nil || st.Terminal() {
		t.Fatalf("job should be parked: %+v %v", st, err)
	}
	if _, err := job.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "cancelled" {
		t.Fatalf("state = %s (err %v)", st.State, st.Error)
	}
	if n := eng.Cache().InFlight(); n != 1 {
		t.Errorf("in-flight claims = %d, want 1 (the foreign leader)", n)
	}
}
