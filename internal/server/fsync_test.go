package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crowddb/internal/core"
	"crowddb/internal/faultinject"
	"crowddb/internal/storage"
)

// fsyncServer opens a durable two-shard engine with the WAL and the jobs
// journal both in group mode (the daemon default), and a kv table with
// two rows.
func fsyncServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	dir := t.TempDir()
	eng, err := core.Open(core.Config{DataDir: filepath.Join(dir, "data"), Shards: 2, WALSync: storage.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := New(eng, cfg)
	if err := srv.EnableJournal(filepath.Join(dir, "jobs.log"), storage.SyncGroup); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"CREATE TABLE kv (id INTEGER PRIMARY KEY, v STRING)",
		"INSERT INTO kv VALUES (1, 'a'), (2, 'b')",
	} {
		if _, serr := runScript(srv, "", sql); serr != nil {
			t.Fatal(serr)
		}
	}
	return srv
}

// fsyncs reads how many WAL fsyncs (summed over the shards) and jobs
// journal fsyncs the server has made so far.
func fsyncs(srv *Server) (wal, journal int64) {
	reg := srv.eng.Metrics()
	for shard := 0; shard < 2; shard++ {
		wal += reg.Histogram("crowddb_wal_fsync_seconds", "", nil, "shard", fmt.Sprint(shard)).Count()
	}
	return wal, reg.Histogram("crowddb_journal_fsync_seconds", "", nil).Count()
}

// TestStatementFsyncs pins what a statement waits for: its WAL records
// are synced once per shard at commit, and the journal syncs only at its
// barriers — a row, the end record, and an HTTP response naming a job
// the client did not name. Over submit-and-stream a job that finds a free
// slot sends its head with its rows or trailer, so it waits for no more
// than it does in-process.
func TestStatementFsyncs(t *testing.T) {
	srv := fsyncServer(t, Config{MaxConcurrent: 1})
	sess, serr := srv.CreateSession(100)
	if serr != nil {
		t.Fatal(serr)
	}
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()
	many := func(run int) string {
		var rows []string
		for id := 1000 + 500*run; id < 1500+500*run; id++ {
			rows = append(rows, fmt.Sprintf("(%d, 'm')", id))
		}
		return "INSERT INTO kv VALUES " + strings.Join(rows, ", ")
	}
	for _, c := range []struct {
		sql               func(run int) string
		wal, walMax, jrnl int64
	}{
		{func(run int) string { return fmt.Sprintf("INSERT INTO kv VALUES (%d, 'c')", 3+run) }, 1, 1, 1},
		{func(int) string { return "UPDATE kv SET v = 'z' WHERE id = 1" }, 1, 1, 1},
		{func(run int) string { return fmt.Sprintf("DELETE FROM kv WHERE id = %d", 3+run) }, 1, 1, 1},
		{func(int) string { return "SELECT v FROM kv WHERE id = 1" }, 0, 0, 2}, // the row, the end record
		{many, 2, 2, 1}, // one per shard, not 500
	} {
		for run, via := range []string{"in-process", "submit-and-stream"} {
			sql := c.sql(run)
			// The last job's runner gives its slot back just after Wait
			// returns; a job that found it still taken would wait for it.
			for deadline := time.Now().Add(10 * time.Second); len(srv.slots) > 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the execution slot was never released")
				}
			}
			wal0, jrnl0 := fsyncs(srv)
			if via == "in-process" {
				if _, serr := runScript(srv, sess.ID(), sql); serr != nil {
					t.Fatalf("%.40s: %v", sql, serr)
				}
			} else {
				resp := submitStream(t, ts.URL, sess.ID(), sql)
				st := readStream(t, bufio.NewScanner(resp.Body), true)
				resp.Body.Close()
				if st.trailer == nil || st.trailer.State != JobDone {
					t.Fatalf("%.40s: trailer %+v", sql, st.trailer)
				}
			}
			wal1, jrnl1 := fsyncs(srv)
			if d := wal1 - wal0; d < c.wal || d > c.walMax {
				t.Errorf("%s %.40s: %d WAL fsyncs, want %d..%d", via, sql, d, c.wal, c.walMax)
			}
			if d := jrnl1 - jrnl0; d != c.jrnl {
				t.Errorf("%s %.40s: %d journal fsyncs, want %d", via, sql, d, c.jrnl)
			}
		}
	}

	// A job that waits for a slot has its id sent while it waits, which
	// adds one journal fsync: the one execution slot is held so the job
	// cannot run (and sync its own records) before the response has gone
	// out — as a plain 202 and as a submit-and-stream head.
	for i, ndjson := range []bool{false, true} {
		srv.slots <- struct{}{}
		wal0, jrnl0 := fsyncs(srv)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/queries",
			strings.NewReader(fmt.Sprintf(`{"sql": "INSERT INTO kv VALUES (%d, 'h')"}`, 10+i)))
		if ndjson {
			req.Header.Set("Accept", "application/x-ndjson")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(resp.Body)
		head, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var info JobInfo
		if err := json.Unmarshal(head, &info); err != nil || info.ID == "" {
			t.Fatalf("submit response %q: %v", head, err)
		}
		if _, jrnl := fsyncs(srv); jrnl-jrnl0 != 1 {
			t.Errorf("ndjson=%v: %d journal fsyncs before the job id reached the client, want 1", ndjson, jrnl-jrnl0)
		}
		<-srv.slots
		job, serr := srv.Job(info.ID)
		if serr != nil {
			t.Fatal(serr)
		}
		if st := waitState(t, job); st != JobDone {
			t.Fatalf("ndjson=%v: job %s, err %v", ndjson, st, job.Err())
		}
		resp.Body.Close()
		if wal1, jrnl1 := fsyncs(srv); wal1-wal0 != 1 || jrnl1-jrnl0 != 2 {
			t.Errorf("ndjson=%v: %d WAL and %d journal fsyncs, want 1 and 2 (the response, the end record)",
				ndjson, wal1-wal0, jrnl1-jrnl0)
		}
	}
}

// TestTerminalStateFollowsEndRecord: a job's terminal state becomes
// visible only after its end record is durable. While the end record's
// sync is held at the server.job.state crashpoint, the job is not
// terminal and no stream has written a trailer — for done, failed and
// cancelled alike.
func TestTerminalStateFollowsEndRecord(t *testing.T) {
	for _, c := range []struct {
		want JobState
		sql  string
	}{
		{JobDone, "SELECT id FROM Pair"},
		{JobFailed, "SELECT id FROM Missing"},
		{JobCancelled, durableQuery},
	} {
		t.Run(string(c.want), func(t *testing.T) {
			eng := pairEngine(t, 61, 1)
			srv := New(eng, Config{})
			if err := srv.EnableJournal(filepath.Join(t.TempDir(), "jobs.log"), storage.SyncGroup); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.HTTPHandler())
			defer ts.Close()
			if c.want == JobCancelled { // park the job on a foreign claim until cancelled
				l, r := pairStrings(t, 61, 1)
				leader := eng.Cache().ClaimEqual("", l, r)
				defer leader.Abandon()
			}
			held, release := make(chan struct{}), make(chan struct{})
			defer faultinject.Disarm()
			faultinject.SetHandler(func(string) { close(held); <-release })
			if err := faultinject.Arm("server.job.state=1"); err != nil { // the end record
				t.Fatal(err)
			}
			job, serr := srv.StartJob("", c.sql)
			if serr != nil {
				t.Fatal(serr)
			}
			trailer := make(chan string, 1)
			go func() {
				resp, err := http.Get(ts.URL + "/v1/queries/" + job.ID() + "/rows")
				if err != nil {
					trailer <- err.Error()
					return
				}
				defer resp.Body.Close()
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() {
					if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 && line[0] == '{' {
						trailer <- string(line)
						return
					}
				}
				trailer <- "stream ended without a trailer"
			}()
			if c.want == JobCancelled {
				for deadline := time.Now().Add(10 * time.Second); job.State() != JobRunning; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("job never started running (state %s)", job.State())
					}
				}
				srv.CancelJob(job.ID())
			}
			select {
			case <-held:
			case <-time.After(30 * time.Second):
				t.Fatalf("the end record was never written (state %s)", job.State())
			}
			if st := job.State(); st.Terminal() {
				t.Errorf("state %s visible before the end record is durable", st)
			}
			select {
			case tr := <-trailer:
				t.Errorf("a stream wrote its trailer before the end record was durable: %s", tr)
			default:
			}
			close(release)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if st, err := job.Wait(ctx); err != nil || st != c.want {
				t.Fatalf("final state %s (%v), want %s", st, err, c.want)
			}
			if tr := <-trailer; !strings.Contains(tr, `"state":"`+string(c.want)+`"`) {
				t.Errorf("trailer %s, want state %s", tr, c.want)
			}
		})
	}
}
