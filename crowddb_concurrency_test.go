package crowddb

// Concurrency stress: one DB handle, many goroutines issuing crowd-backed
// queries at once. These tests pin down the public-API safety contract:
// no data race on the handle, no deadlock between the engine's write
// lock and the task scheduler's clock-driver handoff, and correct results
// under contention.
// Genuinely concurrent scheduler coverage lives in
// internal/taskmgr/async_test.go (TestSubmitStorm).

import (
	"fmt"
	"sync"
	"testing"

	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

func TestParallelCrowdQueriesOneDB(t *testing.T) {
	conf := workload.NewConference(24, 1)
	db, err := Open(Config{
		Platform: NewAMTPlatform(1),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE Talk (
		title STRING PRIMARY KEY, abstract CROWD STRING, nb_attendees CROWD INTEGER )`); err != nil {
		t.Fatal(err)
	}
	for _, talk := range conf.Talks {
		if _, err := db.Exec("INSERT INTO Talk (title) VALUES (" +
			sqltypes.NewString(talk.Title).SQLLiteral() + ")"); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < 3; q++ {
				talk := conf.Talks[(w*3+q)%len(conf.Talks)]
				res, err := db.Query("SELECT abstract FROM Talk WHERE title = " +
					sqltypes.NewString(talk.Title).SQLLiteral())
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 1 {
					errs <- fmt.Errorf("talk %q: %d rows", talk.Title, len(res.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every queried talk's abstract must now be memorized: re-reading is
	// crowd-free.
	res, err := db.Query("SELECT abstract FROM Talk")
	if err != nil {
		t.Fatal(err)
	}
	filled := 0
	for _, row := range res.Rows {
		if !row[0].IsUnknown() {
			filled++
		}
	}
	if filled < workers*3/2 {
		t.Errorf("only %d abstracts filled after %d parallel probe queries", filled, workers*3)
	}
}

// TestParallelMixedStatements mixes crowd reads with plain DML from
// parallel goroutines — the engine must serialize statements without
// deadlocking against the task scheduler.
func TestParallelMixedStatements(t *testing.T) {
	conf := workload.NewConference(12, 2)
	db, err := Open(Config{
		Platform: NewAMTPlatform(2),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE Talk (
		title STRING PRIMARY KEY, room STRING, abstract CROWD STRING )`); err != nil {
		t.Fatal(err)
	}
	for _, talk := range conf.Talks {
		if _, err := db.Exec("INSERT INTO Talk (title) VALUES (" +
			sqltypes.NewString(talk.Title).SQLLiteral() + ")"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			talk := conf.Talks[w%len(conf.Talks)]
			lit := sqltypes.NewString(talk.Title).SQLLiteral()
			if _, err := db.Query("SELECT abstract FROM Talk WHERE title = " + lit); err != nil {
				errs <- err
			}
			if _, err := db.Exec(fmt.Sprintf(
				"UPDATE Talk SET room = 'Room %d' WHERE title = %s", w+1, lit)); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
