// Command crowdsmoke is the Jobs-API smoke test CI runs against a live
// crowddbd: it exercises the whole v1 lifecycle through the public SDK
// (pkg/client) — create a session, submit a crowd query, stream partial
// rows, wait for completion, then submit a second job and cancel it
// mid-crowd-wait, asserting the terminal states, that the budget
// settled, and that the first job's Submit → Rows → Wait was a single
// HTTP request. Exit status 0 means the surface works end to end.
//
// Usage:
//
//	crowdsmoke -url http://127.0.0.1:18090
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"crowddb/pkg/client"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crowdsmoke: FAIL: "+format+"\n", args...)
	os.Exit(1)
}

// countingTransport counts the requests the SDK issues.
type countingTransport struct{ n atomic.Int64 }

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8090", "crowddbd base URL")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall deadline")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	requests := &countingTransport{}
	c := client.New(*url, client.WithHTTPClient(&http.Client{Transport: requests}))
	deadline := time.Now().Add(30 * time.Second)
	for !c.Healthy(ctx) {
		if time.Now().After(deadline) {
			fail("server %s never became healthy", *url)
		}
		time.Sleep(200 * time.Millisecond)
	}

	if _, err := c.CreateSession(ctx, 0); err != nil {
		fail("create session: %v", err)
	}
	defer c.CloseSession(context.Background()) //nolint:errcheck // teardown

	// 1. Submit a crowd query and stream its rows (partial results flow
	// while HIT groups round-trip; against -demo the abstracts are CNULL
	// until the simulated crowd answers).
	before := requests.n.Load()
	job, err := c.Submit(ctx, "SELECT title, abstract FROM Talk LIMIT 3;")
	if err != nil {
		fail("submit: %v", err)
	}
	it, err := job.Rows(ctx)
	if err != nil {
		fail("rows: %v", err)
	}
	streamed := 0
	for it.Next() {
		streamed++
	}
	if err := it.Err(); err != nil {
		fail("row stream: %v", err)
	}
	if it.FinalState() != "done" {
		fail("stream trailer state = %q (error %v)", it.FinalState(), it.FinalError())
	}
	it.Close()
	st, err := job.Wait(ctx)
	if err != nil {
		fail("wait: %v", err)
	}
	if st.State != "done" || streamed == 0 || st.RowsEmitted != streamed {
		fail("job 1: state=%s streamed=%d emitted=%d (err %v)", st.State, streamed, st.RowsEmitted, st.Error)
	}
	// One request per statement: the submit exchange carried the rows and
	// the terminal resource.
	if n := requests.n.Load() - before; n != 1 {
		fail("job 1: Submit → Rows → Wait took %d HTTP requests, want 1", n)
	}
	fmt.Printf("crowdsmoke: job %s done, %d rows streamed, ¢%.1f spent\n", job.ID(), streamed, st.SpentCents)

	// 2. Quorum streaming: a CROWDORDER job delivers every row through
	// the partial-result stream BEFORE the stream's completion trailer —
	// the protocol-level face of the settled-prefix executor. (The
	// stronger deterministic property — the first row leaves the
	// operator while later comparisons are still uncollected — is
	// pinned in-process by exec.TestCrowdOrderStreamsSettledPrefix;
	// against -demo the virtual-time crowd settles a whole sort faster
	// than one HTTP round-trip, so a wall-clock status poll can't
	// reliably observe it. When the poll does catch the window, report
	// it.)
	jo, err := c.Submit(ctx, "SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which talk ranks higher?');")
	if err != nil {
		fail("submit crowdorder: %v", err)
	}
	ito, err := jo.Rows(ctx)
	if err != nil {
		fail("crowdorder rows: %v", err)
	}
	firstCmp := -1
	ordered := 0
	for ito.Next() {
		if ordered == 0 {
			if stm, err := jo.Status(ctx); err == nil {
				firstCmp = stm.Stats.Comparisons
			}
		}
		ordered++
	}
	if err := ito.Err(); err != nil {
		fail("crowdorder stream: %v", err)
	}
	if ordered == 0 || ito.FinalState() != "done" {
		fail("crowdorder stream: %d rows before trailer, trailer state %q (err %v)",
			ordered, ito.FinalState(), ito.FinalError())
	}
	ito.Close()
	sto, err := jo.Wait(ctx)
	if err != nil {
		fail("crowdorder wait: %v", err)
	}
	if sto.State != "done" || sto.Stats.Comparisons == 0 || sto.RowsEmitted != ordered {
		fail("crowdorder job: state=%s cmp=%d streamed=%d emitted=%d (err %v)",
			sto.State, sto.Stats.Comparisons, ordered, sto.RowsEmitted, sto.Error)
	}
	if firstCmp >= 0 && firstCmp < sto.Stats.Comparisons {
		fmt.Printf("crowdsmoke: crowdorder job %s streamed row 1 at %d of %d comparisons\n",
			jo.ID(), firstCmp, sto.Stats.Comparisons)
	} else {
		fmt.Printf("crowdsmoke: crowdorder job %s streamed %d rows ahead of the done trailer (¢%.1f, %d comparisons)\n",
			jo.ID(), ordered, sto.SpentCents, sto.Stats.Comparisons)
	}

	// 3. Submit a long crowd sort and cancel it mid-flight: the job must
	// reach the cancelled state (not hang on the crowd wait).
	job2, err := c.Submit(ctx, "SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which talk sounds more interesting?');")
	if err != nil {
		fail("submit job 2: %v", err)
	}
	if _, err := job2.Cancel(ctx); err != nil {
		fail("cancel: %v", err)
	}
	st2, err := job2.Wait(ctx)
	if err != nil {
		fail("wait cancelled: %v", err)
	}
	if st2.State != "cancelled" && st2.State != "done" {
		// "done" is a benign race: the job finished before the cancel
		// landed. Anything else is a lifecycle bug.
		fail("job 2: state=%s (err %v)", st2.State, st2.Error)
	}
	fmt.Printf("crowdsmoke: job %s %s after cancel, ¢%.1f spent\n", job2.ID(), st2.State, st2.SpentCents)

	// 4. The session settled: budget accounting never goes negative and
	// the session resource is still reachable.
	info, err := c.SessionStatus(ctx)
	if err != nil {
		fail("session status: %v", err)
	}
	if info.BudgetLeft < -1 {
		fail("session budget corrupted: %+v", info)
	}
	fmt.Println("crowdsmoke: PASS")
}
