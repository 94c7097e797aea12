package main

// Server mode: with -server the shell keeps no local engine at all — it
// drives a crowddbd over the v1 Jobs API through the public SDK
// (pkg/client). Statements submit as jobs, rows print the moment the
// server streams them (crowd queries show partial results while HIT
// groups are still in flight), and Ctrl-C cancels the running job
// instead of killing the shell.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"crowddb/pkg/client"
)

// serverMain is the shell entry point in -server mode. command, when
// non-empty, runs one script and exits.
func serverMain(url, command string, budget int) {
	ctx := context.Background()
	c := client.New(url)
	if !c.Healthy(ctx) {
		fmt.Fprintf(os.Stderr, "crowddb: server %s is not healthy\n", url)
		os.Exit(1)
	}
	if _, err := c.CreateSession(ctx, budget); err != nil {
		fmt.Fprintln(os.Stderr, "crowddb: create session:", err)
		os.Exit(1)
	}
	defer c.CloseSession(context.Background()) //nolint:errcheck // best-effort teardown

	if command != "" {
		if !runRemote(ctx, c, command) {
			os.Exit(1)
		}
		return
	}

	fmt.Printf("CrowdDB shell — server=%s session=%s (\\help for help)\n", url, c.Session())
	readLoop(os.Stdin, func(sql string) { runRemote(ctx, c, sql) }, func(cmd string) bool { return remoteCommand(ctx, c, cmd) })
}

// runRemote executes one script as a job, streaming rows as they arrive;
// it reports success. Ctrl-C cancels the job and lets the budget settle.
func runRemote(parent context.Context, c *client.Client, sql string) bool {
	ctx, stop := signal.NotifyContext(parent, syscall.SIGINT)
	defer stop()
	job, err := c.Submit(parent, sql)
	if err != nil {
		fmt.Println("error:", err)
		return false
	}
	it, err := job.Rows(parent)
	if err != nil {
		fmt.Println("error:", err)
		return false
	}
	defer it.Close()
	header := false
	n := 0
	for {
		// Streamed printing: each row appears as the server produces it.
		done := make(chan bool, 1)
		go func() { done <- it.Next() }()
		select {
		case ok := <-done:
			if !ok {
				goto finished
			}
		case <-ctx.Done():
			fmt.Println("\ncancelling...")
			if _, err := job.Cancel(parent); err != nil {
				fmt.Println("error:", err)
			}
			<-done // drain the in-flight Next
			goto finished
		}
		row := it.Row()
		if !header {
			// Columns are known by the time the first row streams.
			if st, err := job.Status(parent); err == nil && len(st.Columns) > 0 {
				fmt.Println(strings.Join(st.Columns, " | "))
				fmt.Println(strings.Repeat("-", 3*len(st.Columns)+8))
			}
			header = true
		}
		cells := make([]string, len(row))
		for i := range row {
			cells[i] = row.Cell(i)
		}
		fmt.Println(strings.Join(cells, " | "))
		n++
	}
finished:
	if err := it.Err(); err != nil {
		fmt.Println("error:", err)
		return false
	}
	st, err := job.Wait(parent)
	if err != nil {
		fmt.Println("error:", err)
		return false
	}
	switch st.State {
	case "done":
		if st.Plan != "" {
			fmt.Print(st.Plan)
		} else if len(st.Columns) == 0 {
			fmt.Printf("%d row(s) affected\n", st.Affected)
		} else {
			fmt.Printf("(%d rows)\n", n)
		}
		for _, w := range st.Warnings {
			fmt.Println("warning:", w)
		}
		if s := st.Stats; s.ProbeRequests+s.NewTupleRequests+s.Comparisons > 0 {
			fmt.Printf("crowd: %d probes, %d tuple solicitations, %d comparisons (%d cached)\n",
				s.ProbeRequests, s.NewTupleRequests, s.Comparisons, s.CacheHits)
		}
		if st.PredictedCents > 0 || st.SpentCents > 0 {
			fmt.Printf("cost: predicted ¢%.1f, spent ¢%.1f\n", st.PredictedCents, st.SpentCents)
		}
		return true
	case "cancelled":
		fmt.Printf("cancelled after %d row(s), ¢%.1f spent\n", st.RowsEmitted, st.SpentCents)
		return true
	default:
		if st.Error != nil {
			fmt.Println("error:", st.Error)
		} else {
			fmt.Println("error: job ended", st.State)
		}
		return false
	}
}

// remoteCommand handles \-commands in server mode; reports exit.
func remoteCommand(ctx context.Context, c *client.Client, cmd string) bool {
	switch strings.Fields(cmd)[0] {
	case "\\quit", "\\q":
		return true
	case "\\help":
		fmt.Println(`CrowdSQL statements end with ';' and run as server-side jobs
(rows stream as the crowd answers; Ctrl-C cancels the running job).
Commands: \stats \session \quit`)
	case "\\stats":
		raw, err := c.Stats(ctx)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		var pretty map[string]json.RawMessage
		if err := json.Unmarshal(raw, &pretty); err != nil {
			fmt.Println(string(raw))
			return false
		}
		for _, k := range []string{"server", "cache", "tasks", "cost_model"} {
			if v, ok := pretty[k]; ok {
				fmt.Printf("%s: %s\n", k, v)
			}
		}
	case "\\session":
		info, err := c.SessionStatus(ctx)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("session=%s queries=%d budget_left=%d comparisons=%d cache_hits=%d\n",
			info.ID, info.Queries, info.BudgetLeft, info.Stats.Comparisons, info.Stats.CacheHits)
	default:
		fmt.Println("unknown command; \\help for help")
	}
	return false
}
