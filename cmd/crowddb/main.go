// Command crowddb is the interactive CrowdSQL shell: a CrowdDB engine
// over the simulated crowd, mirroring the demo the paper gave at VLDB.
//
// Usage:
//
//	crowddb                         # in-memory, simulated AMT crowd
//	crowddb -data ./mydb            # durable: schema/data/answers persist
//	crowddb -platform mobile        # use the VLDB mobile crowd
//	crowddb -demo                   # pre-load the paper's conference schema
//	crowddb -shards 8               # hash-partition tables across 8 shards
//	crowddb -wal-sync always        # fsync every WAL record (default: group)
//	crowddb -budget 25              # cap the session at 25 paid comparisons
//	crowddb -server http://host:8090  # no local engine: drive that crowddbd
//
// Every statement goes through the v1 Jobs API (pkg/client). Without
// -server the shell opens the engine the flags describe and serves it
// in process on a loopback listener, as crowddbd would; with -server the
// engine flags are ignored. Either way statements run as jobs of one
// session (-budget caps its paid comparisons), rows print the moment the
// server streams them, and Ctrl-C cancels the running job instead of
// ending the shell.
//
// Inside the shell, CrowdSQL statements end with ';'. Extra commands:
//
//	\help             show help
//	\stats            server, cache, crowd and cost-model counters
//	\session          the session's queries, budget and crowd work
//	\quit             exit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"crowddb"
	"crowddb/internal/server"
	"crowddb/internal/storage"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

func main() { os.Exit(run()) }

// run is the shell; it returns the exit status once every deferred
// teardown (session, in-process server, engine) has run.
func run() int {
	data := flag.String("data", "", "data directory (empty = in-memory)")
	platform := flag.String("platform", "amt", "crowd platform: amt, mobile, or none")
	seed := flag.Int64("seed", 1, "crowd simulation seed")
	demo := flag.Bool("demo", false, "pre-load the paper's VLDB conference schema and talks")
	command := flag.String("c", "", "execute this CrowdSQL script and exit (non-interactive)")
	shards := flag.Int("shards", 0, "storage shards per table (0 = one per CPU, capped; durable stores adopt their on-disk count)")
	walSync := flag.String("wal-sync", "group", "WAL durability: always, group, or off")
	url := flag.String("server", "", "crowddbd base URL to drive instead of serving an in-process engine opened from the flags above")
	budget := flag.Int("budget", 0, "session crowd-comparison budget (0 = the server's default; unlimited in process)")
	flag.Parse()

	if *url != "" {
		return serverMain(*url, "server="+*url, *command, *budget)
	}

	conf := workload.NewConference(20, *seed)
	cfg := crowddb.Config{
		DataDir: *data,
		Shards:  *shards,
		WALSync: storage.SyncMode(*walSync),
		Oracle:  conf.Oracle(),
		Payment: wrm.DefaultPolicy(),
	}
	switch *platform {
	case "amt":
		cfg.Platform = crowddb.NewAMTPlatform(*seed)
	case "mobile":
		cfg.Platform = crowddb.NewMobilePlatform(*seed)
	case "none":
	default:
		fmt.Fprintf(os.Stderr, "crowddb: unknown platform %q\n", *platform)
		return 1
	}

	db, err := crowddb.Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowddb:", err)
		return 1
	}
	defer db.Close()

	if *demo {
		if _, err := db.Exec(conf.DemoScript()); err != nil {
			fmt.Fprintln(os.Stderr, "crowddb: demo load:", err)
			return 1
		}
		fmt.Println("demo schema loaded: Talk (10 talks, crowd columns), NotableAttendee (crowd table)")
	}

	_, local, shutdown, err := serveLocal(db)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowddb:", err)
		return 1
	}
	defer shutdown()
	return serverMain(local, fmt.Sprintf("platform=%s data=%q", *platform, *data), *command, *budget)
}

// serveLocal serves db's engine the way crowddbd does, on a loopback
// listener, and returns the server, its base URL and a shutdown that
// drains the jobs and then the HTTP handlers.
func serveLocal(db *crowddb.DB) (*server.Server, string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := server.New(db.Engine(), server.Config{})
	hs := &http.Server{Handler: srv.HTTPHandler()}
	go hs.Serve(ln) //nolint:errcheck // ErrServerClosed once shutdown runs
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // a job past the deadline fails with shutting_down
		if hs.Shutdown(ctx) != nil {
			hs.Close() //nolint:errcheck // final teardown
		}
	}
	return srv, "http://" + ln.Addr().String(), shutdown, nil
}

// readLoop is the shell's read loop over in: a line starting with '\'
// outside a statement goes to command, which reports whether the shell
// should exit; other lines accumulate until one ends with ';', and the
// statement goes to run. It returns at \quit or the end of in, with the
// error that stopped reading in, if any (a line over 1 MiB).
func readLoop(in io.Reader, run func(sql string), command func(cmd string) bool) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(nil, 1<<20)
	var buf strings.Builder
	prompt := "crowddb> "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if command(trimmed) {
				return nil
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.HasSuffix(trimmed, ";") {
			prompt = "      -> "
			continue
		}
		prompt = "crowddb> "
		sql := buf.String()
		buf.Reset()
		run(sql)
	}
}
