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
//	crowddb -server http://host:8090  # no local engine: drive a crowddbd
//	                                  # through the v1 Jobs API (pkg/client);
//	                                  # rows stream live, Ctrl-C cancels
//
// Inside the shell, CrowdSQL statements end with ';'. Extra commands:
//
//	\help             show help
//	\stats            crowd activity counters for the session
//	\workers          the worker community (quality scores)
//	\templates        generated UI templates
//	\quit             exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"crowddb"
	"crowddb/internal/sqltypes"
	"crowddb/internal/storage"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

func main() {
	data := flag.String("data", "", "data directory (empty = in-memory)")
	platform := flag.String("platform", "amt", "crowd platform: amt, mobile, or none")
	seed := flag.Int64("seed", 1, "crowd simulation seed")
	demo := flag.Bool("demo", false, "pre-load the paper's VLDB conference schema and talks")
	command := flag.String("c", "", "execute this CrowdSQL script and exit (non-interactive)")
	shards := flag.Int("shards", 0, "storage shards per table (0 = one per CPU, capped; durable stores adopt their on-disk count)")
	walSync := flag.String("wal-sync", "group", "WAL durability: always, group, or off")
	server := flag.String("server", "", "crowddbd base URL; when set the shell runs remotely over the v1 Jobs API (pkg/client) instead of embedding an engine")
	budget := flag.Int("budget", 0, "remote-session crowd-comparison budget (-server mode; 0 = server default)")
	flag.Parse()

	if *server != "" {
		serverMain(*server, *command, *budget)
		return
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
		os.Exit(1)
	}

	db, err := crowddb.Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowddb:", err)
		os.Exit(1)
	}
	defer db.Close()

	if *demo {
		if err := loadDemo(db, conf); err != nil {
			fmt.Fprintln(os.Stderr, "crowddb: demo load:", err)
			os.Exit(1)
		}
		fmt.Println("demo schema loaded: Talk (10 talks, crowd columns), NotableAttendee (crowd table)")
	}

	if *command != "" {
		res, err := db.Exec(*command)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Print(crowddb.FormatTable(res))
		if res.Predicted.Cents > 0 || res.ActualCents > 0 {
			fmt.Printf("cost: predicted %s, actual ¢%.1f\n", res.Predicted, res.ActualCents)
		}
		return
	}

	fmt.Printf("CrowdDB shell — platform=%s data=%q (\\help for help)\n", *platform, *data)
	repl(db)
}

func loadDemo(db *crowddb.DB, conf *workload.Conference) error {
	if _, err := db.Exec(`CREATE TABLE Talk (
		title STRING PRIMARY KEY,
		abstract CROWD STRING,
		nb_attendees CROWD INTEGER )`); err != nil {
		return err
	}
	if _, err := db.Exec(`CREATE CROWD TABLE NotableAttendee (
		name STRING PRIMARY KEY,
		title STRING,
		FOREIGN KEY (title) REF Talk(title) )`); err != nil {
		return err
	}
	for _, talk := range conf.Talks[:10] {
		if _, err := db.Exec("INSERT INTO Talk (title) VALUES (" +
			sqltypes.NewString(talk.Title).SQLLiteral() + ")"); err != nil {
			return err
		}
	}
	return nil
}

func repl(db *crowddb.DB) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(nil, 1<<20)
	var buf strings.Builder
	prompt := "crowddb> "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if command(db, trimmed) {
				return
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
		res, err := db.Exec(sql)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Print(crowddb.FormatTable(res))
		for _, w := range res.Warnings {
			fmt.Println("warning:", w)
		}
		if res.Stats.ProbeRequests+res.Stats.NewTupleRequests+res.Stats.Comparisons > 0 {
			fmt.Printf("crowd: %d probes, %d tuple solicitations, %d comparisons (%d cached)\n",
				res.Stats.ProbeRequests, res.Stats.NewTupleRequests,
				res.Stats.Comparisons, res.Stats.CacheHits)
		}
		if res.Predicted.Cents > 0 || res.ActualCents > 0 {
			fmt.Printf("cost: predicted %s, actual ¢%.1f\n", res.Predicted, res.ActualCents)
		}
	}
}

// command handles \-commands; it reports whether the shell should exit.
func command(db *crowddb.DB, cmd string) bool {
	switch strings.Fields(cmd)[0] {
	case "\\quit", "\\q":
		return true
	case "\\help":
		fmt.Println(`CrowdSQL statements end with ';'. Examples:
  CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING);
  SELECT abstract FROM Talk WHERE title = 'CrowdDB';
  SELECT title FROM Talk ORDER BY CROWDORDER(title, "Which talk did you like better") LIMIT 10;
Commands: \stats \workers \templates \quit`)
	case "\\stats":
		if t := db.Engine().Tasks(); t != nil {
			s := t.Stats()
			fmt.Printf("groups=%d hits=%d assignments=%d decisions=%d crowd-time=%s spend=%s\n",
				s.GroupsPosted, s.HITsPosted, s.AssignmentsIn, s.Decisions, s.CrowdTime, s.ApprovedSpend)
			fmt.Printf("async: window=%d peak-in-flight=%d peak-queue=%d expired=%d rtt-p50=%s rtt-p90=%s\n",
				s.MaxInFlight, s.PeakInFlight, s.PeakQueueDepth, s.ExpiredGroups,
				s.GroupLatencyP50, s.GroupLatencyP90)
		} else {
			fmt.Println("no crowd platform attached")
		}
		c := db.Engine().CacheStats()
		fmt.Printf("compare-cache: size=%d hits=%d misses=%d shared-flights=%d\n",
			c.Size, c.Hits, c.Misses, c.Shared)
		if cms := db.Engine().CostModel(); cms.Statements > 0 {
			fmt.Printf("cost-model: %d statements, predicted=¢%.1f actual=¢%.1f mean-abs-err=%.0f%%\n",
				cms.Statements, cms.PredictedCents, cms.ActualCents, cms.MeanAbsPctErr)
		}
	case "\\workers":
		ws := db.Engine().WRM().Community()
		if len(ws) == 0 {
			fmt.Println("no workers yet")
		}
		for i, w := range ws {
			if i >= 15 {
				fmt.Printf("... and %d more\n", len(ws)-15)
				break
			}
			fmt.Printf("%-8s score=%.2f agreed=%d disagreed=%d\n", w.WorkerID, w.Score(), w.Agreed, w.Disagreed)
		}
	case "\\templates":
		for _, t := range db.Engine().UI().Templates() {
			table := t.Table
			if table == "" {
				table = "(generic)"
			}
			fmt.Printf("%-20s %-12s %s\n", table, t.Kind, t.Instructions)
		}
	default:
		fmt.Println("unknown command; \\help for help")
	}
	return false
}
