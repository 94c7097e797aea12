// Command crowddbd is the CrowdDB query server: one shared engine over
// the simulated crowd, served to many concurrent sessions over one
// HTTP/JSON API in which every statement is a job. Sessions share the
// store, catalog, task manager, and comparison cache — identical
// in-flight crowd questions from different sessions collapse into one
// HIT group.
//
// Usage:
//
//	crowddbd                          # HTTP on :8090, in-memory, simulated AMT
//	crowddbd -http :8080              # another listen address
//	crowddbd -data ./db -demo         # durable, pre-loaded conference schema
//	crowddbd -budget 50               # default per-session comparison budget
//	crowddbd -shards 8 -wal-sync group  # storage fan-out and WAL durability
//
// A quick session (docs/openapi.yaml is the contract; `crowddb -server
// http://localhost:8090` is the interactive line client and
// pkg/client.Query the synchronous form):
//
//	curl -s localhost:8090/v1/queries -d '{"sql":"SHOW TABLES;"}'
//	curl -sN localhost:8090/v1/queries/j000001/rows     # stream partial rows
//	curl -s -X DELETE localhost:8090/v1/queries/j000001 # cancel
//	curl -sN localhost:8090/v1/queries -H 'Accept: application/x-ndjson' \
//	     -d '{"sql":"SHOW TABLES;"}'                    # submit and stream in one exchange
//	curl -s localhost:8090/v1/queries/j000001/trace    # span tree
//	curl -s localhost:8090/stats
//	curl -s localhost:8090/metrics                     # Prometheus text
//	curl -s localhost:8090/healthz
//
// SIGINT/SIGTERM drain gracefully: running queries finish, new ones are
// refused, open row streams get their trailer, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // profiling endpoints for the -pprof listener
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"crowddb"
	"crowddb/internal/crowd"
	"crowddb/internal/crowd/model"
	"crowddb/internal/faultinject"
	"crowddb/internal/server"
	"crowddb/internal/storage"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

func main() {
	httpAddr := flag.String("http", ":8090", "HTTP/JSON listen address")
	data := flag.String("data", "", "data directory (empty = in-memory)")
	platform := flag.String("platform", "amt", "crowd platform: amt, mobile, model, or none")
	seed := flag.Int64("seed", 1, "crowd simulation seed")
	modelTier := flag.String("model-tier", "", "route HITs model-first with human escalation: a model profile spec — 'sharp', 'cheap', or preset,key=value overrides (accuracy=, confidence=, latency=, workers=, ...); empty = disabled")
	modelReward := flag.Int("model-reward", 0, "model-tier reward in cents per assignment (0 = the profile's cost)")
	modelAssignments := flag.Int("model-assignments", 1, "model-tier replication per HIT")
	confidenceFloor := flag.Float64("confidence-floor", 0.75, "escalate a HIT whose mean model confidence is below this")
	agreementFloor := flag.Float64("agreement-floor", 0.66, "escalate a HIT whose model votes agree below this share")
	modelVoteWeight := flag.Float64("model-vote-weight", 0.6, "weight of a model vote relative to a human vote in tier-weighted resolution")
	adaptiveVotes := flag.Bool("adaptive-votes", false, "stop soliciting comparison votes once early answers are unanimous above the quorum floor")
	demo := flag.Bool("demo", false, "pre-load the paper's VLDB conference schema and talks")
	budget := flag.Int("budget", 0, "default per-session crowd-comparison budget (0 = unlimited)")
	maxSessions := flag.Int("max-sessions", 64, "maximum registered sessions")
	maxConcurrent := flag.Int("max-concurrent", 32, "maximum concurrently executing queries")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain deadline; queries still running at the deadline fail with shutting_down")
	admissionHeadroom := flag.Float64("admission-headroom", 0, "reject queries whose forecast crowd cost exceeds budget_left×headroom before posting any HIT (0 = admit everything)")
	shards := flag.Int("shards", 0, "storage shards per table (0 = one per CPU, capped; durable stores adopt their on-disk count)")
	walSync := flag.String("wal-sync", "group", "WAL durability: always, group, or off")
	slowQueryMs := flag.Int("slow-query-ms", 0, "dump span trees of statements/jobs slower than this to stderr (0 = disabled)")
	pprofAddr := flag.String("pprof", "", "pprof listen address, e.g. localhost:6060 (empty = disabled)")
	flag.Parse()

	if *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "crowddbd: nothing to serve (-http is empty)")
		os.Exit(1)
	}
	// Crash/fault-injection harness for the CI kill-and-restart smoke test:
	// CROWDDB_CRASHPOINTS="storage.wal.append=3,server.job.row=2" arms
	// countdown crashpoints that os.Exit(137) the process mid-write.
	if err := faultinject.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "crowddbd:", err)
		os.Exit(1)
	}

	conf := workload.NewConference(20, *seed)
	cfg := crowddb.Config{
		DataDir:            *data,
		Shards:             *shards,
		WALSync:            storage.SyncMode(*walSync),
		Oracle:             conf.Oracle(),
		Payment:            wrm.DefaultPolicy(),
		SlowQueryThreshold: time.Duration(*slowQueryMs) * time.Millisecond,
	}
	switch *platform {
	case "amt":
		cfg.Platform = crowddb.NewAMTPlatform(*seed)
	case "mobile":
		cfg.Platform = crowddb.NewMobilePlatform(*seed)
	case "model":
		cfg.Platform = crowddb.NewModelPlatform(*seed)
	case "none":
	default:
		fmt.Fprintf(os.Stderr, "crowddbd: unknown platform %q\n", *platform)
		os.Exit(1)
	}
	cfg.Tasks.AdaptiveVotes = *adaptiveVotes
	if *modelTier != "" {
		if cfg.Platform == nil {
			fmt.Fprintln(os.Stderr, "crowddbd: -model-tier needs a human platform to escalate to (-platform amt or mobile)")
			os.Exit(1)
		}
		prof, err := model.ParseSpec(*modelTier)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crowddbd:", err)
			os.Exit(1)
		}
		cfg.Tasks.ModelPlatform = model.New(model.Config{Seed: *seed, Profile: prof})
		cfg.Tasks.ModelReward = crowd.Cents(*modelReward)
		if cfg.Tasks.ModelReward <= 0 {
			cfg.Tasks.ModelReward = prof.CostPerCall
		}
		cfg.Tasks.ModelAssignments = *modelAssignments
		cfg.Tasks.ConfidenceFloor = *confidenceFloor
		cfg.Tasks.AgreementFloor = *agreementFloor
		cfg.Tasks.ModelVoteWeight = *modelVoteWeight
	}

	db, err := crowddb.Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowddbd:", err)
		os.Exit(1)
	}
	defer db.Close()

	if *demo {
		if _, err := db.Exec(conf.DemoScript()); err != nil {
			fmt.Fprintln(os.Stderr, "crowddbd: demo load:", err)
			os.Exit(1)
		}
		fmt.Println("demo schema loaded: Talk (10 talks, crowd columns), NotableAttendee (crowd table)")
	}

	srv := server.New(db.Engine(), server.Config{
		MaxSessions:       *maxSessions,
		MaxConcurrent:     *maxConcurrent,
		SessionBudget:     *budget,
		AdmissionHeadroom: *admissionHeadroom,
	})
	if *data != "" {
		// Durable jobs: every session, submission, state transition, emitted
		// row, and budget settlement is journaled with the store's fsync
		// contract, so a restart over the same -data recovers every job.
		if err := srv.EnableJournal(filepath.Join(*data, "jobs.log"), storage.SyncMode(*walSync)); err != nil {
			fmt.Fprintln(os.Stderr, "crowddbd: jobs journal:", err)
			os.Exit(1)
		}
	}

	errc := make(chan error, 1)
	if *pprofAddr != "" {
		// net/http/pprof registers on the DefaultServeMux; the API server
		// below uses its own mux, so profiling stays on its own listener.
		go func() {
			fmt.Printf("crowddbd: pprof on %s\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "crowddbd: pprof:", err)
			}
		}()
	}
	hs := &http.Server{Addr: *httpAddr, Handler: srv.HTTPHandler()}
	go func() {
		fmt.Printf("crowddbd: HTTP/JSON on %s (platform=%s data=%q)\n", *httpAddr, *platform, *data)
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("crowddbd: %s, draining...\n", sig)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "crowddbd:", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "crowddbd: drain:", err)
	}
	// Shutdown waited for the jobs, not for their HTTP handlers: drain those
	// under the same deadline, so a stream whose job just finished still
	// gets its trailer; only what outlives the deadline is cut.
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close() //nolint:errcheck // final teardown
	}
	rep := srv.Stats()
	fmt.Printf("crowddbd: served %d queries across %d sessions (%d rejected); cache %d entries, %d hits, %d shared flights\n",
		rep.Server.Queries, rep.Server.SessionsOpened, rep.Server.Rejected,
		rep.Cache.Size, rep.Cache.Hits, rep.Cache.Shared)
}
