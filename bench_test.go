package crowddb

// One testing.B benchmark per reproduced paper exhibit (the experiment
// index is internal/bench/registry.go, printed by crowdbench -list; the
// README's benchmark-regression section covers the seed-42 baselines in
// bench/baselines). Each iteration runs the full experiment in virtual
// time, so wall-clock numbers measure the simulation+engine cost while
// the printed tables (go run ./cmd/crowdbench) carry the paper-shaped
// results. A few engine micro-benchmarks follow.
import (
	"fmt"
	"strings"
	"testing"

	"crowddb/internal/bench"
	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

func benchExperiment(b *testing.B, run func(seed int64) *bench.Table) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := run(int64(i + 1))
		if len(tab.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1CompletionVsReward(b *testing.B) { benchExperiment(b, bench.E1CompletionVsReward) }
func BenchmarkE2TurnaroundVsBatch(b *testing.B)  { benchExperiment(b, bench.E2TurnaroundVsBatch) }
func BenchmarkE3WorkerAffinity(b *testing.B)     { benchExperiment(b, bench.E3WorkerAffinity) }
func BenchmarkE4MajorityVote(b *testing.B)       { benchExperiment(b, bench.E4MajorityVote) }
func BenchmarkE5CrowdProbe(b *testing.B)         { benchExperiment(b, bench.E5CrowdProbe) }
func BenchmarkE6CrowdJoin(b *testing.B)          { benchExperiment(b, bench.E6CrowdJoin) }
func BenchmarkE7EntityResolution(b *testing.B)   { benchExperiment(b, bench.E7EntityResolution) }
func BenchmarkE8CrowdOrder(b *testing.B)         { benchExperiment(b, bench.E8CrowdOrder) }
func BenchmarkE9UIGeneration(b *testing.B)       { benchExperiment(b, bench.E9UIGeneration) }
func BenchmarkE10OptimizerRules(b *testing.B)    { benchExperiment(b, bench.E10OptimizerRules) }
func BenchmarkE11Boundedness(b *testing.B)       { benchExperiment(b, bench.E11Boundedness) }
func BenchmarkE12MobileVsAMT(b *testing.B)       { benchExperiment(b, bench.E12MobileVsAMT) }
func BenchmarkE13Diurnal(b *testing.B)           { benchExperiment(b, bench.E13Diurnal) }
func BenchmarkE14VotePolicy(b *testing.B)        { benchExperiment(b, bench.E14VotePolicy) }
func BenchmarkE15AsyncScheduler(b *testing.B)    { benchExperiment(b, bench.E15AsyncScheduler) }
func BenchmarkE16ConcurrentSessions(b *testing.B) {
	benchExperiment(b, bench.E16ConcurrentSessions)
}

// --- engine micro-benchmarks (no crowd: the relational substrate) ---

func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE Talk (
		title STRING PRIMARY KEY, room STRING, nb_attendees INTEGER )`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		sql := fmt.Sprintf("INSERT INTO Talk VALUES ('talk-%04d', 'Room %d', %d)", i, i%10, i%300)
		if _, err := db.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkEnginePointLookup(b *testing.B) {
	db := benchDB(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(fmt.Sprintf("SELECT nb_attendees FROM Talk WHERE title = 'talk-%04d'", i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineScanFilter(b *testing.B) {
	db := benchDB(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT title FROM Talk WHERE nb_attendees > 150"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineAggregate(b *testing.B) {
	db := benchDB(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT room, COUNT(*), AVG(nb_attendees) FROM Talk GROUP BY room"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchPipeline(b *testing.B) {
	// The vectorized executor's bread-and-butter shape: scan → filter →
	// project → sort → limit, rows flowing between operators in batches.
	db := benchDB(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT title, nb_attendees FROM Talk WHERE nb_attendees > 50 ORDER BY nb_attendees DESC LIMIT 10"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanRead runs bench/perf's scan_read statement shapes over its
// table: 20 000 Talk rows (2 500 rooms of 8, nb_attendees spread over
// 0..999) on two shards, so every scan is a merge of two shard cursors, as
// the daemon's is. One client on an otherwise idle box: the one shape a
// per-shard worker fan-out won (ROADMAP item 1(d)), and bench/perf has no
// workload for it. The filter keeps ~5 % of the table.
func BenchmarkScanRead(b *testing.B) {
	const rows, rooms = 20000, 2500
	db, err := Open(Config{Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.Exec("CREATE TABLE Talk (title STRING PRIMARY KEY, room STRING, nb_attendees INTEGER)"); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec("CREATE INDEX talk_room ON Talk (room)"); err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < rows; lo += 500 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO Talk VALUES ")
		for i := lo; i < lo+500; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "('talk-%05d', 'room-%04d', %d)", i, i%rooms, (i*7919+13)%1000)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name, sql string
		want      int
	}{
		{"filter", "SELECT title, nb_attendees FROM Talk WHERE nb_attendees > 950", 980},
		{"group", "SELECT room, COUNT(*), AVG(nb_attendees) FROM Talk WHERE nb_attendees < 950 GROUP BY room ORDER BY AVG(nb_attendees) DESC LIMIT 10", 10},
		{"topk", "SELECT title, nb_attendees FROM Talk WHERE nb_attendees > 950 ORDER BY nb_attendees DESC LIMIT 10", 10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := db.Query(bc.sql)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != bc.want {
					b.Fatalf("%d rows, want %d", len(res.Rows), bc.want)
				}
			}
		})
	}
}

func BenchmarkEngineInsert(b *testing.B) {
	db, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v STRING)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'value-%d')", i, i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrowdProbeQuery(b *testing.B) {
	// Full crowd path: one probe query per iteration against a fresh talk.
	conf := workload.NewConference(2000, 1)
	db, err := Open(Config{
		Platform: NewAMTPlatform(1),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	db.Exec(`CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, nb_attendees CROWD INTEGER)`)
	for _, talk := range conf.Talks {
		db.Exec("INSERT INTO Talk (title) VALUES (" + sqltypes.NewString(talk.Title).SQLLiteral() + ")")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		talk := conf.Talks[i%len(conf.Talks)]
		if _, err := db.Query("SELECT abstract FROM Talk WHERE title = " +
			sqltypes.NewString(talk.Title).SQLLiteral()); err != nil {
			b.Fatal(err)
		}
	}
}
