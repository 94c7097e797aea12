package crowddb

import (
	"fmt"
	"strings"
	"testing"

	"crowddb/internal/sqltypes"
	"crowddb/internal/workload"
	"crowddb/internal/wrm"
)

func openDemo(t *testing.T, seed int64) (*DB, *workload.Conference) {
	t.Helper()
	conf := workload.NewConference(10, seed)
	db, err := Open(Config{
		Platform: NewAMTPlatform(seed),
		Oracle:   conf.Oracle(),
		Payment:  wrm.DefaultPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE Talk (
		title STRING PRIMARY KEY,
		abstract CROWD STRING,
		nb_attendees CROWD INTEGER )`); err != nil {
		t.Fatal(err)
	}
	for _, talk := range conf.Talks[:5] {
		if _, err := db.Exec("INSERT INTO Talk (title) VALUES (" +
			sqltypes.NewString(talk.Title).SQLLiteral() + ")"); err != nil {
			t.Fatal(err)
		}
	}
	return db, conf
}

func TestPublicAPIQuickstart(t *testing.T) {
	db, conf := openDemo(t, 21)
	res, err := db.Query("SELECT abstract FROM Talk WHERE title = " +
		sqltypes.NewString(conf.Talks[0].Title).SQLLiteral())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].IsUnknown() {
		t.Fatalf("crowd answer missing: %v", res.Rows)
	}
}

func TestFormatTable(t *testing.T) {
	db, _ := openDemo(t, 22)
	res, err := db.Query("SELECT title FROM Talk ORDER BY title LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTable(res)
	if !strings.Contains(out, "title") || !strings.Contains(out, "(2 rows)") {
		t.Errorf("format:\n%s", out)
	}
	// DML formatting.
	res, _ = db.Exec("INSERT INTO Talk (title) VALUES ('zz-extra')")
	if got := FormatTable(res); !strings.Contains(got, "1 row(s) affected") {
		t.Errorf("dml format: %q", got)
	}
	// Explain formatting.
	res, _ = db.Exec("EXPLAIN SELECT title FROM Talk")
	if got := FormatTable(res); !strings.Contains(got, "Scan") {
		t.Errorf("plan format: %q", got)
	}
	if FormatTable(nil) != "" {
		t.Error("nil result formats empty")
	}
}

func TestMobilePlatformConstructor(t *testing.T) {
	p := NewMobilePlatform(1)
	if p.Name() != "mobile" {
		t.Errorf("platform name: %s", p.Name())
	}
	if NewAMTPlatform(1).Name() != "amt" {
		t.Error("amt name")
	}
}

func TestOpenWithoutPlatform(t *testing.T) {
	db, err := Open(Config{Optimizer: OptimizerOptions{AllowUnbounded: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (x INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].Int() != 2 {
		t.Errorf("crowd-free engine: %v %v", res, err)
	}
}

// TestAggregateUnderAnyExpression: an aggregate call is a leaf of the
// ordinary expression, so every operator and scalar function may wrap one,
// in the select list and in HAVING alike.
func TestAggregateUnderAnyExpression(t *testing.T) {
	db, err := Open(Config{Optimizer: OptimizerOptions{AllowUnbounded: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, sql := range []string{
		"CREATE TABLE m (id INTEGER PRIMARY KEY, name STRING, x INTEGER)",
		"INSERT INTO m VALUES (1, 'ann', 2), (2, 'bob', 5), (3, 'amy', 3), (4, 'al', 2), (5, 'cy', NULL)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	for sql, want := range map[string]string{
		"SELECT COUNT(*) FROM m HAVING COUNT(*) BETWEEN 2 AND 5":                  "[[5]]",
		"SELECT MAX(x) FROM m HAVING MAX(x) IN (2, 5)":                            "[[5]]",
		"SELECT UPPER(MIN(name)) FROM m":                                          "[[AL]]",
		"SELECT COALESCE(SUM(x), 0), COALESCE(SUM(x), 0) + 1 FROM m WHERE id > 3": "[[2 3]]",
		"SELECT MIN(name) FROM m HAVING MIN(name) IS NOT NULL":                    "[[al]]",
		"SELECT MIN(name) || '!' FROM m":                                          "[[al!]]",
		"SELECT MIN(name) FROM m HAVING MIN(name) LIKE 'b%'":                      "[]",
		"SELECT COUNT(*), COALESCE(SUM(x), 0) FROM m WHERE id > 9999":             "[[0 0]]",
		"SELECT COUNT(*), 5 FROM m WHERE id > 9999":                               "[[0 5]]",
	} {
		res, err := db.Query(sql)
		if err != nil {
			t.Errorf("%s: %v", sql, err)
			continue
		}
		if got := fmt.Sprint(res.Rows); got != want {
			t.Errorf("%s = %s, want %s", sql, got, want)
		}
	}
}

// TestOrderByAggregateNotSelected: ORDER BY may name an aggregate the
// select list lacks, bare or inside an expression, with or without LIMIT.
// The Aggregate computes it as a hidden column the result does not show.
func TestOrderByAggregateNotSelected(t *testing.T) {
	db, err := Open(Config{Optimizer: OptimizerOptions{AllowUnbounded: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, sql := range []string{
		"CREATE TABLE t (id INTEGER PRIMARY KEY, g STRING, v INTEGER)",
		// a: 3 rows, SUM 6, spread 2; b: 1 row, SUM 10, spread 0; c: 2 rows, SUM 9, spread 1.
		"INSERT INTO t VALUES (1, 'a', 1), (2, 'b', 10), (3, 'a', 2), (4, 'c', 4), (5, 'a', 3), (6, 'c', 5)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ sql, cols, want string }{
		{"SELECT g FROM t GROUP BY g ORDER BY COUNT(*) DESC LIMIT 2", "[g]", "[[a] [c]]"},
		{"SELECT g FROM t GROUP BY g ORDER BY COUNT(*) DESC", "[g]", "[[a] [c] [b]]"},
		{"SELECT g FROM t GROUP BY g ORDER BY COUNT(*) * 2", "[g]", "[[b] [c] [a]]"},
		{"SELECT g FROM t GROUP BY g ORDER BY COUNT(*) * 2 DESC LIMIT 1", "[g]", "[[a]]"},
		{"SELECT g FROM t GROUP BY g ORDER BY SUM(v)", "[g]", "[[a] [c] [b]]"},
		{"SELECT g FROM t GROUP BY g ORDER BY SUM(v) DESC LIMIT 1 OFFSET 1", "[g]", "[[c]]"},
		{"SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY MAX(v) - MIN(v), g LIMIT 2", "[g COUNT(*)]", "[[b 1] [c 2]]"},
		{"SELECT g AS grp FROM t GROUP BY g HAVING COUNT(*) > 1 ORDER BY SUM(v) DESC", "[grp]", "[[c] [a]]"},
		{"SELECT COUNT(*) FROM t GROUP BY g ORDER BY SUM(v), COUNT(*)", "[COUNT(*)]", "[[3] [2] [1]]"},
		{"SELECT g FROM t GROUP BY g ORDER BY SUM(v), SUM(v) DESC LIMIT 2", "[g]", "[[a] [c]]"},
	} {
		res, err := db.Query(c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if cols, got := fmt.Sprint(res.Columns), fmt.Sprint(res.Rows); cols != c.cols || got != c.want {
			t.Errorf("%s = %s %s, want %s %s", c.sql, cols, got, c.cols, c.want)
		}
	}
}

// TestExplainReportsCosts: EXPLAIN annotates every operator with the cost
// model's predicted cents and seconds, plus the statement total.
func TestExplainReportsCosts(t *testing.T) {
	db, _ := openDemo(t, 31)
	res, err := db.Exec(`EXPLAIN SELECT abstract FROM Talk LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "¢") {
		t.Errorf("EXPLAIN must show predicted cents:\n%s", res.Plan)
	}
	if !strings.Contains(res.Plan, "predicted: ") {
		t.Errorf("EXPLAIN must show the statement total:\n%s", res.Plan)
	}
}

// TestPredictedVsActualFeedback: executing a crowd query records the
// forecast next to the measured spend, and the engine aggregates the
// error for /stats.
func TestPredictedVsActualFeedback(t *testing.T) {
	db, _ := openDemo(t, 32)
	res, err := db.Query(`SELECT abstract FROM Talk`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicted.Cents <= 0 {
		t.Errorf("crowd probe query must forecast a spend: %+v", res.Predicted)
	}
	if res.ActualCents <= 0 {
		t.Errorf("measured spend missing: %v", res.ActualCents)
	}
	cms := db.Engine().CostModel()
	if cms.Statements == 0 || cms.ActualCents != res.ActualCents {
		t.Errorf("engine must aggregate the error: %+v", cms)
	}
	// The forecast converges: repeated probes are memorized, so the
	// second run predicts (and pays) nothing.
	res2, err := db.Query(`SELECT abstract FROM Talk`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ActualCents != 0 {
		t.Errorf("memorized answers must be free: %v", res2.ActualCents)
	}
	if res2.Predicted.Cents >= res.Predicted.Cents {
		t.Errorf("forecast must shrink once answers are stored: %v -> %v",
			res.Predicted.Cents, res2.Predicted.Cents)
	}
}

// TestKeysAreExactWhereCompareIs: a primary key, GROUP BY, DISTINCT, an
// equi-join and an index all tell values apart exactly where comparison
// does — integers one apart past 2^53, which float64 cannot tell apart,
// and the two zeros, which are equal.
func TestKeysAreExactWhereCompareIs(t *testing.T) {
	db, err := Open(Config{Optimizer: OptimizerOptions{AllowUnbounded: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, c := range []struct {
		name  string
		setup []string
		query string
		want  string
	}{
		{"primary key past 2^53", []string{
			"CREATE TABLE b (k INTEGER PRIMARY KEY, s STRING)",
			"INSERT INTO b VALUES (9007199254740992, 'a')",
			"INSERT INTO b VALUES (9007199254740993, 'b')",
		}, "SELECT k, s FROM b ORDER BY k", "[[9007199254740992 a] [9007199254740993 b]]"},
		{"GROUP BY past 2^53", []string{
			"CREATE TABLE g (id INTEGER PRIMARY KEY, k INTEGER)",
			"INSERT INTO g VALUES (1, 9007199254740992), (2, 9007199254740993)",
		}, "SELECT k, COUNT(*) FROM g GROUP BY k ORDER BY k", "[[9007199254740992 1] [9007199254740993 1]]"},
		{"DISTINCT past 2^53", nil,
			"SELECT DISTINCT k FROM g ORDER BY k", "[[9007199254740992] [9007199254740993]]"},
		{"equi-join past 2^53", []string{
			"CREATE TABLE j (id INTEGER PRIMARY KEY, k INTEGER)",
			"INSERT INTO j VALUES (1, 9007199254740993)",
		}, "SELECT g.id, j.id FROM g JOIN j ON g.k = j.k", "[[2 1]]"},
		// `x = 0` counts both zeros, with or without the fix.
		{"GROUP BY over both zeros", []string{
			"CREATE TABLE h (n INTEGER PRIMARY KEY, x FLOAT)",
			"INSERT INTO h VALUES (1, -0.0), (2, 0.0)",
		}, "SELECT COUNT(*) FROM h GROUP BY x", "[[2]]"},
		{"DISTINCT over both zeros", nil, "SELECT DISTINCT x FROM h", "[[-0]]"},
		{"an index finds both zeros", []string{"CREATE INDEX hx ON h (x)"},
			"SELECT n FROM h WHERE x = 0 ORDER BY n", "[[1] [2]]"},
	} {
		for _, sql := range c.setup {
			if _, err := db.Exec(sql); err != nil {
				t.Errorf("%s: %s: %v", c.name, sql, err)
			}
		}
		res, err := db.Query(c.query)
		if err != nil {
			t.Errorf("%s: %s: %v", c.name, c.query, err)
			continue
		}
		if got := fmt.Sprint(res.Rows); got != c.want {
			t.Errorf("%s: %s = %s, want %s", c.name, c.query, got, c.want)
		}
	}
}

// TestBoundedSortSeesEveryStoredRow: a LIMIT under an ORDER BY bounds the
// sort, not the read beneath it, over a table with a crowd column as over
// any other. Without a platform nothing is asked; only a LIMIT straight
// over the read stops it early.
func TestBoundedSortSeesEveryStoredRow(t *testing.T) {
	db, err := Open(Config{Optimizer: OptimizerOptions{AllowUnbounded: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, sql := range []string{
		"CREATE TABLE T (id INTEGER PRIMARY KEY, v INTEGER, note CROWD STRING)",
		"INSERT INTO T (id, v, note) VALUES (0, 5, 'a'), (1, 9, 'b'), (2, 1, 'c')",
		"INSERT INTO T (id, v) VALUES (3, 50), (4, 40), (5, 30), (6, 2), (7, 3), (8, 4), (9, 6)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for _, c := range []struct{ query, want string }{
		{"SELECT id, v FROM T ORDER BY v DESC LIMIT 3", "[[3 50] [4 40] [5 30]]"},
		{"SELECT id, note FROM T ORDER BY v DESC LIMIT 2", "[[3 CNULL] [4 CNULL]]"},
		{"SELECT id FROM T WHERE note IS NOT CNULL ORDER BY v LIMIT 2", "[[2] [0]]"},
		{"SELECT id FROM T LIMIT 3", "[[0] [1] [2]]"},
	} {
		res, err := db.Query(c.query)
		if err != nil {
			t.Errorf("%s: %v", c.query, err)
			continue
		}
		if got := fmt.Sprint(res.Rows); got != c.want {
			t.Errorf("%s = %s, want %s", c.query, got, c.want)
		}
	}
}
