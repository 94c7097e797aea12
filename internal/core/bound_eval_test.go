package core

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestQuotedNumbersCompareAlikeOnEveryReadPath: `id = '42'` is served
// through the primary key (the reader coerces the literal to the key's
// type), `n = '42'` by the cursors and the evaluator's conversion, and IN /
// BETWEEN by the evaluator alone — all of them must agree, and a keyed
// UPDATE must find the row a SELECT finds. Before the evaluator had one
// comparison rule, IN ('42') found nothing and NOT IN ('42') found 42.
func TestQuotedNumbersCompareAlikeOnEveryReadPath(t *testing.T) {
	eng := newKVEngine(t, 60) // n = id
	ids := func(sql string) string {
		t.Helper()
		var out []string
		for _, r := range mustExec(t, eng, sql).Rows {
			out = append(out, r[0].String())
		}
		return strings.Join(out, ",")
	}
	for _, tc := range []struct{ pred, want string }{
		{"%s = '42'", "42"},
		{"%s IN ('42')", "42"},
		{"%s IN ('41', '42', NULL)", "41,42"},
		{"%s NOT IN ('42') AND %[1]s > 40 AND %[1]s < 45", "41,43,44"},
		{"%s BETWEEN '40' AND '42'", "40,41,42"},
		// An INTEGER against a quoted bound is ordered as text, under < as
		// under BETWEEN: keep to two-digit ids, where both orders agree.
		{"%s NOT BETWEEN '12' AND '57' AND %[1]s >= 10", "10,11,58,59"},
	} {
		typed := strings.ReplaceAll(tc.pred, "'", "")
		for _, pred := range []string{tc.pred, typed} {
			byKey := ids("SELECT id FROM kv WHERE " + fmt.Sprintf(pred, "id") + " ORDER BY id")
			byCursor := ids("SELECT id FROM kv WHERE " + fmt.Sprintf(pred, "n") + " ORDER BY id")
			if byKey != tc.want || byCursor != tc.want {
				t.Errorf("%s: by key %q, by cursor %q, want %q", pred, byKey, byCursor, tc.want)
			}
		}
	}
	if res := mustExec(t, eng, "UPDATE kv SET grp = 'hit' WHERE id = '42'"); res.Affected != 1 {
		t.Errorf("keyed UPDATE with a quoted key touched %d rows", res.Affected)
	}
	if res := mustExec(t, eng, "UPDATE kv SET grp = 'hit' WHERE n IN ('42', '43')"); res.Affected != 2 {
		t.Errorf("UPDATE ... IN with quoted numbers touched %d rows", res.Affected)
	}
	if got := ids("SELECT id FROM kv WHERE grp = 'hit' ORDER BY id"); got != "42,43" {
		t.Errorf("rows updated: %s", got)
	}
}

var updateExplain = flag.Bool("update-explain", false, "rewrite testdata/explain_scan_read.golden")

// scanReadEngine loads bench/perf's scan_read table: 20 000 talks, 2 500
// rooms of 8, nb_attendees spread over 0..999, on two shards.
func scanReadEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := Open(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	mustExec(t, eng, "CREATE TABLE Talk (title STRING PRIMARY KEY, room STRING, nb_attendees INTEGER)")
	mustExec(t, eng, "CREATE INDEX talk_room ON Talk (room)")
	for lo := 0; lo < 20000; lo += 500 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO Talk VALUES ")
		for i := lo; i < lo+500; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "('talk-%05d', 'room-%04d', %d)", i, i%2500, (i*7919+13)%1000)
		}
		mustExec(t, eng, sb.String())
	}
	return eng
}

var scanReadStatements = []string{
	"SELECT title, nb_attendees FROM Talk WHERE nb_attendees > 950",
	"SELECT room, COUNT(*), AVG(nb_attendees) FROM Talk WHERE nb_attendees < 950 GROUP BY room ORDER BY AVG(nb_attendees) DESC LIMIT 10",
	"SELECT title, nb_attendees FROM Talk WHERE nb_attendees > 950 ORDER BY nb_attendees DESC LIMIT 10",
}

// TestExplainScanReadStatements pins the plans of scan_read's three
// statements: the stop-after rule leaves its bound on the Sort under each
// LIMIT (`stopafter=10`), as it does on scans, and EXPLAIN ANALYZE shows
// the Sort holding that many rows at its peak, not its input — and not
// when the rule is off.
func TestExplainScanReadStatements(t *testing.T) {
	eng := scanReadEngine(t)
	var sb strings.Builder
	for _, sql := range scanReadStatements {
		fmt.Fprintf(&sb, "%s\n%s\n", sql, mustExec(t, eng, "EXPLAIN "+sql).Plan)
	}
	const golden = "testdata/explain_scan_read.golden"
	if *updateExplain {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("plans differ from %s (-update-explain rewrites it):\n%s", golden, sb.String())
	}
	if n := strings.Count(sb.String(), "stopafter=10"); n != 2 {
		t.Errorf("%d Sort lines carry stopafter=10, want 2 (the group and the top-k statement):\n%s", n, sb.String())
	}

	sortLine := regexp.MustCompile(`(?m)^\s*Sort\(.*$`)
	for i, sql := range scanReadStatements[1:] {
		line := sortLine.FindString(mustExec(t, eng, "EXPLAIN ANALYZE "+sql).Plan)
		if !strings.Contains(line, "peak 10 buffered") {
			t.Errorf("statement %d: the Sort under LIMIT 10 should hold 10 rows at its peak: %q", i+2, line)
		}
	}
	// Without a LIMIT the Sort holds its whole input.
	line := sortLine.FindString(mustExec(t, eng, "EXPLAIN ANALYZE SELECT title FROM Talk WHERE nb_attendees > 950 ORDER BY nb_attendees DESC").Plan)
	if strings.Contains(line, "stopafter") || !strings.Contains(line, "peak 980 buffered") {
		t.Errorf("an unbounded Sort buffers its input (980 rows): %q", line)
	}
}
