package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"crowddb/internal/lexer"
	"crowddb/internal/parser"
)

// keyOf is the plan-cache key of sql, one SELECT, INSERT, UPDATE or
// DELETE; "" when it has none.
func keyOf(t testing.TB, sql string) string {
	t.Helper()
	toks, err := lexer.Tokenize(sql)
	if err != nil {
		t.Fatal(err)
	}
	for len(toks) > 0 && isSemicolon(toks[len(toks)-1]) {
		toks = toks[:len(toks)-1]
	}
	if len(toks) == 0 || slices.ContainsFunc(toks, isSemicolon) || !keyed(toks) {
		return ""
	}
	key, _, ok := appendKey(nil, nil, toks, parser.ScanSlots(nil, toks))
	if !ok {
		return ""
	}
	return string(key)
}

// cachedAt is statement i of sc, taken in and not yet run, when the plan
// cache serves it unparsed — by the entry its key found at intake — and
// nil when it was parsed.
func cachedAt(sc *Script, i int) *statement {
	if st := &sc.stmts[i]; st.en.compiled() {
		return st
	}
	return nil
}

// TestPlanCacheKeyPairs: statements that differ in a slot literal's kind
// or in any literal that is no slot get keys of their own — and, run in
// turn, both stay cached — while the same statement with other slot
// values, other keyword case or other spacing shares one.
func TestPlanCacheKeyPairs(t *testing.T) {
	eng := talkEngine(t, 20)
	const byN = "SELECT title FROM Talk WHERE n = "
	separate := [][2]string{
		{byN + "1", byN + "1.0"},
		{byN + "1", byN + "'1'"},
		{byN + "1", byN + "NULL"},
		{byN + "1.0", byN + "'1'"},
		{byN + "1.0", byN + "NULL"},
		{byN + "'1'", byN + "NULL"},
		{byN + "-1", byN + "1"},
		{"SELECT title FROM Talk WHERE n IN (1, 2)", "SELECT title FROM Talk WHERE n IN (1, 2, 3)"},
		{"SELECT title FROM Talk WHERE n > 1 LIMIT 10", "SELECT title FROM Talk WHERE n > 1 LIMIT 20"},
		{"SELECT n + 1 FROM Talk WHERE title = 'talk-01'", "SELECT n + 2 FROM Talk WHERE title = 'talk-01'"},
		{"SELECT title FROM Talk WHERE n IN (SELECT n FROM Fav WHERE n > 3)", "SELECT title FROM Talk WHERE n IN (SELECT n FROM Fav WHERE n > 6)"},
	}
	for _, p := range separate {
		if ka, kb := keyOf(t, p[0]), keyOf(t, p[1]); ka == "" || ka == kb {
			t.Errorf("%s and %s share the key %q", p[0], p[1], ka)
			continue
		}
		// Run in turn, each keeps its entry: neither evicts the other.
		for round := 0; round < 2; round++ {
			mustExec(t, eng, p[0])
			mustExec(t, eng, p[1])
		}
		ea, oka := getEntry(&eng.plans, keyOf(t, p[0]))
		eb, okb := getEntry(&eng.plans, keyOf(t, p[1]))
		if !oka || !okb || ea.opt == eb.opt {
			t.Errorf("%s and %s, run in turn, are not both cached: %v, %v", p[0], p[1], oka, okb)
		}
	}
	shared := [][2]string{
		{"SELECT n FROM Talk WHERE title = 'talk-01'", "SELECT n FROM Talk WHERE title = 'talk-02'"},
		{byN + "-1", byN + "-7"},
		{byN + "3 AND room = 'Room 3'", byN + "4 AND room = 'Room 4'"},
		{"SELECT title FROM Talk WHERE n BETWEEN 1 AND 5", "SELECT title FROM Talk WHERE n BETWEEN 2 AND 9"},
		{"select title from Talk where n = 1", byN + "2"},
		{"SELECT  title FROM Talk /* why */ WHERE n=3;", byN + "4"},
	}
	for _, p := range shared {
		if ka, kb := keyOf(t, p[0]), keyOf(t, p[1]); ka == "" || ka != kb {
			t.Errorf("%s and %s do not share a key:\n %q\n %q", p[0], p[1], ka, kb)
			continue
		}
		mustExec(t, eng, p[0])
		sc, err := eng.Prepare(p[1])
		if err != nil {
			t.Fatal(err)
		}
		if cachedAt(&sc, 0) == nil {
			t.Errorf("%s is not served by the entry of %s", p[1], p[0])
			continue
		}
		if _, err := eng.ExecAt(context.Background(), &sc, 0, DefaultExecOpts()); err != nil {
			t.Errorf("%s: %v", p[1], err)
		}
	}
}

// TestPlanCacheEntryKeepsNoTokens: a SELECT cached from a script of
// several statements leaves the script's tokens behind — its entry holds
// the SELECT's tree alone — and the next statement of its key is served
// by it.
func TestPlanCacheEntryKeepsNoTokens(t *testing.T) {
	eng := talkEngine(t, 3)
	mustExec(t, eng, "INSERT INTO Talk VALUES ('talk-10', 'Room 0', 10); SELECT n FROM Talk WHERE title = 'talk-10'")
	en, ok := getEntry(&eng.plans, keyOf(t, "SELECT n FROM Talk WHERE title = 'talk-01'"))
	if !ok {
		t.Fatal("the script's SELECT is not cached")
	}
	if toks := en.sel.Tokens(); toks != nil {
		t.Errorf("the entry keeps %d tokens", len(toks))
	}
	sc, err := eng.Prepare("SELECT n FROM Talk WHERE title = 'talk-01'")
	if err != nil || cachedAt(&sc, 0) == nil {
		t.Fatalf("the entry does not serve the intake: %v", err)
	}
	if res, err := eng.ExecAt(context.Background(), &sc, 0, DefaultExecOpts()); err != nil || rowsText(res) != "1|" {
		t.Errorf("rows %v, %v; want 1", res, err)
	}
}

// TestPrepareScriptOfHitsDoesNotParse: a script of two or three
// statements whose shapes are cached goes through the intake without the
// parser, each statement served unparsed by its entry, and each answers
// with its own slot values: the writes before the last statement write
// their own rows, and the last one's answer is the script's.
func TestPrepareScriptOfHitsDoesNotParse(t *testing.T) {
	eng := talkEngine(t, 10)
	const (
		point  = "SELECT n FROM Talk WHERE title = 'talk-%02d'"
		insert = "INSERT INTO Talk VALUES ('talk-%02d', 'Room 9', %d)"
		update = "UPDATE Talk SET n = %d WHERE title = 'talk-%02d'"
	)
	mustExec(t, eng, fmt.Sprintf(point, 1))
	mustExec(t, eng, fmt.Sprintf(insert, 10, 10))
	mustExec(t, eng, fmt.Sprintf(update, 11, 10))
	for _, tc := range []struct {
		script string
		n      int // statements
		want   string
	}{
		{fmt.Sprintf(point+"; "+point, 2, 3), 2, "3|"},
		{fmt.Sprintf(insert+";\n"+point, 20, 20, 20), 2, "20|"},
		{fmt.Sprintf(insert+"; "+update+" ; "+point+";", 21, 21, 42, 21, 21), 3, "42|"},
		{fmt.Sprintf(";"+update+";;"+update+";"+point, 7, 2, 8, 3, 3), 3, "8|"},
	} {
		before := ParseCount()
		sc, err := eng.Prepare(tc.script)
		if err != nil {
			t.Fatalf("%s: %v", tc.script, err)
		}
		if n := ParseCount() - before; n != 0 || sc.Len() != tc.n {
			t.Errorf("%s: %d statements, parsed %d times; want %d, unparsed", tc.script, sc.Len(), n, tc.n)
			continue
		}
		var res *Result
		for i := range sc.Len() {
			if cachedAt(&sc, i) == nil {
				t.Fatalf("%s: statement %d is parsed", tc.script, i)
			}
			if res, err = eng.ExecAt(context.Background(), &sc, i, DefaultExecOpts()); err != nil {
				t.Fatalf("%s: statement %d: %v", tc.script, i, err)
			}
		}
		if got := rowsText(res); got != tc.want {
			t.Errorf("%s: rows %q, want %q", tc.script, got, tc.want)
		}
	}
	if got := rowsText(mustExec(t, eng, fmt.Sprintf(point, 2))); got != "7|" {
		t.Errorf("talk-02 reads %q after the script that updated it, want 7", got)
	}
}

// TestPrepareScriptServesOldKeysAfterDDL: a script that re-creates a
// dropped table, with its columns in another order, then writes and
// reads it is parsed — its CREATE TABLE is no statement the cache keys —
// yet its INSERT and SELECT are served by the entries the old table's
// statements left under their keys. Those recompile, their schema version
// moved, in place, and answer from the new table.
func TestPrepareScriptServesOldKeysAfterDDL(t *testing.T) {
	eng, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	const (
		insert = "INSERT INTO Box (id, label) VALUES (%d, '%s')"
		point  = "SELECT label FROM Box WHERE id = %d"
	)
	mustExec(t, eng, "CREATE TABLE Box (id INTEGER PRIMARY KEY, label STRING)")
	mustExec(t, eng, fmt.Sprintf(insert, 1, "a"))
	mustExec(t, eng, fmt.Sprintf(point, 1))
	mustExec(t, eng, "DROP TABLE Box")
	keys := []string{keyOf(t, fmt.Sprintf(insert, 1, "a")), keyOf(t, fmt.Sprintf(point, 1))}
	var slots []*keptExecutor
	for _, key := range keys {
		slots = append(slots, eng.plans.entries[key].kept)
	}

	script := "CREATE TABLE Box (w INTEGER, label STRING, id INTEGER PRIMARY KEY);\n" +
		fmt.Sprintf(insert, 2, "b") + ";\n" + fmt.Sprintf(point, 2)
	sc, err := eng.Prepare(script)
	if err != nil || sc.Len() != 3 {
		t.Fatalf("%d statements, %v", sc.Len(), err)
	}
	if cachedAt(&sc, 0) != nil {
		t.Fatal("the CREATE TABLE is served by a cached entry")
	}
	for i, key := range keys {
		if st := cachedAt(&sc, i+1); st == nil || st.key != key {
			t.Fatalf("statement %d is not served by its old key's entry", i+1)
		}
	}
	_, misses0 := planCounts(eng)
	var res *Result
	for i := range sc.Len() {
		if res, err = eng.ExecAt(context.Background(), &sc, i, DefaultExecOpts()); err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
	}
	if got := rowsText(res); got != "b|" {
		t.Errorf("rows %q, want b", got)
	}
	if _, misses := planCounts(eng); misses != misses0+2 {
		t.Errorf("%v misses, want the INSERT's and the SELECT's recompile", misses-misses0)
	}
	for i, key := range keys {
		if cp := eng.plans.entries[key]; cp == nil || cp.kept != slots[i] || cp.schema != eng.cat.SchemaVersion() {
			t.Errorf("the entry under statement %d's key was not recompiled in place", i+1)
		}
	}
	if got := rowsText(mustExec(t, eng, "SELECT id, label, w FROM Box")); got != "2|b|NULL|" {
		t.Errorf("the table holds %q", got)
	}
}

// TestPrepareScriptSyntaxErrorRunsNothing: a script whose last statement
// does not parse fails at intake with the parser's message, even when the
// statements before it are of cached shapes, and none of them runs.
func TestPrepareScriptSyntaxErrorRunsNothing(t *testing.T) {
	eng := talkEngine(t, 3)
	mustExec(t, eng, "INSERT INTO Talk VALUES ('talk-50', 'Room 0', 50)")
	mustExec(t, eng, "DELETE FROM Talk WHERE title = 'talk-50'")
	const script = "INSERT INTO Talk VALUES ('talk-51', 'Room 1', 51); DELETE FROM Talk WHERE title = 'talk-00'; SELECT n FROM Talk WHERE"
	const want = "parser: unexpected token end of input in expression (offset 0)"
	if _, err := eng.Exec(script); err == nil || err.Error() != want {
		t.Errorf("error %v, want %s", err, want)
	}
	if got := rowsText(mustExec(t, eng, "SELECT title FROM Talk")); got != "talk-00|\ntalk-01|\ntalk-02|" {
		t.Errorf("the table holds %q after a script that does not parse", got)
	}
}

// corpusEngine holds the tables the SELECTs of keyCorpus read, opened
// with cfg.
func corpusEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	for _, sql := range []string{
		"CREATE TABLE Talk (title STRING PRIMARY KEY, abstract STRING, nb_attendees INTEGER, room STRING, p STRING)",
		"CREATE INDEX talk_room ON Talk (room)",
		"CREATE TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING)",
		"CREATE TABLE company (name STRING PRIMARY KEY, hq STRING)",
		"CREATE TABLE paper (title STRING PRIMARY KEY, abstract STRING)",
		"CREATE TABLE t (x INTEGER PRIMARY KEY, y STRING, a STRING, b STRING, name STRING, abstract STRING)",
		"CREATE TABLE a (x INTEGER PRIMARY KEY, k INTEGER, n INTEGER, m STRING, c STRING)",
		"CREATE TABLE b (x INTEGER PRIMARY KEY, k INTEGER)",
		"CREATE TABLE c (z INTEGER PRIMARY KEY)",
		"CREATE TABLE vis (who STRING PRIMARY KEY, tid INTEGER)",
		"CREATE TABLE Pair (id INTEGER PRIMARY KEY, a STRING, b STRING, grp INTEGER)",
		"CREATE TABLE Keep (id INTEGER PRIMARY KEY)",
		"CREATE TABLE Item (name STRING PRIMARY KEY, grp INTEGER)",
		"CREATE TABLE G (g INTEGER PRIMARY KEY, w FLOAT)",
		"CREATE TABLE Professor (name STRING PRIMARY KEY, email STRING, department STRING)",
		"INSERT INTO Talk VALUES ('talk-03', 'a', 3, 'Room 1', 'x'), ('CrowdDB', NULL, 80, 'Room 2', 'y'), ('x', 'c', -3, 'Room 2', 'z'), ('talk-00042', 'd', 42, 'Room 1', 'w')",
		"INSERT INTO NotableAttendee VALUES ('ada', 'talk-03'), ('bob', 'CrowdDB'), ('cy', 'CrowdDB')",
		"INSERT INTO company VALUES ('UC Berkeley', 'CA'), ('A', 'x'), ('IBM', 'NY')",
		"INSERT INTO paper VALUES ('CrowdDB', 'crowds'), ('x', 'y')",
		"INSERT INTO t VALUES (1, 'x', 'a', 'b', 'CrowdDB', 'p'), (3, 'Room 2', 'ab', '', 'x', NULL), (7, NULL, 'talk-03', 'x', 'y', 'q')",
		"INSERT INTO a VALUES (1, 2, 3, 'y', 'c'), (3, 4, 7, 'x', NULL)",
		"INSERT INTO b VALUES (1, 3), (3, 5)",
		"INSERT INTO c VALUES (1), (2)",
		"INSERT INTO vis VALUES ('x', 3), ('y', 42), ('z', 7)",
		"INSERT INTO Pair VALUES (1, 'a', 'a', 3), (3, 'x', 'y', -3), (4, 'b', 'c', 7)",
		"INSERT INTO Keep VALUES (1), (4)",
		"INSERT INTO Item VALUES ('ant', 3), ('x', 7), ('talk-03', 42)",
		"INSERT INTO G VALUES (3, 2.5), (7, 80.5), (42, 0.5)",
		"INSERT INTO Professor VALUES ('ada', 'a@x', 'cs')",
	} {
		if _, err := eng.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return eng
}

// keyCorpus are the SELECTs of the parser's test corpus — its print
// fixpoints, fuzz seeds and bench/perf's statement shapes, read against
// corpusEngine's tables — the SELECTs the crowdbench experiments run
// (internal/bench), literals the parser folds a minus into, and DML
// shapes: durable_write's and a slot in each clause DML has.
var keyCorpus = []string{
	`SELECT title FROM Talk ORDER BY CROWDORDER(p, "Which talk did you like better") LIMIT 10`,
	`SELECT abstract FROM paper WHERE title = "CrowdDB"`,
	`SELECT title FROM Talk WHERE abstract IS NOT CNULL`,
	`SELECT * FROM company WHERE CROWDEQUAL(name, 'UC Berkeley')`,
	`SELECT * FROM company WHERE name ~= 'UC Berkeley'`,
	`SELECT * FROM a, b WHERE a.x = b.x`,
	`SELECT MIN(x), MAX(x), AVG(x), SUM(x), COUNT(x) FROM t`,
	`SELECT * FROM t WHERE x NOT IN (1, 2) AND name NOT LIKE '%DB' OR -5 < 1 + 2 * 3`,
	`SELECT *, t.* FROM t WHERE a || b = 'ab'`,
	`select title from talk where abstract is cnull limit 5`,
	`SELECT nb_attendees FROM Talk WHERE title = 'talk-00042'`,
	`SELECT room, COUNT(*), AVG(nb_attendees) FROM Talk WHERE nb_attendees < 950 GROUP BY room ORDER BY AVG(nb_attendees) DESC LIMIT 10`,
	`SELECT id FROM Pair WHERE grp = 3 AND a ~= b`,
	`SELECT name FROM Item WHERE grp = 3 ORDER BY CROWDORDER(name, 'Which is bigger?')`,
	`SELECT nb_attendees FROM Talk WHERE title = 'O''Brien''s talk'`,
	`SELECT nb_attendees FROM Talk WHERE title = NULL OR title = CNULL`,
	`SELECT room, COUNT(*) FROM Talk WHERE nb_attendees < -0.0 GROUP BY room ORDER BY COUNT(*) DESC LIMIT 10`,
	`SELECT room FROM Talk WHERE nb_attendees BETWEEN -9007199254740993 AND 9007199254740993`,
	`SELECT room FROM Talk WHERE nb_attendees IN (9007199254740993.0, -9007199254740993.0, 1e300, -0.0)`,
	`SELECT id FROM Pair WHERE grp = -3 AND a ~= 'x''y' AND TRUE = FALSE`,
	`SELECT name FROM Item WHERE grp IN (SELECT g FROM G WHERE w > 2.5) AND name LIKE 'a%' ORDER BY CROWDORDER(name, 'Which?') LIMIT 1`,
	`SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title WHERE t.nb_attendees > 50`,
	`SELECT title, COUNT(*) AS c FROM NotableAttendee GROUP BY title HAVING COUNT(*) > 2 ORDER BY c DESC LIMIT 5 OFFSET 2`,
	`SELECT DISTINCT name FROM company WHERE name ~= 'UC Berkeley' OR name IN ('A', 'B')`,
	`SELECT * FROM t WHERE x BETWEEN 1 AND 10 AND y IS NOT CNULL`,
	`SELECT * FROM a LEFT JOIN b ON a.x = b.x, c`,
	`SELECT who FROM vis WHERE tid IN (SELECT g FROM G WHERE w > 80)`,
	`SELECT who FROM vis WHERE tid NOT IN (SELECT tid FROM vis WHERE who = 'x')`,
	// internal/bench
	`SELECT name, email, department FROM Professor`,
	`SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title`,
	`SELECT name FROM NotableAttendee WHERE title = 'X'`,
	`SELECT name FROM company WHERE name ~= 'IBM'`,
	`SELECT title FROM Talk ORDER BY CROWDORDER(title, "Which talk did you like better")`,
	`SELECT abstract FROM Talk WHERE room = 'Room 1' LIMIT 3`,
	`SELECT n.name FROM NotableAttendee n JOIN Talk t ON n.title = t.title WHERE t.room = 'Room 2'`,
	`SELECT name FROM NotableAttendee LIMIT 5`,
	`SELECT n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title`,
	`SELECT t1.title FROM Talk t1, NotableAttendee n`,
	`SELECT title, nb_attendees FROM Talk`,
	`SELECT id FROM Pair WHERE a ~= b AND id IN (SELECT id FROM Keep)`,
	`SELECT id FROM Pair WHERE a ~= b AND id = 4`,
	`SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which talk did you like better?')`,
	// Minus signs folded into a slot literal, or not.
	`SELECT title FROM Talk WHERE nb_attendees = -0 OR nb_attendees = - -3 OR nb_attendees = -(5)`,
	`SELECT title FROM Talk WHERE nb_attendees - 1 = 2 OR -nb_attendees = 3 OR nb_attendees = -(1 + 2)`,
	`SELECT title FROM Talk WHERE p IS NULL OR NOT NULL OR abstract IS NOT NULL`,
	// DML: bench/perf's durable_write shapes, then VALUES, SET and WHERE
	// slots that are no bare literal, a column list, a negated literal,
	// NULL, IS NULL and a WHERE the primary key or an index pins.
	`INSERT INTO vis VALUES ('w', 7)`,
	`UPDATE vis SET who = 'w2', tid = 8 WHERE who = 'w'`,
	`DELETE FROM vis WHERE who = 'w2'`,
	`INSERT INTO Pair (grp, id, a) VALUES (-3, 9, 'p'), (1 + 2, 10, NULL)`,
	`UPDATE Talk SET nb_attendees = nb_attendees + 1, abstract = 'x' || p WHERE room = 'Room 1' AND nb_attendees > -1`,
	`UPDATE t SET y = NULL WHERE a = 'ab' OR b IS NOT NULL AND x BETWEEN 1 AND 5`,
	`UPDATE Item SET grp = -grp WHERE name IN ('ant', 'x') OR TRUE = FALSE`,
	`DELETE FROM Keep WHERE id = 4 AND 1.5 > 0.5`,
	`DELETE FROM c`,
}

// dmlTable is the table sql, an INSERT, UPDATE or DELETE, writes; "" for
// any other statement.
func dmlTable(t testing.TB, sql string) string {
	t.Helper()
	s, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	switch s := s.(type) {
	case *parser.Insert:
		return s.Table
	case *parser.Update:
		return s.Table
	case *parser.Delete:
		return s.Table
	}
	return ""
}

// slotPool are the values refreshed slot literals take, by token kind.
var slotPool = map[lexer.Kind][]string{
	lexer.Number: {"3", "42", "0", "7"},
	lexer.String: {"'talk-03'", "'Room 2'", "'x'", "'O''Brien'"},
}

// refresh rebuilds sql, one statement the cache keys, from its tokens with its k-th fresh
// set of slot literals: every slot token a value of its own kind, TRUE and
// FALSE swapped on odd k. Its key is sql's.
func refresh(t testing.TB, sql string, k int) string {
	t.Helper()
	toks, err := lexer.Tokenize(sql)
	if err != nil {
		t.Fatal(err)
	}
	slots := parser.ScanSlots(nil, toks)
	var sb strings.Builder
	n := 0
	for i, tok := range toks {
		text := tok.Value
		if tok.Kind == lexer.String {
			text = "'" + strings.ReplaceAll(tok.Value, "'", "''") + "'"
		}
		if slices.Contains(slots, i) {
			switch {
			case tok.Kind == lexer.Number && strings.ContainsAny(tok.Value, ".eE"):
				text = fmt.Sprintf("%d.5", k+n)
			case slotPool[tok.Kind] != nil:
				text = slotPool[tok.Kind][(k+n)%len(slotPool[tok.Kind])]
			case k%2 == 1 && tok.Value == "TRUE":
				text = "FALSE"
			case k%2 == 1 && tok.Value == "FALSE":
				text = "TRUE"
			}
			n++
		}
		sb.WriteString(text)
		sb.WriteByte(' ')
	}
	return sb.String()
}

// freshRun parses, compiles and runs sql outside the plan cache.
func freshRun(t testing.TB, eng *Engine, sql string) (*Result, error) {
	t.Helper()
	s, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	opt, err := eng.compileFresh(s.(*parser.Select), eng.optimizerOptions())
	if err != nil {
		return nil, err
	}
	return eng.runSelect(context.Background(), opt, colNames(opt), nil, nil, DefaultExecOpts(), nil, nil, nil)
}

// TestPlanCacheKeyCorpus: every statement of keyCorpus, run once, serves
// itself with fresh slot literals unparsed — the equivalence net vets the
// slot values, the text and the plan — and a SELECT answers what the same
// text parsed and compiled afresh answers. A DML variant runs on a twin
// engine too, whose cache is emptied first: both fail, or both affect the
// same rows and leave the table alike.
func TestPlanCacheKeyCorpus(t *testing.T) {
	eng, twin := corpusEngine(t, Config{}), corpusEngine(t, Config{})
	for _, sql := range keyCorpus {
		table := dmlTable(t, sql)
		if _, err := eng.Exec(sql); err != nil {
			t.Errorf("%s: %v", sql, err)
			continue
		}
		if table != "" {
			mustExec(t, twin, sql)
		}
		for k := 0; k < 4; k++ {
			variant := refresh(t, sql, k)
			if keyOf(t, variant) != keyOf(t, sql) {
				t.Fatalf("%s and its variant %s have other keys", sql, variant)
			}
			sc, err := eng.Prepare(variant)
			if err != nil {
				t.Fatalf("%s: %v", variant, err)
			}
			if cachedAt(&sc, 0) == nil {
				t.Errorf("%s is not served by the entry of %s", variant, sql)
				continue
			}
			got, err := eng.ExecAt(context.Background(), &sc, 0, DefaultExecOpts())
			if table != "" {
				twin.plans.mu.Lock()
				twin.plans.entries = nil
				twin.plans.mu.Unlock()
				want, werr := twin.Exec(variant)
				switch {
				case (err == nil) != (werr == nil):
					t.Errorf("%s: cached %v, fresh %v", variant, err, werr)
				case err == nil && got.Affected != want.Affected:
					t.Errorf("%s: cached affected %d, fresh %d", variant, got.Affected, want.Affected)
				}
				all := "SELECT * FROM " + table
				if g, w := rowsText(mustExec(t, eng, all)), rowsText(mustExec(t, twin, all)); g != w {
					t.Errorf("after %s:\ncached %s\nfresh  %s", variant, g, w)
				}
				continue
			}
			want, werr := freshRun(t, eng, variant)
			switch {
			case (err == nil) != (werr == nil):
				t.Errorf("%s: cached %v, fresh %v", variant, err, werr)
			case err != nil:
			case !slices.Equal(got.Columns, want.Columns) || rowsText(got) != rowsText(want):
				t.Errorf("%s:\ncached %v\n%s\nfresh %v\n%s", variant, got.Columns, rowsText(got), want.Columns, rowsText(want))
			}
		}
	}
}

// FuzzPrepare: any text that parses as one SELECT, INSERT, UPDATE or
// DELETE and compiles against corpusEngine's tables is cached under its
// key, and then — as itself and with fresh slot literals — goes through
// the intake unparsed to the slot values, the text and the plan that
// ParseAll and a fresh compile give (the equivalence net, recompileHit).
// In a two-statement script beside a cached corpus SELECT, before it and
// after it, each statement reaches unparsed the entry and slot values it
// reaches alone.
func FuzzPrepare(f *testing.F) {
	for _, sql := range keyCorpus {
		f.Add(sql)
	}
	eng := corpusEngine(f, Config{})
	var selects []string
	for _, sql := range keyCorpus {
		if dmlTable(f, sql) == "" {
			selects = append(selects, sql)
		}
	}
	// alone takes sql, one statement, in by itself and returns it served.
	alone := func(t *testing.T, sql string) *statement {
		sc, err := eng.Prepare(sql)
		if err != nil || sc.Len() != 1 {
			t.Fatalf("%q: %d statements, %v", sql, sc.Len(), err)
		}
		return &sc.stmts[0]
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := parser.ParseAll(src)
		if err != nil || len(stmts) != 1 || tokensOf(stmts[0]) == nil {
			return
		}
		eng.plans.mu.Lock()
		eng.plans.entries = nil
		eng.plans.mu.Unlock()
		var st statement
		eng.intake(&st, stmts[0])
		en, err := eng.entry(&st)
		if err != nil {
			return // no such table or column
		}
		if want := parser.AppendSlotValues(nil, stmts[0]); !slices.Equal(st.slots, want) {
			t.Fatalf("%q: compiled with slots %v, its own are %v", src, st.slots, want)
		}
		if en.kept == nil {
			t.Fatalf("%q compiles but is not cached", src)
		}
		if cached, ok := getEntry(&eng.plans, en.kept.key); !ok || cached.opt != en.opt || cached.write != en.write {
			t.Fatalf("%q compiles but is not cached", src)
		}
		for k := -1; k < 3; k++ {
			text := src
			if k >= 0 {
				text = refresh(t, src, k)
			}
			sc, err := eng.Prepare(text)
			if err != nil {
				t.Fatalf("%q: %v", text, err)
			}
			cs := cachedAt(&sc, 0)
			if cs == nil || cs.en.opt != en.opt || cs.en.write != en.write {
				t.Fatalf("%q is not served by the entry of %q", text, src)
			}
			if err := recompileHit(eng, text, cs.slots, &cs.en); err != nil {
				t.Fatal(err)
			}
		}
		beside := selects[len(src)%len(selects)]
		parsed, err := parser.ParseAll(beside)
		if err != nil {
			t.Fatal(err)
		}
		var other statement
		eng.intake(&other, parsed[0])
		if _, err := eng.entry(&other); err != nil {
			t.Fatalf("%s: %v", beside, err)
		}
		for _, script := range [][2]string{{src, beside}, {beside, src}} {
			text := script[0] + "\n;\n" + script[1]
			sc, err := eng.Prepare(text)
			if err != nil || sc.Len() != 2 {
				t.Fatalf("%q: %d statements, %v", text, sc.Len(), err)
			}
			for i, sql := range script {
				want, got := alone(t, sql), cachedAt(&sc, i)
				switch {
				case got == nil:
					t.Fatalf("%q: statement %d, %q, is parsed", text, i, sql)
				case got.en.opt != want.en.opt || got.en.write != want.en.write:
					t.Fatalf("%q: statement %d, %q, is served by another entry than alone", text, i, sql)
				case !slices.Equal(got.slots, want.slots):
					t.Fatalf("%q: statement %d, %q, binds slots %v, alone %v", text, i, sql, got.slots, want.slots)
				}
				if err := recompileHit(eng, got.text, got.slots, &got.en); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// layerEngine holds bench/perf's Talk table, 1 000 rows, indexed by room.
func layerEngine(b *testing.B) *Engine {
	b.Helper()
	eng, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	mustExec(b, eng, "CREATE TABLE Talk (title STRING PRIMARY KEY, room STRING, nb_attendees INTEGER)")
	mustExec(b, eng, "CREATE INDEX talk_room ON Talk (room)")
	for i := 0; i < 1000; i++ {
		mustExec(b, eng, fmt.Sprintf("INSERT INTO Talk VALUES ('talk-%05d', 'Room %d', %d)", i, i%10, i))
	}
	return eng
}

// layerStatements are bench/perf's point_read shapes (a primary-key and
// an index lookup) and scan_read's GROUP BY shape.
var layerStatements = []struct{ name, sql string }{
	{"pk", "SELECT nb_attendees FROM Talk WHERE title = 'talk-01234'"},
	{"index", "SELECT title FROM Talk WHERE room = 'Room 7'"},
	{"group", "SELECT room, COUNT(*), AVG(nb_attendees) FROM Talk WHERE nb_attendees < 950 GROUP BY room ORDER BY AVG(nb_attendees) DESC LIMIT 10"},
}

// BenchmarkCompileMiss is what a plan-cache miss compiles: plan.Build and
// optimizer.Optimize of a parsed statement.
func BenchmarkCompileMiss(b *testing.B) {
	eng := layerEngine(b)
	for _, st := range layerStatements {
		b.Run(st.name, func(b *testing.B) {
			s, err := parser.Parse(st.sql)
			if err != nil {
				b.Fatal(err)
			}
			opts := eng.optimizerOptions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.compileFresh(s.(*parser.Select), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrepareHit is the intake of a statement whose shape is cached:
// lex, key, lookup and slot values.
func BenchmarkPrepareHit(b *testing.B) {
	eng := layerEngine(b)
	for _, st := range layerStatements {
		b.Run(st.name, func(b *testing.B) {
			mustExec(b, eng, st.sql)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sc, err := eng.Prepare(st.sql); err != nil || cachedAt(&sc, 0) == nil {
					b.Fatalf("%s: cached %v, %v", st.sql, cachedAt(&sc, 0) != nil, err)
				}
			}
		})
	}
}
