package parser

import (
	"reflect"
	"slices"
	"testing"

	"crowddb/internal/lexer"
	"crowddb/internal/sqltypes"
)

// FuzzParse feeds arbitrary text to ParseAll: it must return, never
// panic, and every statement it parses must print as text that parses to
// one deep-equal statement — slot numbers included — with the same shape.
// The engine's plan cache serves statements of one key with one tree,
// printing it with each statement's own slot values, so two trees that
// print alike must be one tree, and a SELECT, INSERT, UPDATE or DELETE
// printed with its own slot values must print as itself. Its slots number
// 1, 2, … in the order AppendSlotValues lists them. Such a statement of a
// script keeps the tokens it was parsed from, which parse to it again,
// and its slot literals know their tokens: ScanSlots finds the same ones
// without parsing — the plan cache keys an unparsed statement with it —
// and each slot value is its token's, negated where the SlotRef says so.
// A script's statements are its runs of tokens between semicolons — the
// engine's intake splits a script there without parsing it.
func FuzzParse(f *testing.F) {
	for _, src := range fuzzParseSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := ParseAll(src)
		if err != nil {
			return
		}
		if toks, _ := lexer.Tokenize(src); statementRuns(toks) != len(stmts) {
			t.Fatalf("%q parses to %d statements, but holds %d runs of tokens between semicolons", src, len(stmts), statementRuns(toks))
		}
		for _, s := range stmts {
			printed := s.String()
			again, err := Parse(printed)
			if err != nil {
				t.Fatalf("%q parses, but its statement prints as %q, which does not: %v", src, printed, err)
			}
			toks := tokensOf(s)
			if toks == nil {
				if !reflect.DeepEqual(withoutTokens(again), withoutTokens(s)) {
					t.Fatalf("%q: the printed statement %q parses to another tree", src, printed)
				}
				continue
			}
			checkSlotTokens(t, src, s)
			own, err := ParseTokens(toks)
			if err != nil || len(own) != 1 {
				t.Fatalf("%q: the tokens a statement keeps do not parse to it: %v", src, err)
			}
			checkSlotOrder(t, src, s)
			slots := AppendSlotValues(nil, s)
			if own := string(AppendWithSlots(nil, again, slots, -1)); own != printed {
				t.Fatalf("%q: printed with its own slot values, %s is %s", src, printed, own)
			}
			if shape, shape2 := shapeOf(s), shapeOf(again); shape2 != shape {
				t.Fatalf("%q: shapes differ after printing:\n once: %s\ntwice: %s", src, shape, shape2)
			}
			if !reflect.DeepEqual(withoutTokens(own[0]), withoutTokens(s)) {
				t.Fatalf("%q: the tokens a statement keeps do not parse to it", src)
			}
			if !reflect.DeepEqual(withoutTokens(again), withoutTokens(s)) {
				t.Fatalf("%q: the printed statement %q parses to another tree", src, printed)
			}
		}
	})
}

// statementRuns counts the runs of tokens between semicolons in toks.
func statementRuns(toks []lexer.Token) int {
	n := 0
	for i, t := range toks {
		if !isSemicolon(t) && (i == 0 || isSemicolon(toks[i-1])) {
			n++
		}
	}
	return n
}

func isSemicolon(t lexer.Token) bool { return t.Kind == lexer.Symbol && t.Value == ";" }

// tokensOf is the tokens s keeps, nil for a statement that keeps none.
func tokensOf(s Statement) []lexer.Token {
	if k, ok := s.(interface{ Tokens() []lexer.Token }); ok {
		return k.Tokens()
	}
	return nil
}

// checkSlotTokens fails unless the slot literals of s, a statement of a
// script, locate the tokens ScanSlots finds in s's tokens, and each
// literal's value is its token's, negated where its SlotRef says so.
func checkSlotTokens(t *testing.T, src string, s Statement) {
	t.Helper()
	toks, refs := tokensOf(s), AppendSlotRefs(nil, s)
	scanned := ScanSlots(nil, toks)
	at := make([]int, len(refs))
	for i, r := range refs {
		at[i] = r.Tok
	}
	if !slices.Equal(scanned, at) {
		t.Fatalf("%q: ScanSlots finds slot tokens %v, the parser made slots of %v", src, scanned, at)
	}
	for i, v := range AppendSlotValues(nil, s) {
		tv, err := LiteralValue(toks[refs[i].Tok])
		if err != nil {
			t.Fatalf("%q: slot %d's token %q: %v", src, i+1, toks[refs[i].Tok].Value, err)
		}
		if refs[i].Neg {
			switch tv.Kind() {
			case sqltypes.KindInt:
				tv = sqltypes.NewInt(-tv.Int())
			case sqltypes.KindFloat:
				tv = sqltypes.NewFloat(-tv.Float())
			default:
				t.Fatalf("%q: slot %d, a %v, is negated", src, i+1, tv)
			}
		}
		if tv != v {
			t.Fatalf("%q: slot %d is %v, its token %q with negation %v", src, i+1, v, toks[refs[i].Tok].Value, refs[i].Neg)
		}
	}
}

// withoutTokens is s without what a statement — or the statement an
// EXPLAIN wraps — knows of the tokens it was parsed from: the tokens, and
// where each slot literal's token is, which differ between a statement
// and its printed text. It clears the slot literals' token facts in
// place.
func withoutTokens(s Statement) Statement {
	if ex, ok := s.(*Explain); ok {
		c := *ex
		c.Stmt = withoutTokens(ex.Stmt)
		return &c
	}
	walkSlotted(s, func(e Expr) {
		if l, ok := e.(*Literal); ok {
			l.tok, l.neg = 0, false
		}
	})
	return WithoutTokens(s)
}

// fuzzParseSeeds are the statements this package's tests parse, those
// they expect to fail, and the statement shapes of bench/perf's
// workloads.
var fuzzParseSeeds = append(append([]string{
	`CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, nb_attendees CROWD INTEGER);`,
	`SELECT title FROM Talk ORDER BY CROWDORDER(p, "Which talk did you like better") LIMIT 10;`,
	`SELECT abstract FROM paper WHERE title = "CrowdDB"`,
	`INSERT INTO Talk (title, abstract) VALUES ('X', CNULL)`,
	`SELECT title FROM Talk WHERE abstract IS NOT CNULL`,
	`SELECT * FROM company WHERE CROWDEQUAL(name, 'UC Berkeley')`,
	`SELECT * FROM company WHERE name ~= 'UC Berkeley'`,
	`SELECT * FROM a, b WHERE a.x = b.x`,
	`SELECT MIN(x), MAX(x), AVG(x), SUM(x), COUNT(x) FROM t`,
	`SELECT * FROM t WHERE x NOT IN (1, 2) AND name NOT LIKE '%DB' OR -5 < 1 + 2 * 3`,
	`EXPLAIN ANALYZE SELECT * FROM Talk`,
	`SHOW TABLES`,
	`CREATE UNIQUE INDEX idx_title ON Talk (title)`,
	`DROP TABLE IF EXISTS Talk`,
	`CREATE TABLE t (x STRING ANNOTATION 'the x value') ANNOTATION 'demo table'`,
	`CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1); SELECT * FROM t;`,
	`SELECT *, t.* FROM t WHERE a || b = 'ab'`,
	`select title from talk where abstract is cnull limit 5`,
	// bench/perf's statement shapes: point_read, scan_read, durable_write,
	// crowd_cold and crowd_hot.
	`SELECT nb_attendees FROM Talk WHERE title = 'talk-00042'`,
	`SELECT room, COUNT(*), AVG(nb_attendees) FROM Talk WHERE nb_attendees < 950 GROUP BY room ORDER BY AVG(nb_attendees) DESC LIMIT 10`,
	`UPDATE kv SET v = 'v7', n = 7 WHERE id = 7`,
	`SELECT id FROM Pair WHERE grp = 3 AND a ~= b`,
	`SELECT name FROM Item WHERE grp = 3 ORDER BY CROWDORDER(name, 'Which is bigger?')`,
	// The same shapes with a slot literal of every kind: −0.0, ±(2^53+1)
	// as INTEGER and FLOAT, a doubled quote, NULL, CNULL and the booleans.
	`SELECT nb_attendees FROM Talk WHERE title = 'O''Brien''s talk'`,
	`SELECT nb_attendees FROM Talk WHERE title = NULL OR title = CNULL`,
	`SELECT room, COUNT(*) FROM Talk WHERE nb_attendees < -0.0 GROUP BY room ORDER BY COUNT(*) DESC LIMIT 10`,
	`SELECT room FROM Talk WHERE nb_attendees BETWEEN -9007199254740993 AND 9007199254740993`,
	`SELECT room FROM Talk WHERE nb_attendees IN (9007199254740993.0, -9007199254740993.0, 1e300, -0.0)`,
	`UPDATE kv SET v = 'it''s', n = -9007199254740993 WHERE id = -0.0`,
	`SELECT id FROM Pair WHERE grp = -3 AND a ~= 'x''y' AND TRUE = FALSE`,
	`SELECT name FROM Item WHERE grp IN (SELECT g FROM G WHERE w > 2.5) AND name LIKE 'a%' ORDER BY CROWDORDER(name, 'Which?') LIMIT 1`,
	`EXPLAIN SELECT 1, 'x' FROM t WHERE x = 1 AND y = 'x' GROUP BY x HAVING COUNT(*) > 1`,
	`SELECT -0, - -1.5 FROM t WHERE x = -0 OR x = - -0 OR x = -(2) OR x = -'a'`,
	// DML slots: every VALUES literal, the SET values, the WHERE; not a
	// subquery's, nor IS NULL's.
	`INSERT INTO kv VALUES (7, 'v7.0', 7), (-8, NULL, -(1 + 2) * - -3)`,
	`INSERT INTO t (a, b) VALUES (TRUE IS NOT NULL, 1 IN (SELECT x FROM u WHERE y = 2)), (CNULL, -0.0)`,
	`UPDATE kv SET v = v || 'x', n = n + -1 WHERE id IN (1, 2) AND n IS NOT NULL AND v NOT IN (SELECT v FROM w WHERE n > 3)`,
	`DELETE FROM kv WHERE id = -7 OR v BETWEEN 'a' AND 'b' OR FALSE`,
	`EXPLAIN UPDATE kv SET n = 1 WHERE id = 2; DELETE FROM kv; INSERT INTO kv VALUES (1)`,
}, fixpointSources...), parseErrorSources...)

// fixpointSources are TestPrintReparseFixpoint's statements.
var fixpointSources = []string{
	`CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, nb_attendees CROWD INTEGER)`,
	`CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING, FOREIGN KEY (title) REF Talk(title))`,
	`SELECT title FROM Talk ORDER BY CROWDORDER(p, 'Which talk did you like better') LIMIT 10`,
	`SELECT abstract FROM paper WHERE title = 'CrowdDB'`,
	`SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON n.title = t.title WHERE t.nb_attendees > 50`,
	`SELECT title, COUNT(*) AS c FROM NotableAttendee GROUP BY title HAVING COUNT(*) > 2 ORDER BY c DESC LIMIT 5 OFFSET 2`,
	`SELECT DISTINCT name FROM company WHERE name ~= 'UC Berkeley' OR name IN ('A', 'B')`,
	`SELECT * FROM t WHERE x BETWEEN 1 AND 10 AND y IS NOT CNULL`,
	`INSERT INTO t (a, b) VALUES (1, 'x'), (2, CNULL)`,
	`UPDATE Talk SET nb_attendees = 100, abstract = CNULL WHERE title = 'CrowdDB'`,
	`DELETE FROM Talk WHERE nb_attendees < 10`,
	`SELECT * FROM a LEFT JOIN b ON a.x = b.x, c`,
	`EXPLAIN SELECT * FROM Talk WHERE abstract IS CNULL`,
	`SELECT who FROM vis WHERE tid IN (SELECT id FROM talk WHERE att > 80)`,
	`SELECT who FROM vis WHERE tid NOT IN (SELECT tid FROM vis WHERE who = 'x')`,
}

// parseErrorSources are TestParseErrors' statements.
var parseErrorSources = []string{
	"",
	"SELECT",
	"SELECT FROM t",
	"CREATE TABLE",
	"CREATE TABLE t (x BLOB)",
	"INSERT INTO t VALUES",
	"SELECT * FROM t WHERE",
	"SELECT * FROM t LIMIT 'x'",
	"CROWDEQUAL(a)",
	"SELECT CROWDEQUAL(a) FROM t",
	"SELECT UNKNOWNFUNC(a) FROM t",
	"SELECT * FROM t WHERE x IS",
	"SELECT * FROM t WHERE x = = 1",
}
