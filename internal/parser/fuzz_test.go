package parser

import (
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary text to ParseAll: it must return, never
// panic, and every statement it parses must print as text that parses to
// one deep-equal statement — slot numbers included — with the same shape.
// The plan cache keys on the shape, so two trees that print alike must be
// one tree. A SELECT's shape lists its slots in slot order.
func FuzzParse(f *testing.F) {
	for _, src := range fuzzParseSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := ParseAll(src)
		if err != nil {
			return
		}
		for _, s := range stmts {
			printed := s.String()
			again, err := Parse(printed)
			if err != nil {
				t.Fatalf("%q parses, but its statement prints as %q, which does not: %v", src, printed, err)
			}
			if !reflect.DeepEqual(again, s) {
				t.Fatalf("%q: the printed statement %q parses to another tree", src, printed)
			}
			sel, ok := s.(*Select)
			if !ok {
				continue
			}
			shape, slots := AppendShape(nil, sel), AppendSlots(nil, sel.Where)
			for i, l := range slots {
				if l.Slot != i+1 {
					t.Fatalf("%q: shape %s lists slot %d at %d", src, shape, l.Slot, i+1)
				}
			}
			if shape2 := AppendShape(nil, again.(*Select)); string(shape2) != string(shape) {
				t.Fatalf("%q: shapes differ after printing:\n once: %s\ntwice: %s", src, shape, shape2)
			}
		}
	})
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
