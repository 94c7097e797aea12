package parser

import "testing"

// layerStatements are bench/perf's point_read shapes (a primary-key and
// an index lookup) and scan_read's GROUP BY shape.
var layerStatements = []struct{ name, sql string }{
	{"pk", "SELECT nb_attendees FROM Talk WHERE title = 'talk-01234'"},
	{"index", "SELECT title FROM Talk WHERE room = 'Room 7'"},
	{"group", "SELECT room, COUNT(*), AVG(nb_attendees) FROM Talk WHERE nb_attendees < 950 GROUP BY room ORDER BY AVG(nb_attendees) DESC LIMIT 10"},
}

// BenchmarkParse is the parse layer of a statement: lex and parse.
func BenchmarkParse(b *testing.B) {
	for _, st := range layerStatements {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ParseAll(st.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
