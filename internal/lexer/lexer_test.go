package lexer

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func kinds(toks []Token) []Kind {
	ks := make([]Kind, len(toks))
	for i, t := range toks {
		ks[i] = t.Kind
	}
	return ks
}

func values(toks []Token) []string {
	vs := make([]string, len(toks))
	for i, t := range toks {
		vs[i] = t.Value
	}
	return vs
}

func TestTokenizePaperQuery(t *testing.T) {
	// The demo paper's first example query.
	toks, err := Tokenize(`SELECT abstract FROM paper WHERE title = "CrowdDB";`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SELECT", "abstract", "FROM", "paper", "WHERE", "title", "=", "CrowdDB", ";"}
	got := values(toks)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %v want %v", got, want)
	}
	if toks[7].Kind != String {
		t.Errorf("double-quoted literal must lex as string, got %v", toks[7].Kind)
	}
}

func TestTokenizeCrowdDDL(t *testing.T) {
	src := `CREATE TABLE Talk (
		title STRING PRIMARY KEY,
		abstract CROWD STRING,
		nb_attendees CROWD INTEGER );`
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	var crowdCount int
	for _, tok := range toks {
		if tok.Kind == Keyword && tok.Value == "CROWD" {
			crowdCount++
		}
	}
	if crowdCount != 2 {
		t.Errorf("want 2 CROWD keywords, got %d", crowdCount)
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	toks, err := Tokenize("select Select SELECT cnull Cnull")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.Kind != Keyword {
			t.Errorf("%q should be keyword", tok.Value)
		}
	}
	if toks[3].Value != "CNULL" {
		t.Errorf("keywords should be upper-cased: %q", toks[3].Value)
	}
}

func TestIdentifiersKeepCase(t *testing.T) {
	toks, err := Tokenize("nb_attendees NotableAttendee")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Value != "nb_attendees" || toks[1].Value != "NotableAttendee" {
		t.Errorf("identifier case mangled: %v", values(toks))
	}
}

func TestStringEscapes(t *testing.T) {
	toks, err := Tokenize(`'it''s' "a""b"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Value != "it's" || toks[1].Value != `a"b` {
		t.Errorf("escape handling: %v", values(toks))
	}
}

func TestUnterminatedString(t *testing.T) {
	if _, err := Tokenize("'oops"); err == nil {
		t.Error("unterminated string must error")
	}
}

func TestNumbers(t *testing.T) {
	toks, err := Tokenize("1 2.5 .5 1e3 2.5E-2 10")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.Kind != Number {
			t.Errorf("%q should be a number", tok.Value)
		}
	}
	if len(toks) != 6 {
		t.Errorf("want 6 numbers, got %d: %v", len(toks), values(toks))
	}
}

func TestCrowdEqualSymbol(t *testing.T) {
	toks, err := Tokenize("name ~= 'UC Berkeley'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != Symbol || toks[1].Value != "~=" {
		t.Errorf("~= must lex as one symbol: %v %v", kinds(toks), values(toks))
	}
}

func TestComments(t *testing.T) {
	toks, err := Tokenize("SELECT -- line comment\n 1 /* block\ncomment */ ;")
	if err != nil {
		t.Fatal(err)
	}
	got := values(toks)
	want := []string{"SELECT", "1", ";"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("comments not skipped: %v", got)
	}
}

func TestMultiCharSymbols(t *testing.T) {
	toks, err := Tokenize("a <= b >= c <> d != e")
	if err != nil {
		t.Fatal(err)
	}
	var syms []string
	for _, tok := range toks {
		if tok.Kind == Symbol {
			syms = append(syms, tok.Value)
		}
	}
	want := []string{"<=", ">=", "<>", "!="}
	if strings.Join(syms, " ") != strings.Join(want, " ") {
		t.Errorf("symbols: %v", syms)
	}
}

func TestUnexpectedChar(t *testing.T) {
	if _, err := Tokenize("SELECT @"); err == nil {
		t.Error("@ must be rejected")
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokenize("SELECT  title")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != 0 || toks[1].Pos != 8 {
		t.Errorf("positions: %d %d", toks[0].Pos, toks[1].Pos)
	}
}

// Property: lexing never panics and always terminates on arbitrary input.
func TestLexerRobustness(t *testing.T) {
	check := func(s string) bool {
		_, _ = Tokenize(s)
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: for identifier-safe words, tokenize(a+" "+b) yields exactly two
// tokens.
func TestLexerWordSplit(t *testing.T) {
	words := []string{"talk", "abstract", "nb_attendees", "x1", "Foo_Bar"}
	for _, a := range words {
		for _, b := range words {
			toks, err := Tokenize(a + " " + b)
			if err != nil || len(toks) != 2 {
				t.Errorf("%q %q: %v %v", a, b, toks, err)
			}
		}
	}
}

// TestTokenizeAllocatesTokensOnce: the token slice is sized from the
// source length, not grown from nil — one allocation for a 13-token
// statement whose words need no case folding.
func TestTokenizeAllocatesTokensOnce(t *testing.T) {
	const src = "SELECT ID, TITLE FROM TALK WHERE ID = 4711 LIMIT 1;"
	toks, err := Tokenize(src)
	if err != nil || len(toks) != 13 {
		t.Fatalf("tokens = %d, err = %v", len(toks), err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		Tokenize(src) //nolint:errcheck // checked above
	})
	if allocs != 1 {
		t.Fatalf("Tokenize allocates %.0f times per call, want 1 (the token slice)", allocs)
	}
}

// TestTokenizePointReadAllocs: point_read's statement, identifiers in
// mixed case, allocates the token slice and its one string literal —
// measured 2. Folding a word's case to look it up allocates nothing.
func TestTokenizePointReadAllocs(t *testing.T) {
	const src = "SELECT nb_attendees FROM Talk WHERE title = 'talk-00042'"
	toks, err := Tokenize(src)
	if err != nil || len(toks) != 8 || toks[2].Value != "FROM" || toks[7].Value != "talk-00042" {
		t.Fatalf("tokens = %+v, err = %v", toks, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		Tokenize(src) //nolint:errcheck // checked above
	})
	if allocs != 2 {
		t.Fatalf("Tokenize allocates %.0f times per call, want 2 (the token slice and the literal)", allocs)
	}
}

// TestStringLiteralOwnsItsBytes: a literal's value is a copy, not a
// substring pinning the statement text, escapes resolved or not.
func TestStringLiteralOwnsItsBytes(t *testing.T) {
	src := "'plain' 'it''s' 'ſelect'"
	toks, err := Tokenize(src)
	if err != nil || len(toks) != 3 {
		t.Fatalf("tokens = %+v, err = %v", toks, err)
	}
	for i, want := range []string{"plain", "it's", "ſelect"} {
		if toks[i].Value != want {
			t.Errorf("literal %d = %q, want %q", i, toks[i].Value, want)
		}
		if p := unsafe.StringData(toks[i].Value); uintptr(unsafe.Pointer(p)) >= uintptr(unsafe.Pointer(unsafe.StringData(src))) &&
			uintptr(unsafe.Pointer(p)) < uintptr(unsafe.Pointer(unsafe.StringData(src)))+uintptr(len(src)) {
			t.Errorf("literal %q points into the source text", toks[i].Value)
		}
	}
}
