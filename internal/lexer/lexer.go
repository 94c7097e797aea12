// Package lexer tokenizes CrowdSQL, the SQL dialect of the CrowdDB paper:
// standard SQL plus the CROWD keyword (DDL), the CNULL literal, and the
// CROWDEQUAL/CROWDORDER built-in functions (which lex as identifiers; the
// parser gives them meaning). The crowd-equality shorthand `~=` lexes as a
// distinct token.
package lexer

import (
	"fmt"
	"strings"
	"unicode"
)

// Kind classifies tokens.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	Ident
	Keyword
	Number
	String // quoted string literal, value has quotes removed
	Symbol // punctuation / operators, value is the exact spelling
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "ident"
	case Keyword:
		return "keyword"
	case Number:
		return "number"
	case String:
		return "string"
	case Symbol:
		return "symbol"
	default:
		return "?"
	}
}

// Token is one lexical unit with its position (byte offset) for errors.
type Token struct {
	Kind Kind
	// Value is the token text. Keywords are upper-cased; identifiers keep
	// their original spelling; string literals have quotes and escapes
	// resolved.
	Value string
	Pos   int
}

// keywords is the CrowdSQL reserved-word set, each word mapped to itself:
// a keyword token's value is the map's string, never a new one. CROWD,
// CNULL, CROWDEQUAL and CROWDORDER are the paper's additions (§2).
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "OFFSET",
		"ASC", "DESC", "AS", "AND", "OR", "NOT", "IS", "IN", "LIKE", "BETWEEN",
		"NULL", "CNULL", "TRUE", "FALSE", "CREATE", "TABLE", "CROWD", "DROP",
		"PRIMARY", "KEY", "FOREIGN", "REF", "REFERENCES", "INDEX", "ON", "UNIQUE",
		"INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "JOIN", "INNER", "LEFT",
		"OUTER", "CROSS", "DISTINCT", "ALL", "ANNOTATION", "EXPLAIN", "ANALYZE",
		"SHOW", "TABLES", "COUNT", "SUM", "AVG", "MIN", "MAX", "CROWDEQUAL", "CROWDORDER",
	} {
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword.
const maxKeywordLen = len("REFERENCES")

// keyword returns word upper-cased and true when it is reserved. The word
// is folded on the stack, so an identifier costs no allocation to miss
// the map. A word with a byte past ASCII is never a keyword: the only
// letters whose upper case is ASCII, ſ and ı, end in a byte lexWord does
// not take into a word.
func keyword(word string) (string, bool) {
	var buf [maxKeywordLen]byte
	if len(word) > len(buf) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 0x80 {
			return "", false
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// Lexer scans an input string into tokens.
type Lexer struct {
	src string
	pos int
}

// New returns a Lexer over src.
func New(src string) *Lexer { return &Lexer{src: src} }

// Tokenize scans the whole input, returning all tokens up to and excluding
// EOF. It is the convenience entry point used by the parser and tests.
func Tokenize(src string) ([]Token, error) {
	// SQL runs at four-plus source bytes per token, spaces included, so
	// this sizes the slice once for ordinary statements.
	return AppendTokens(make([]Token, 0, len(src)/4+1), src)
}

// AppendTokens appends the tokens of src up to and excluding EOF to dst:
// Tokenize into a caller's buffer.
func AppendTokens(dst []Token, src string) ([]Token, error) {
	l := Lexer{src: src}
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == EOF {
			return dst, nil
		}
		dst = append(dst, t)
	}
}

// Next returns the next token, or an EOF token at end of input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: EOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '\'' || c == '"':
		return l.lexString(c)
	case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		return l.lexNumber()
	case isIdentStart(rune(c)):
		return l.lexWord()
	default:
		return l.lexSymbol(start)
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

// lexString scans a quoted literal; a doubled quote is an escaped quote.
// The value is one allocation of its own, never a substring of the
// source: a stored value must not pin the whole statement text (a
// 500-row INSERT script, say).
func (l *Lexer) lexString(quote byte) (Token, error) {
	start := l.pos
	escaped := 0
	for i := start + 1; i < len(l.src); i++ {
		if l.src[i] != quote {
			continue
		}
		if i+1 < len(l.src) && l.src[i+1] == quote {
			escaped++
			i++
			continue
		}
		raw := l.src[start+1 : i]
		l.pos = i + 1
		if escaped == 0 {
			return Token{Kind: String, Value: strings.Clone(raw), Pos: start}, nil
		}
		var sb strings.Builder
		sb.Grow(len(raw) - escaped)
		for j := 0; j < len(raw); j++ {
			sb.WriteByte(raw[j])
			if raw[j] == quote {
				j++ // its double
			}
		}
		return Token{Kind: String, Value: sb.String(), Pos: start}, nil
	}
	return Token{}, fmt.Errorf("lexer: unterminated string literal at offset %d", start)
}

func (l *Lexer) lexNumber() (Token, error) {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			return Token{Kind: Number, Value: l.src[start:l.pos], Pos: start}, nil
		}
	}
	return Token{Kind: Number, Value: l.src[start:l.pos], Pos: start}, nil
}

func (l *Lexer) lexWord() (Token, error) {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	word := l.src[start:l.pos]
	if kw, ok := keyword(word); ok {
		return Token{Kind: Keyword, Value: kw, Pos: start}, nil
	}
	return Token{Kind: Ident, Value: word, Pos: start}, nil
}

// multi-char symbols, longest first.
var symbols = []string{"<>", "<=", ">=", "!=", "~=", "||",
	"(", ")", ",", ";", "*", "=", "<", ">", "+", "-", "/", ".", "%"}

func (l *Lexer) lexSymbol(start int) (Token, error) {
	rest := l.src[l.pos:]
	for _, s := range symbols {
		if strings.HasPrefix(rest, s) {
			l.pos += len(s)
			return Token{Kind: Symbol, Value: s, Pos: start}, nil
		}
	}
	return Token{}, fmt.Errorf("lexer: unexpected character %q at offset %d", l.src[l.pos], l.pos)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
