package jsonline

import (
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// MaxDepth is encoding/json's nesting limit: a value nested deeper is a
// syntax error there, and so here.
const MaxDepth = 10000

// A Scanner reads JSON from B without reflection and accepts exactly the
// syntax encoding/json accepts: every escape, surrogate pairs, invalid
// UTF-8 and lone surrogates read as U+FFFD, nesting up to MaxDepth. Its
// callers read one value each, member by member, with the methods below;
// a method that fails leaves the Scanner where the input went wrong.
type Scanner struct {
	B   []byte // the input
	Buf []byte // unescaped string bytes; valid until the next string
	i   int
}

// Fail reports what is wrong with the input at the Scanner's position.
func (s *Scanner) Fail(what string) error {
	return fmt.Errorf("malformed JSON at byte %d: %s", s.i, what)
}

// WS skips whitespace.
func (s *Scanner) WS() {
	for s.i < len(s.B) {
		switch s.B[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// Peek returns the next byte, 0 at the end.
func (s *Scanner) Peek() byte {
	if s.i < len(s.B) {
		return s.B[s.i]
	}
	return 0
}

// End checks that only whitespace follows the value.
func (s *Scanner) End() error {
	s.WS()
	if s.i != len(s.B) {
		return s.Fail("data after the value")
	}
	return nil
}

func (s *Scanner) literal(word string) error {
	if len(s.B)-s.i < len(word) || string(s.B[s.i:s.i+len(word)]) != word {
		return s.Fail("bad literal")
	}
	s.i += len(word)
	return nil
}

// Null consumes a null and reports whether there was one.
func (s *Scanner) Null() (bool, error) {
	if s.Peek() != 'n' {
		return false, nil
	}
	return true, s.literal("null")
}

// Str reads a string and returns its unescaped bytes: a slice of B when
// nothing needed unescaping, of Buf otherwise.
func (s *Scanner) Str() ([]byte, error) {
	if s.Peek() != '"' {
		return nil, s.Fail("want a string")
	}
	start := s.i + 1
	for i := start; i < len(s.B); {
		c := s.B[i]
		if c == '"' {
			s.i = i + 1
			return s.B[start:i], nil
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(s.B[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	return s.unquote(start)
}

// unquote is Str's slow path: the string from start on has escapes or
// invalid UTF-8.
func (s *Scanner) unquote(start int) ([]byte, error) {
	out := s.Buf[:0]
	for i := start; i < len(s.B); {
		c := s.B[i]
		switch {
		case c == '"':
			s.i, s.Buf = i+1, out
			return out, nil
		case c < ' ':
			s.i = i
			return nil, s.Fail("control character in string")
		case c == '\\':
			if i+1 == len(s.B) {
				s.i = i
				return nil, s.Fail("unterminated escape")
			}
			switch e := s.B[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(s.B[i:])
				if r < 0 {
					s.i = i
					return nil, s.Fail("bad \\u escape")
				}
				if utf16.IsSurrogate(r) {
					// A pair takes the next escape too; anything else is
					// U+FFFD, and the next escape is read on its own.
					if dec := utf16.DecodeRune(r, hex4(s.B[i+6:])); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				out = utf8.AppendRune(out, r)
				i += 6
				continue
			default:
				s.i = i
				return nil, s.Fail("bad escape")
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(s.B[i:])
			out = utf8.AppendRune(out, r) // RuneError for an invalid byte
			i += size
		}
	}
	s.i = len(s.B)
	return nil, s.Fail("unterminated string")
}

// hex4 reads the \uXXXX escape b starts with; -1 when it is not one.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Number reads a number and returns its literal.
func (s *Scanner) Number() ([]byte, error) {
	b, i := s.B, s.i
	digits := func() bool {
		n := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > n
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, s.Fail("bad number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, s.Fail("bad fraction")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, s.Fail("bad exponent")
		}
	}
	lit := b[s.i:i]
	s.i = i
	return lit, nil
}

// open consumes the bracket that starts a container nested depth deep.
func (s *Scanner) open(bracket byte, depth int) error {
	if s.Peek() != bracket {
		return s.Fail("want " + string(bracket))
	}
	if depth > MaxDepth {
		return s.Fail("nested too deep")
	}
	s.i++
	s.WS()
	return nil
}

// next consumes what follows a container's element: true after a comma,
// false after the closing bracket.
func (s *Scanner) next(closing byte) (bool, error) {
	s.WS()
	switch s.Peek() {
	case ',':
		s.i++
		s.WS()
		return true, nil
	case closing:
		s.i++
		return false, nil
	}
	return false, s.Fail("want , or " + string(closing))
}

// Object reads an object nested depth deep (1 for a top-level one);
// member reads the value of the member named key, which the next string
// read may overwrite.
func (s *Scanner) Object(depth int, member func(key []byte) error) error {
	if err := s.open('{', depth); err != nil {
		return err
	}
	if s.Peek() == '}' {
		s.i++
		return nil
	}
	for more := true; more; {
		key, err := s.Str()
		if err != nil {
			return err
		}
		if s.WS(); s.Peek() != ':' {
			return s.Fail("want :")
		}
		s.i++
		s.WS()
		if err := member(key); err != nil {
			return err
		}
		if more, err = s.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// Array reads an array nested depth deep; elem reads each element.
func (s *Scanner) Array(depth int, elem func() error) error {
	if err := s.open('[', depth); err != nil {
		return err
	}
	if s.Peek() == ']' {
		s.i++
		return nil
	}
	for more := true; more; {
		if err := elem(); err != nil {
			return err
		}
		var err error
		if more, err = s.next(']'); err != nil {
			return err
		}
	}
	return nil
}

// Skip reads any value that is a member or an element of a container
// nested depth deep.
func (s *Scanner) Skip(depth int) error {
	switch c := s.Peek(); {
	case c == '"':
		_, err := s.Str()
		return err
	case c == '{':
		return s.Object(depth+1, func([]byte) error { return s.Skip(depth + 1) })
	case c == '[':
		return s.Array(depth+1, func() error { return s.Skip(depth + 1) })
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := s.Number()
		return err
	}
	return s.Fail("want a value")
}
