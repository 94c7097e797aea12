package client

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The client's one scanner for what the server writes about a job: a row
// line decodes into a Row, a job-resource line — Submit's head, a
// stream's trailer, the Status and Cancel bodies — into a JobStatus. It
// reads without reflection and accepts exactly the input json.Unmarshal
// accepts for these two shapes, producing the same values: every escape,
// surrogate pairs, invalid UTF-8 as U+FFFD, null leaving a field as it is
// (a slice or the error nil), unknown fields skipped, and the last of
// duplicate keys winning the way json.Unmarshal's does (merged into an
// object, over a slice's elements). It rejects what json.Unmarshal
// rejects. One difference, on purpose: a field name matches only as the
// server writes it ("rows_emitted", "RowsScanned"), where json.Unmarshal
// would also take it case-folded.

// maxDepth is encoding/json's nesting limit: a value nested deeper is a
// syntax error there, and so here.
const maxDepth = 10000

// scanner reads one JSON value from b.
type scanner struct {
	b   []byte
	i   int
	buf []byte // unescaped string bytes; valid until the next string
}

func (s *scanner) fail(what string) error {
	return fmt.Errorf("client: malformed line at byte %d: %s", s.i, what)
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// peek returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// end checks that only whitespace follows the value.
func (s *scanner) end() error {
	s.ws()
	if s.i != len(s.b) {
		return s.fail("data after the value")
	}
	return nil
}

func (s *scanner) literal(word string) error {
	if len(s.b)-s.i < len(word) || string(s.b[s.i:s.i+len(word)]) != word {
		return s.fail("bad literal")
	}
	s.i += len(word)
	return nil
}

// null consumes a null and reports whether there was one.
func (s *scanner) null() (bool, error) {
	if s.peek() != 'n' {
		return false, nil
	}
	return true, s.literal("null")
}

// str reads a string and returns its unescaped bytes: a slice of b when
// nothing needed unescaping, of buf otherwise.
func (s *scanner) str() ([]byte, error) {
	if s.peek() != '"' {
		return nil, s.fail("want a string")
	}
	start := s.i + 1
	for i := start; i < len(s.b); {
		c := s.b[i]
		if c == '"' {
			s.i = i + 1
			return s.b[start:i], nil
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(s.b[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	return s.unquote(start)
}

// unquote is str's slow path: the string from start on has escapes or
// invalid UTF-8.
func (s *scanner) unquote(start int) ([]byte, error) {
	out := s.buf[:0]
	for i := start; i < len(s.b); {
		c := s.b[i]
		switch {
		case c == '"':
			s.i, s.buf = i+1, out
			return out, nil
		case c < ' ':
			s.i = i
			return nil, s.fail("control character in string")
		case c == '\\':
			if i+1 == len(s.b) {
				s.i = i
				return nil, s.fail("unterminated escape")
			}
			switch e := s.b[i+1]; e {
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
				r := hex4(s.b[i:])
				if r < 0 {
					s.i = i
					return nil, s.fail("bad \\u escape")
				}
				if utf16.IsSurrogate(r) {
					// A pair takes the next escape too; anything else is
					// U+FFFD, and the next escape is read on its own.
					if dec := utf16.DecodeRune(r, hex4(s.b[i+6:])); dec != utf8.RuneError {
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
				return nil, s.fail("bad escape")
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(s.b[i:])
			out = utf8.AppendRune(out, r) // RuneError for an invalid byte
			i += size
		}
	}
	s.i = len(s.b)
	return nil, s.fail("unterminated string")
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

// number reads a number and returns its literal.
func (s *scanner) number() ([]byte, error) {
	b, i := s.b, s.i
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
		return nil, s.fail("bad number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, s.fail("bad fraction")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, s.fail("bad exponent")
		}
	}
	lit := b[s.i:i]
	s.i = i
	return lit, nil
}

// open consumes the bracket that starts a container nested depth deep.
func (s *scanner) open(bracket byte, depth int) error {
	if s.peek() != bracket {
		return s.fail("want " + string(bracket))
	}
	if depth > maxDepth {
		return s.fail("nested too deep")
	}
	s.i++
	s.ws()
	return nil
}

// next consumes what follows a container's element: true after a comma,
// false after the closing bracket.
func (s *scanner) next(closing byte) (bool, error) {
	s.ws()
	switch s.peek() {
	case ',':
		s.i++
		s.ws()
		return true, nil
	case closing:
		s.i++
		return false, nil
	}
	return false, s.fail("want , or " + string(closing))
}

// object reads an object nested depth deep; member reads the value of
// the member named key. key may be overwritten by the next string read.
func (s *scanner) object(depth int, member func(key []byte) error) error {
	if err := s.open('{', depth); err != nil {
		return err
	}
	if s.peek() == '}' {
		s.i++
		return nil
	}
	for more := true; more; {
		key, err := s.str()
		if err != nil {
			return err
		}
		if s.ws(); s.peek() != ':' {
			return s.fail("want :")
		}
		s.i++
		s.ws()
		if err := member(key); err != nil {
			return err
		}
		if more, err = s.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// array reads an array nested depth deep; elem reads each element.
func (s *scanner) array(depth int, elem func() error) error {
	if err := s.open('[', depth); err != nil {
		return err
	}
	if s.peek() == ']' {
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

// skip reads any value nested depth deep.
func (s *scanner) skip(depth int) error {
	switch c := s.peek(); {
	case c == '"':
		_, err := s.str()
		return err
	case c == '{':
		return s.object(depth+1, func([]byte) error { return s.skip(depth + 1) })
	case c == '[':
		return s.array(depth+1, func() error { return s.skip(depth + 1) })
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := s.number()
		return err
	}
	return s.fail("want a value")
}

// batch decodes the row lines a stream found buffered together and hands
// them out from three allocations of exact size, whatever their number
// and width: one string holds every cell's bytes back to back, one
// []string the cells, one []*string the rows. Its slices are scratch a
// pooled stream keeps from batch to batch; the rows it hands out are not.
type batch struct {
	text  []byte    // every cell's unescaped bytes, back to back
	cells []cell    // the batch's cells, row after row
	ends  []int     // per row, the end of its cells in cells
	unq   []byte    // the scanner's unescape buffer
	ptrs  []*string // the decoded cells, handed out row by row
	next  int       // the next row to hand out, an index into ends
	err   error     // the malformed line that ended the batch, after its rows
}

type cell struct {
	end  int32 // of the cell's bytes in text
	null bool
}

// decode decodes tok — a row line and the lines splitRows found behind
// it — up to the first malformed line, whose error comes after the rows
// before it.
func (b *batch) decode(tok []byte) {
	b.text, b.cells, b.ends, b.err = b.text[:0], b.cells[:0], b.ends[:0], nil
	for len(tok) > 0 {
		line := tok
		if i := bytes.IndexByte(tok, '\n'); i >= 0 {
			line, tok = tok[:i], tok[i+1:]
		} else {
			tok = nil
		}
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		if b.err = b.add(line); b.err != nil {
			break
		}
	}
	joined := string(b.text)
	vals, ptrs := make([]string, len(b.cells)), make([]*string, len(b.cells))
	start := int32(0)
	for i, c := range b.cells {
		if !c.null {
			vals[i], ptrs[i] = joined[start:c.end], &vals[i]
			start = c.end
		}
	}
	b.ptrs, b.next = ptrs, 0
}

// add decodes one row line, an array of strings and nulls; a malformed
// one leaves the batch as it was.
func (b *batch) add(line []byte) error {
	s := scanner{b: line, buf: b.unq}
	text, cells := len(b.text), len(b.cells)
	s.ws()
	err := s.array(1, func() error {
		null, err := s.null()
		if err == nil && !null {
			var v []byte
			v, err = s.str()
			b.text = append(b.text, v...)
		}
		b.cells = append(b.cells, cell{int32(len(b.text)), null})
		return err
	})
	b.unq = s.buf
	if err = firstErr(err, s.end()); err != nil {
		b.text, b.cells = b.text[:text], b.cells[:cells]
		return err
	}
	b.ends = append(b.ends, len(b.cells))
	return nil
}

// pop hands out the next row of the batch, false once none is left. A
// row is a 3-index slice, so an append to it never writes into the next.
func (b *batch) pop() (Row, bool) {
	if b.next == len(b.ends) {
		return nil, false
	}
	lo, hi := 0, b.ends[b.next]
	if b.next > 0 {
		lo = b.ends[b.next-1]
	}
	b.next++
	return Row(b.ptrs[lo:hi:hi]), true
}

// decodeStatus decodes a job-resource line into st.
func decodeStatus(line []byte, st *JobStatus) error {
	s := scanner{b: line}
	s.ws()
	if null, err := s.null(); null || err != nil {
		return firstErr(err, s.end())
	}
	err := s.object(1, func(key []byte) error {
		switch string(key) {
		case "id":
			return s.stringField(&st.ID)
		case "state":
			return s.stringField(&st.State)
		case "session":
			return s.stringField(&st.Session)
		case "columns":
			return s.stringsField(&st.Columns)
		case "rows_emitted":
			return s.intField(&st.RowsEmitted)
		case "affected":
			return s.intField(&st.Affected)
		case "plan":
			return s.stringField(&st.Plan)
		case "warnings":
			return s.stringsField(&st.Warnings)
		case "statements_done":
			return s.intField(&st.StatementsDone)
		case "stats":
			return s.statsField(&st.Stats)
		case "predicted_cents":
			return s.floatField(&st.PredictedCents)
		case "predicted_seconds":
			return s.floatField(&st.PredictedSeconds)
		case "spent_cents":
			return s.floatField(&st.SpentCents)
		case "actual_cents":
			return s.floatField(&st.ActualCents)
		case "error":
			return s.errorField(&st.Error)
		}
		return s.skip(1)
	})
	return firstErr(err, s.end())
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// The field readers: each reads one member's value nested one level in
// the job resource, where null leaves the field as it is — or, for a
// slice or the error, sets it to nil.

func (s *scanner) stringField(dst *string) error {
	if null, err := s.null(); null || err != nil {
		return err
	}
	v, err := s.str()
	if err == nil {
		*dst = string(v)
	}
	return err
}

func (s *scanner) intField(dst *int) error {
	if null, err := s.null(); null || err != nil {
		return err
	}
	lit, err := s.number()
	if err != nil {
		return err
	}
	// Up to nine digits fit any int; longer literals go to strconv. A
	// fraction or an exponent is refused, as json.Unmarshal refuses it.
	if n := len(lit); n <= 9 || n == 10 && lit[0] == '-' {
		v, neg := 0, lit[0] == '-'
		if neg {
			lit = lit[1:]
		}
		for _, c := range lit {
			if c < '0' || c > '9' {
				return s.fail("not an integer")
			}
			v = v*10 + int(c-'0')
		}
		if neg {
			v = -v
		}
		*dst = v
		return nil
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return s.fail("not an int")
	}
	*dst = int(v)
	return nil
}

func (s *scanner) floatField(dst *float64) error {
	if null, err := s.null(); null || err != nil {
		return err
	}
	lit, err := s.number()
	if err != nil {
		return err
	}
	if len(lit) == 1 && lit[0] == '0' {
		*dst = 0
		return nil
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return s.fail("float out of range")
	}
	*dst = v
	return nil
}

// stringsField reads an array of strings the way json.Unmarshal does:
// over the elements already there — a null element keeps what its slot
// held — and to an empty, non-nil slice for [].
func (s *scanner) stringsField(dst *[]string) error {
	if null, err := s.null(); null || err != nil {
		if null {
			*dst = nil
		}
		return err
	}
	out, n := *dst, 0
	err := s.array(2, func() error {
		switch {
		case n == cap(out):
			out = append(out, "")
		case n == len(out):
			out = out[:n+1]
		}
		n++
		return s.stringField(&out[n-1])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		out = []string{}
	}
	*dst = out[:n]
	return nil
}

func (s *scanner) statsField(st *Stats) error {
	if null, err := s.null(); null || err != nil {
		return err
	}
	return s.object(2, func(key []byte) error {
		switch string(key) {
		case "RowsScanned":
			return s.intField(&st.RowsScanned)
		case "ProbeRequests":
			return s.intField(&st.ProbeRequests)
		case "NewTupleRequests":
			return s.intField(&st.NewTupleRequests)
		case "Comparisons":
			return s.intField(&st.Comparisons)
		case "CacheHits":
			return s.intField(&st.CacheHits)
		case "SharedFlights":
			return s.intField(&st.SharedFlights)
		case "BudgetDenied":
			return s.intField(&st.BudgetDenied)
		}
		return s.skip(2)
	})
}

func (s *scanner) errorField(dst **Error) error {
	if null, err := s.null(); null || err != nil {
		if null {
			*dst = nil
		}
		return err
	}
	if s.peek() == '{' && *dst == nil {
		*dst = &Error{}
	}
	return s.object(2, func(key []byte) error {
		switch string(key) {
		case "code":
			return s.stringField(&(*dst).Code)
		case "message":
			return s.stringField(&(*dst).Message)
		}
		return s.skip(2)
	})
}
