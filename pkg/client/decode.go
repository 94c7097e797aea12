package client

import (
	"bytes"
	"strconv"

	"crowddb/internal/jsonline"
)

// The client's one reader of what the server writes about a job: a row
// line decodes into a Row, a job-resource line — Submit's head, a
// stream's trailer, the Status and Cancel bodies — into a JobStatus. It
// reads with jsonline.Scanner, without reflection, and accepts exactly
// the input json.Unmarshal accepts for these two shapes, producing the
// same values: every escape, surrogate pairs, invalid UTF-8 as U+FFFD,
// null leaving a field as it is (a slice or the error nil), unknown
// fields skipped, and the last of duplicate keys winning the way
// json.Unmarshal's does (merged into an object, over a slice's
// elements). It rejects what json.Unmarshal rejects. One difference, on
// purpose: a field name matches only as the server writes it
// ("rows_emitted", "RowsScanned"), where json.Unmarshal would also take
// it case-folded.

// scanner is the shared JSON reader with the job resource's field
// readers on it.
type scanner struct{ jsonline.Scanner }

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
	s := scanner{jsonline.Scanner{B: line, Buf: b.unq}}
	text, cells := len(b.text), len(b.cells)
	s.WS()
	err := s.Array(1, func() error {
		null, err := s.Null()
		if err == nil && !null {
			var v []byte
			v, err = s.Str()
			b.text = append(b.text, v...)
		}
		b.cells = append(b.cells, cell{int32(len(b.text)), null})
		return err
	})
	b.unq = s.Buf
	if err = firstErr(err, s.End()); err != nil {
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
	s := scanner{jsonline.Scanner{B: line}}
	s.WS()
	if null, err := s.Null(); null || err != nil {
		return firstErr(err, s.End())
	}
	err := s.Object(1, func(key []byte) error {
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
		return s.Skip(1)
	})
	return firstErr(err, s.End())
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
	if null, err := s.Null(); null || err != nil {
		return err
	}
	v, err := s.Str()
	if err == nil {
		*dst = string(v)
	}
	return err
}

func (s *scanner) intField(dst *int) error {
	if null, err := s.Null(); null || err != nil {
		return err
	}
	lit, err := s.Number()
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
				return s.Fail("not an integer")
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
		return s.Fail("not an int")
	}
	*dst = int(v)
	return nil
}

func (s *scanner) floatField(dst *float64) error {
	if null, err := s.Null(); null || err != nil {
		return err
	}
	lit, err := s.Number()
	if err != nil {
		return err
	}
	if len(lit) == 1 && lit[0] == '0' {
		*dst = 0
		return nil
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return s.Fail("float out of range")
	}
	*dst = v
	return nil
}

// stringsField reads an array of strings the way json.Unmarshal does:
// over the elements already there — a null element keeps what its slot
// held — and to an empty, non-nil slice for [].
func (s *scanner) stringsField(dst *[]string) error {
	if null, err := s.Null(); null || err != nil {
		if null {
			*dst = nil
		}
		return err
	}
	out, n := *dst, 0
	err := s.Array(2, func() error {
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
	if null, err := s.Null(); null || err != nil {
		return err
	}
	return s.Object(2, func(key []byte) error {
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
		return s.Skip(2)
	})
}

func (s *scanner) errorField(dst **Error) error {
	if null, err := s.Null(); null || err != nil {
		if null {
			*dst = nil
		}
		return err
	}
	if s.Peek() == '{' && *dst == nil {
		*dst = &Error{}
	}
	return s.Object(2, func(key []byte) error {
		switch string(key) {
		case "code":
			return s.stringField(&(*dst).Code)
		case "message":
			return s.stringField(&(*dst).Message)
		}
		return s.Skip(2)
	})
}
