package exec

import (
	"errors"
	"testing"

	"crowddb/internal/plan"
)

// closeStub is an empty input that records its Close and fails it on
// request.
type closeStub struct {
	closeErr error
	closed   bool
}

func (*closeStub) Schema() []plan.Col             { return nil }
func (*closeStub) Open(*Ctx) error                { return nil }
func (*closeStub) NextBatch(*Ctx) (*Batch, error) { return nil, nil }
func (c *closeStub) Close(*Ctx) error             { c.closed = true; return c.closeErr }

// TestJoinCloseClosesBothInputs: a join whose left input fails to close
// still closes the right one, and reports every failure.
func TestJoinCloseClosesBothInputs(t *testing.T) {
	errLeft, errRight := errors.New("left close"), errors.New("right close")
	for name, mk := range map[string]func(l, r Operator) Operator{
		"nlJoin":   func(l, r Operator) Operator { return &nlJoin{node: &plan.Join{}, left: rowCursor{in: l}, right: r} },
		"hashJoin": func(l, r Operator) Operator { return &hashJoin{node: &plan.Join{}, left: rowCursor{in: l}, right: r} },
	} {
		left, right := &closeStub{closeErr: errLeft}, &closeStub{closeErr: errRight}
		err := mk(left, right).Close(&Ctx{})
		if !left.closed || !right.closed {
			t.Errorf("%s: closed left=%v right=%v, want both", name, left.closed, right.closed)
		}
		if !errors.Is(err, errLeft) || !errors.Is(err, errRight) {
			t.Errorf("%s: Close = %v, want both inputs' errors", name, err)
		}
	}
}
