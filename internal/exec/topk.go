package exec

import (
	"cmp"
	"slices"

	"crowddb/internal/parser"
	"crowddb/internal/sqltypes"
)

// topK is the selection under a bounded sort: offered rows one at a time, it
// holds the first keep of them in the order of their keys, or every row
// when keep < 0. A row's place is decided by its keys and then by when it
// arrived, which makes the order a total one: no two rows tie, so which rows
// are the first keep does not depend on how they were found. Each held row
// has a slot; the caller keeps what it needs of the row under that slot.
//
// The keys are evaluated once into one flat array and the heap moves slot
// numbers, not rows: swapping integers needs no write barrier, so what a
// selection costs does not depend on whether the collector happens to be
// marking while it runs.
type topK struct {
	order   []parser.OrderItem // the sort keys, for their directions
	keys    []bound            // order's keys, bound over the offered rows
	keep    int64
	vals    []sqltypes.Value // vals[s*nk:][:nk] are the keys of slot s's row
	arrival []int64          // slot s's row was the arrival[s]-th offered
	worst   []int32          // once keep rows are held: a heap of their slots, the last in output order on top
	arrived int64
}

// offer evaluates r's keys and returns the slot r now holds: the next free
// one while fewer than keep rows are held, after that the slot of the held
// row it displaces — or -1 when r sorts after every held row.
func (t *topK) offer(r Row) (int, error) {
	nk, at := len(t.keys), len(t.vals)
	for i := range t.keys {
		v, err := t.keys[i].eval(r, nil)
		if err != nil {
			t.vals = t.vals[:at]
			return -1, err
		}
		t.vals = append(t.vals, v)
	}
	t.arrived++
	if held := len(t.arrival); t.keep < 0 || int64(held) < t.keep {
		t.arrival = append(t.arrival, t.arrived)
		if int64(held+1) == t.keep {
			t.worst = t.slots()
			for i := len(t.worst)/2 - 1; i >= 0; i-- {
				t.sift(i)
			}
		}
		return held, nil
	}
	// Full: the row either displaces the held row that sorts last or,
	// arriving after it, loses the tie and is dropped.
	w := int32(-1)
	if len(t.worst) > 0 && t.byKeys(t.vals[at:], t.keysOf(t.worst[0])) < 0 {
		w = t.worst[0]
		copy(t.vals[int(w)*nk:], t.vals[at:])
		t.arrival[w] = t.arrived
		t.sift(0)
	}
	t.vals = t.vals[:at]
	return int(w), nil
}

// sorted returns the held slots in output order.
func (t *topK) sorted() []int32 {
	out := t.held()
	slices.SortFunc(out, t.after)
	return out
}

// inArrival returns the held slots in the order their rows were offered.
func (t *topK) inArrival() []int32 {
	out := t.held()
	slices.SortFunc(out, func(a, b int32) int { return cmp.Compare(t.arrival[a], t.arrival[b]) })
	return out
}

func (t *topK) held() []int32 {
	if t.worst != nil {
		return t.worst
	}
	return t.slots()
}

func (t *topK) slots() []int32 {
	out := make([]int32, len(t.arrival))
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func (t *topK) keysOf(s int32) []sqltypes.Value {
	nk := len(t.keys)
	return t.vals[int(s)*nk:][:nk]
}

func (t *topK) byKeys(a, b []sqltypes.Value) int {
	for i, k := range t.order {
		if c := sqltypes.SortCompare(a[i], b[i]); c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// after orders two slots: by their rows' keys, then by arrival.
func (t *topK) after(a, b int32) int {
	if c := t.byKeys(t.keysOf(a), t.keysOf(b)); c != 0 {
		return c
	}
	return cmp.Compare(t.arrival[a], t.arrival[b])
}

func (t *topK) sift(i int) {
	for {
		top := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(t.worst); c++ {
			if t.after(t.worst[c], t.worst[top]) > 0 {
				top = c
			}
		}
		if top == i {
			return
		}
		t.worst[i], t.worst[top] = t.worst[top], t.worst[i]
		i = top
	}
}
