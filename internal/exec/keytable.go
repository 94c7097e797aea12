package exec

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math/bits"
)

// keyTable numbers the distinct keys it is given densely, in the order it
// first sees them: GROUP BY's groups, DISTINCT's seen rows, the hash join's
// and CrowdJoin's buckets. An operator keeps what it knows about a key in
// chunks indexed by that id, so ids in first-seen order are group order.
//
// The table is open addressing over a power-of-two slot array, at most 3/4
// full, probed linearly. A slot is one word, hash<<32 | id+1 (0 is empty),
// so the array holds no pointers and doubles without rehashing a key. A
// key is sqltypes.AppendKeyPart's bytes, the one key encoding, which the
// storage indexes key by too. It is built in a buffer the caller reuses
// and a lookup allocates nothing; a new key is copied into an arena chunk,
// after its length, and found again by id.
type keyTable struct {
	seed  maphash.Seed
	slots []uint64
	refs  chunks[uint64] // id → chunk<<32 | offset of its key's length in arena[chunk]
	arena [][]byte       // key chunks, each filled up to its capacity and never moved
}

// keyChunk bounds an arena chunk; chunks double up to it.
const keyChunk = 64 << 10

// newKeyTable sizes the slot array for hint keys: 8 B a slot, nothing else.
func newKeyTable(hint int) keyTable {
	t := keyTable{seed: maphash.MakeSeed()}
	if hint > 0 {
		t.slots = make([]uint64, max(8, 1<<bits.Len(uint(hint*4/3))))
	}
	return t
}

func (t *keyTable) len() int { return t.refs.len() }

// reset empties the table under a new seed for its next user. It keeps the
// slot array, the largest arena chunk no bigger than keyChunk and refs'
// chunks; a key's bytes hold no pointer, so only the slots and the refs
// handed out are zeroed.
func (t *keyTable) reset() {
	t.seed = maphash.MakeSeed()
	clear(t.slots)
	t.refs.reset(0)
	var keep []byte
	for _, c := range t.arena {
		if cap(c) <= keyChunk && cap(c) > cap(keep) {
			keep = c[:0]
		}
	}
	clear(t.arena)
	t.arena = t.arena[:0]
	if keep != nil {
		t.arena = append(t.arena, keep)
	}
}

// get returns the id of key, if the table has it.
func (t *keyTable) get(key []byte) (int32, bool) {
	if t.slots == nil {
		return 0, false
	}
	_, id := t.find(key, t.hash(key))
	return id, id >= 0
}

// add returns the id of key, numbering it next if it is new.
func (t *keyTable) add(key []byte) (id int32, isNew bool) {
	h := t.hash(key)
	if t.slots == nil {
		t.slots = make([]uint64, 8)
	}
	at, id := t.find(key, h)
	if id >= 0 {
		return id, false
	}
	if n := t.len() + 1; 4*n > 3*len(t.slots) {
		t.double()
		at, _ = t.find(key, h)
	}
	id = int32(t.refs.push())
	t.slots[at] = uint64(h)<<32 | uint64(id+1)
	*t.refs.at(int(id)) = t.store(key)
	return id, true
}

func (t *keyTable) hash(key []byte) uint32 {
	h := maphash.Bytes(t.seed, key)
	return uint32(h ^ h>>32)
}

// find returns the id of key, or -1 and the empty slot where it goes.
func (t *keyTable) find(key []byte, h uint32) (at int, id int32) {
	mask := len(t.slots) - 1
	for at = int(h) & mask; ; at = (at + 1) & mask {
		s := t.slots[at]
		if s == 0 {
			return at, -1
		}
		if uint32(s>>32) == h && bytes.Equal(t.key(int32(uint32(s))-1), key) {
			return at, int32(uint32(s)) - 1
		}
	}
}

// double moves every slot into an array twice the size, by its stored hash.
func (t *keyTable) double() {
	old := t.slots
	t.slots = make([]uint64, 2*len(old))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s == 0 {
			continue
		}
		at := int(s>>32) & mask
		for t.slots[at] != 0 {
			at = (at + 1) & mask
		}
		t.slots[at] = s
	}
}

// store copies key into the arena and returns where it went.
func (t *keyTable) store(key []byte) uint64 {
	need := binary.MaxVarintLen64 + len(key)
	last := len(t.arena) - 1
	if last < 0 || cap(t.arena[last])-len(t.arena[last]) < need {
		size := 256
		if last >= 0 {
			size = min(2*cap(t.arena[last]), keyChunk)
		}
		t.arena = append(t.arena, make([]byte, 0, max(size, need)))
		last++
	}
	chunk := t.arena[last]
	ref := uint64(last)<<32 | uint64(len(chunk))
	chunk = binary.AppendUvarint(chunk, uint64(len(key)))
	t.arena[last] = append(chunk, key...)
	return ref
}

// key returns the bytes of key id.
func (t *keyTable) key(id int32) []byte {
	ref := *t.refs.at(int(id))
	chunk := t.arena[ref>>32][uint32(ref):]
	n, w := binary.Uvarint(chunk)
	return chunk[w : w+int(n)]
}

// chunks is a vector of runs of w Ts (w 0 is 1), indexed densely from 0.
// It grows by chunks of 8, 16, … runs up to 256 and never moves what it
// has handed out, so a pointer into it stays valid, and n runs cost about
// n runs: a slice grown by append past 256 elements costs 4–5 times its
// final size on the way.
type chunks[T any] struct {
	dir [][]T
	w   int
	n   int
}

const (
	chunkFirst = 8   // runs in the first chunk
	chunkMax   = 256 // runs in every chunk from the sixth on
	// chunkSmall is the runs in the chunks that double: 8+16+…+256.
	chunkSmall = 2*chunkMax - chunkFirst
	// chunkDoubling is how many chunks double.
	chunkDoubling = 6
)

// chunkOf returns the chunk that holds run i and i's place in it.
func chunkOf(i int) (c, j int) {
	if i < chunkSmall {
		c = bits.Len(uint(i+chunkFirst)) - bits.Len(chunkFirst)
		return c, i + chunkFirst - chunkFirst<<c
	}
	i -= chunkSmall
	return chunkDoubling + i/chunkMax, i % chunkMax
}

func (c *chunks[T]) len() int { return c.n }

// push appends a zero run and returns its index.
func (c *chunks[T]) push() int {
	if k, _ := chunkOf(c.n); k == len(c.dir) {
		runs := chunkMax
		if k < chunkDoubling {
			runs = chunkFirst << k
		}
		c.dir = append(c.dir, make([]T, max(c.w, 1)*runs))
	}
	c.n++
	return c.n - 1
}

// reset empties c for runs of w Ts, zeroing the runs it handed out so it
// holds nothing it was given. It keeps its chunks while the run width
// stays the same.
func (c *chunks[T]) reset(w int) {
	n := c.n * max(c.w, 1)
	for _, d := range c.dir {
		if n == 0 {
			break
		}
		k := min(n, len(d))
		clear(d[:k])
		n -= k
	}
	if max(w, 1) != max(c.w, 1) {
		clear(c.dir)
		c.dir = c.dir[:0]
	}
	c.w, c.n = w, 0
}

// run returns run i.
func (c *chunks[T]) run(i int) []T {
	w := max(c.w, 1)
	k, j := chunkOf(i)
	return c.dir[k][j*w : (j+1)*w : (j+1)*w]
}

// at returns the first T of run i.
func (c *chunks[T]) at(i int) *T {
	k, j := chunkOf(i)
	return &c.dir[k][j*max(c.w, 1)]
}
