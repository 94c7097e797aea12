package exec

import "strings"

// keyTable maps encoded keys (storage.AppendIndexKey) to values: GROUP BY's
// groups, DISTINCT's seen rows, the hash join's buckets. A key is built in
// a buffer the caller reuses, and a lookup — t.m[string(key)] — allocates
// nothing. An insert copies the key into an arena: back to back into the
// buffer of a strings.Builder, handed out as substrings of it, and the
// Builder is never written past what it handed out — a full one is
// replaced, not grown. So a new key costs no allocation of its own, only
// its share of a chunk.
type keyTable[V any] struct {
	m     map[string]V
	arena strings.Builder
}

// keyChunk bounds an arena chunk; chunks double up to it.
const keyChunk = 64 << 10

func newKeyTable[V any](hint int) keyTable[V] {
	return keyTable[V]{m: make(map[string]V, hint)}
}

func (t *keyTable[V]) get(key []byte) (V, bool) {
	v, ok := t.m[string(key)]
	return v, ok
}

// put inserts a key that is not in the table.
func (t *keyTable[V]) put(key []byte, v V) {
	if t.arena.Cap()-t.arena.Len() < len(key) {
		size := max(min(2*t.arena.Cap(), keyChunk), 256, len(key))
		t.arena = strings.Builder{}
		t.arena.Grow(size)
	}
	at := t.arena.Len()
	t.arena.Write(key)
	t.m[t.arena.String()[at:]] = v
}

func (t *keyTable[V]) len() int { return len(t.m) }
