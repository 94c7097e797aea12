package storage

// Shard routing against the key form it has always hashed: the version-1
// key, kept here as the reference now that no index keys by it.

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"crowddb/internal/sqltypes"
)

// appendV1Key appends the version-1 key of vals to dst: each part's
// AppendKey bytes with 0x00 escaped as 0x00 0xFF, then 0x00 0x00.
func appendV1Key(dst []byte, vals ...sqltypes.Value) []byte {
	for _, v := range vals {
		for _, b := range sqltypes.AppendKey(nil, v) {
			dst = append(dst, b)
			if b == 0x00 {
				dst = append(dst, 0xFF)
			}
		}
		dst = append(dst, 0x00, 0x00)
	}
	return dst
}

// fuzzValue builds a value as sqltypes' FuzzValueKey does.
func fuzzValue(kind uint8, i int64, f float64, s string) sqltypes.Value {
	switch kind % 6 {
	case 0:
		return sqltypes.Null()
	case 1:
		return sqltypes.CNull()
	case 2:
		return sqltypes.NewString(s)
	case 3:
		return sqltypes.NewInt(i)
	case 4:
		return sqltypes.NewFloat(f)
	default:
		return sqltypes.NewBool(i&1 != 0)
	}
}

// fuzzSpec is fuzzValue's arguments, and fuzzTuple's encoding of a value.
type fuzzSpec struct {
	kind uint8
	i    int64
	f    float64
	s    string
}

// fuzzBytes encodes specs for fuzzTuple: per value its kind, i and f's
// bits big-endian, the length of s in one byte, then s.
func fuzzBytes(specs ...fuzzSpec) []byte {
	var b []byte
	for _, v := range specs {
		b = append(b, v.kind)
		b = binary.BigEndian.AppendUint64(b, uint64(v.i))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.f))
		b = append(append(b, byte(len(v.s))), v.s...)
	}
	return b
}

// fuzzTuple decodes n values from b as fuzzBytes encodes them, reading
// zeros past its end.
func fuzzTuple(n int, b []byte) []sqltypes.Value {
	take := func(k int) []byte {
		out := make([]byte, k)
		b = b[copy(out, b):]
		return out
	}
	row := make([]sqltypes.Value, n)
	for j := range row {
		kind := take(1)[0]
		i := int64(binary.BigEndian.Uint64(take(8)))
		f := math.Float64frombits(binary.BigEndian.Uint64(take(8)))
		row[j] = fuzzValue(kind, i, f, string(take(int(take(1)[0]))))
	}
	return row
}

// FuzzRowKey: two tuples of 1–3 values get one key exactly when they get
// one version-1 key, a one-part key is sqltypes.AppendKey's bytes, and a
// tuple's shard among n, for n in 1..64, is FNV-1a of its version-1 key
// mod n — the routing every data directory so far was written with.
func FuzzRowKey(f *testing.F) {
	const p53 = 1 << 53
	neg0 := math.Copysign(0, -1)
	for _, pair := range [][2]fuzzSpec{ // FuzzValueKey's seeds
		{{3, p53, 0, ""}, {3, p53 + 1, 0, ""}},
		{{4, 0, neg0, ""}, {4, 0, 0, ""}},
		{{3, p53 + 1, 0, ""}, {4, 0, float64(p53), ""}},
		{{3, math.MaxInt64, 0, ""}, {4, 0, float64(1 << 63), ""}},
		{{3, math.MinInt64, 0, ""}, {4, 0, math.Inf(-1), ""}},
		{{2, 0, 0, "a\x00b"}, {2, 0, 0, "a"}},
		{{5, 1, 0, ""}, {5, 0, 0, ""}},
	} {
		f.Add(uint8(0), fuzzBytes(pair[0]), fuzzBytes(pair[1]))
		f.Add(uint8(1), fuzzBytes(pair[0], pair[1]), fuzzBytes(pair[1], pair[0]))
	}
	f.Add(uint8(1), fuzzBytes(fuzzSpec{2, 0, 0, "a\x00"}, fuzzSpec{2, 0, 0, "b"}), fuzzBytes(fuzzSpec{2, 0, 0, "a"}, fuzzSpec{2, 0, 0, "\x00b"}))
	f.Add(uint8(2), fuzzBytes(fuzzSpec{4, 0, math.NaN(), ""}, fuzzSpec{0, 0, 0, ""}, fuzzSpec{1, 0, 0, ""}), fuzzBytes(fuzzSpec{4, 0, math.NaN(), ""}, fuzzSpec{1, 0, 0, ""}, fuzzSpec{0, 0, 0, ""}))
	f.Add(uint8(1), fuzzBytes(fuzzSpec{3, p53 - 1, 0, ""}, fuzzSpec{2, 0, 0, strings.Repeat("\x00", 200)}), fuzzBytes(fuzzSpec{4, 0, p53 - 1, ""}, fuzzSpec{2, 0, 0, strings.Repeat("\x00", 200)}))
	f.Fuzz(func(t *testing.T, n uint8, a, b []byte) {
		parts := 1 + int(n%3)
		ta, tb := fuzzTuple(parts, a), fuzzTuple(parts, b)
		ka, kb := sqltypes.AppendRowKey(nil, ta), sqltypes.AppendRowKey(nil, tb)
		va, vb := appendV1Key(nil, ta...), appendV1Key(nil, tb...)
		if same := bytes.Equal(va, vb); bytes.Equal(ka, kb) != same {
			t.Fatalf("%v vs %v: keys equal %v, version-1 keys equal %v\n% x\n% x", ta, tb, !same, same, ka, kb)
		}
		if parts == 1 && !bytes.Equal(ka, sqltypes.AppendKey(nil, ta[0])) {
			t.Fatalf("one-part key of %v is % x, not AppendKey's", ta, ka)
		}
		h := fnv.New32a()
		h.Write(va)
		ts := &tableStore{pkCols: make([]int, parts)}
		for shards := 1; shards <= MaxShards; shards++ {
			ts.shards = make([]*tableShard, shards)
			if got, want := ts.shardOfKey(string(ka)), int(h.Sum32()%uint32(shards)); got != want {
				t.Fatalf("%v on %d shards: routed to %d, FNV-1a of its version-1 key says %d", ta, shards, got, want)
			}
		}
	})
}
