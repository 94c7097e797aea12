package exec

// The key table, and allocation pins for the
// operators that key rows by value: a key is built in a reused buffer and
// looked up without a copy, and only a new key is copied — into an arena
// chunk, not a string of its own.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/optimizer"
	"crowddb/internal/sqltypes"
)

// TestKeyTableDenseIDs: ids are 0, 1, 2, … in first-seen order, a key seen
// again gets its id back, and get finds every key after every doubling —
// over keys that differ only in their last byte, keys behind a long common
// prefix and keys laden with 0x00.
func TestKeyTableDenseIDs(t *testing.T) {
	var keys [][]byte
	prefix := strings.Repeat("p", 300)
	for i := range 4000 {
		keys = append(keys,
			[]byte(fmt.Sprintf("k-%03d-%c", i/256, byte(i))),
			[]byte(fmt.Sprintf("%s%d", prefix, i)),
			append(bytes.Repeat([]byte{0}, i%7), byte(i), byte(i>>8), 0, 0))
	}
	keys = append(keys, []byte{}, []byte{0})
	tab := newKeyTable(0)
	slots := len(tab.slots)
	for i, k := range keys {
		if id, isNew := tab.add(k); id != int32(i) || !isNew {
			t.Fatalf("key %d (%q): id %d new %v, want %d new", i, k, id, isNew, i)
		}
		if j := i / 2; i%3 == 0 {
			if id, isNew := tab.add(keys[j]); id != int32(j) || isNew {
				t.Fatalf("key %d again: id %d new %v, want %d not new", j, id, isNew, j)
			}
		}
		if len(tab.slots) == slots {
			continue
		}
		slots = len(tab.slots)
		for j, k := range keys[:i+1] {
			if id, ok := tab.get(k); id != int32(j) || !ok {
				t.Fatalf("after doubling to %d slots, key %d: %d %v", slots, j, id, ok)
			}
		}
	}
	if tab.len() != len(keys) || slots < len(keys)*4/3 {
		t.Fatalf("%d keys in %d slots, want %d keys at most 3/4 full", tab.len(), slots, len(keys))
	}
	for _, k := range [][]byte{[]byte("k-000-"), []byte(prefix), {0, 0, 0}, []byte("absent")} {
		if id, ok := tab.get(k); ok {
			t.Errorf("get(%q) found id %d", k, id)
		}
	}
	for i, k := range keys {
		if got := tab.key(int32(i)); !bytes.Equal(got, k) {
			t.Fatalf("key(%d) = %q, want %q", i, got, k)
		}
	}
}

// TestKeyTableChunksNeverMove: runs are numbered densely through chunks of
// 8, 16, … 256 runs, and what a run's pointer points at stays put as the
// vector grows.
func TestKeyTableChunksNeverMove(t *testing.T) {
	c := chunks[int]{w: 3}
	first := c.at(c.push())
	*first = 7
	for i := 1; i < 5000; i++ {
		if got := c.push(); got != i {
			t.Fatalf("push %d returned %d", i, got)
		}
		c.run(i)[2] = i
	}
	if *first != 7 || c.at(0) != first {
		t.Fatalf("run 0 moved or changed: %d", *first)
	}
	for i := 1; i < 5000; i++ {
		if r := c.run(i); len(r) != 3 || r[2] != i {
			t.Fatalf("run %d = %v", i, r)
		}
	}
	want := []int{8, 16, 32, 64, 128, 256, 256}
	for k, n := range want {
		if got := len(c.dir[k]) / 3; got != n {
			t.Errorf("chunk %d holds %d runs, want %d", k, got, n)
		}
	}
}

// groupByBytes is the bytes one run of sql allocates over rows rows of
// v(id, g, val), g cycling through groups values.
func groupByBytes(t *testing.T, rows, groups int, sql string) int64 {
	h := newHarness(t)
	h.createTable(t, &catalog.Table{
		Name: "v",
		Columns: []catalog.Column{
			{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
			{Name: "g", Type: sqltypes.TypeString},
			{Name: "val", Type: sqltypes.TypeInt},
		},
	})
	for i := 0; i < rows; i++ {
		h.insert(t, "v", Row{num(int64(i)), str(fmt.Sprintf("group-%04d", i%groups)), num(int64(i*7919+13) % 1000)})
	}
	return testing.Benchmark(func(b *testing.B) {
		for range b.N {
			h.run(t, sql, optimizer.Options{})
		}
	}).AllocedBytesPerOp()
}

// TestGroupByBytesFollowGroups pins what a group costs in bytes: its key
// in the arena, its share of the slot array, its state and its calls'
// states, and not a map entry, a pointer to it or an order slice.
func TestGroupByBytesFollowGroups(t *testing.T) {
	for _, tc := range []struct {
		sql    string
		budget int64 // bytes per extra group
	}{
		{"SELECT g, COUNT(*), AVG(val) FROM v GROUP BY g ORDER BY AVG(val) DESC LIMIT 10", 170},
		{"SELECT g, MIN(val), MAX(val) FROM v GROUP BY g ORDER BY MAX(val) DESC LIMIT 10", 377},
	} {
		few, wide := groupByBytes(t, 4000, 20, tc.sql), groupByBytes(t, 4000, 2000, tc.sql)
		perGroup := (wide - few) / 1980
		t.Logf("%s: %d B over 20 groups, %d B over 2 000: %d B per extra group", tc.sql, few, wide, perGroup)
		if perGroup > tc.budget {
			t.Errorf("%s: %d B per extra group, want ≤ %d", tc.sql, perGroup, tc.budget)
		}
	}
}

// keyedAllocs loads rows rows of (id, k) into table t, with k cycling
// through keys values, plus a 20-row table b keyed 0..19, and measures
// the allocations of one run of sql.
func keyedAllocs(t *testing.T, rows, keys int, sql string) float64 {
	h := newHarness(t)
	for _, name := range []string{"t", "b"} {
		h.createTable(t, &catalog.Table{
			Name: name,
			Columns: []catalog.Column{
				{Name: "id", Type: sqltypes.TypeInt, PrimaryKey: true},
				{Name: "k", Type: sqltypes.TypeString},
			},
		})
	}
	for i := 0; i < rows; i++ {
		h.insert(t, "t", Row{num(int64(i)), str(fmt.Sprintf("key-%04d", i%keys))})
	}
	for i := 0; i < 20; i++ {
		h.insert(t, "b", Row{num(int64(i)), str(fmt.Sprintf("key-%04d", i))})
	}
	opts := optimizer.Options{DisableJoinReorder: true} // t probes, b builds
	return testing.AllocsPerRun(5, func() {
		ctx := &Ctx{Store: h.store, Cat: h.cat, Cache: NewCompareCache()}
		h.runCtxOpts(t, ctx, sql, opts)
	})
}

// TestDistinctAllocsFollowKeysNotRows: ten times the input over the same
// keys costs DISTINCT (almost) nothing more, and a new key costs no
// allocation of its own.
func TestDistinctAllocsFollowKeysNotRows(t *testing.T) {
	const sql = "SELECT DISTINCT k FROM t"
	few, many := keyedAllocs(t, 400, 20, sql), keyedAllocs(t, 4000, 20, sql)
	if perRow := (many - few) / 3600; perRow >= 0.05 {
		t.Errorf("%.3f allocations per extra input row, want < 0.05 (%.0f over 400 rows, %.0f over 4 000)", perRow, few, many)
	}
	wide := keyedAllocs(t, 4000, 2000, sql)
	t.Logf("DISTINCT: %.0f allocations over 400 rows, %.0f over 4 000, %.0f over 4 000 with 2 000 keys", few, many, wide)
	if perKey := (wide - many) / 1980; perKey >= 0.05 {
		t.Errorf("%.3f allocations per extra key, want < 0.05 (%.0f for 20 keys, %.0f for 2 000)", perKey, many, wide)
	}
}

// TestHashJoinProbeAllocatesNoKey: a probe row that finds nothing costs
// nothing, and one that matches costs its output row only.
func TestHashJoinProbeAllocatesNoKey(t *testing.T) {
	const miss = "SELECT t.id FROM t JOIN b ON t.k = b.k WHERE t.id >= 20"
	few, many := keyedAllocs(t, 400, 4000, miss), keyedAllocs(t, 4000, 4000, miss)
	if perRow := (many - few) / 3600; perRow >= 0.05 {
		t.Errorf("%.3f allocations per probe row that misses, want < 0.05 (%.0f for 400 rows, %.0f for 4 000)", perRow, few, many)
	}
	const hit = "SELECT t.id, b.id FROM t JOIN b ON t.k = b.k"
	t.Logf("probes that miss: %.0f allocations for 400, %.0f for 4 000", few, many)
	few, many = keyedAllocs(t, 400, 20, hit), keyedAllocs(t, 4000, 20, hit)
	t.Logf("probes that match: %.0f allocations for 400, %.0f for 4 000", few, many)
	if perRow := (many - few) / 3600; perRow >= 1.05 {
		t.Errorf("%.3f allocations per probe row that matches, want < 1.05: its output row (%.0f for 400 rows, %.0f for 4 000)", perRow, few, many)
	}
}
