package storage

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"crowddb/internal/sqltypes"
)

// Model-based recovery property: apply a random workload of inserts,
// updates and deletes against both the store and an in-memory reference
// model, occasionally checkpointing; then reopen from disk and verify the
// recovered state matches the model exactly. Each trial uses a different
// shard count and WAL sync mode; the reopen adopts the persisted layout.
func TestRecoveryMatchesModelUnderRandomWorkload(t *testing.T) {
	shardCounts := []int{1, 2, 4, 8}
	syncModes := []SyncMode{SyncGroup, SyncAlways, SyncOff, SyncGroup}
	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d_shards%d", trial, shardCounts[trial]), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			dir := t.TempDir()
			s, err := NewStoreOptions(dir, Options{Shards: shardCounts[trial], Sync: syncModes[trial]})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CreateTable("t", []int{0}); err != nil {
				t.Fatal(err)
			}

			model := map[string]int64{} // pk -> value
			ids := map[string]RowID{}

			row := func(pk string, v int64) Row {
				return Row{sqltypes.NewString(pk), sqltypes.NewInt(v)}
			}
			keys := func() []string {
				out := make([]string, 0, len(model))
				for k := range model {
					out = append(out, k)
				}
				return out
			}

			const ops = 400
			for i := 0; i < ops; i++ {
				switch op := rng.Intn(10); {
				case op < 5: // insert
					pk := fmt.Sprintf("k%03d", rng.Intn(120))
					v := rng.Int63n(1000)
					id, err := s.Insert("t", row(pk, v))
					if _, exists := model[pk]; exists {
						if err == nil {
							t.Fatalf("op %d: duplicate insert of %s succeeded", i, pk)
						}
						continue
					}
					if err != nil {
						t.Fatalf("op %d: insert %s: %v", i, pk, err)
					}
					model[pk] = v
					ids[pk] = id
				case op < 7: // update
					ks := keys()
					if len(ks) == 0 {
						continue
					}
					pk := ks[rng.Intn(len(ks))]
					v := rng.Int63n(1000)
					if err := s.Update("t", ids[pk], row(pk, v)); err != nil {
						t.Fatalf("op %d: update %s: %v", i, pk, err)
					}
					model[pk] = v
				case op < 9: // delete
					ks := keys()
					if len(ks) == 0 {
						continue
					}
					pk := ks[rng.Intn(len(ks))]
					if err := s.Delete("t", ids[pk]); err != nil {
						t.Fatalf("op %d: delete %s: %v", i, pk, err)
					}
					delete(model, pk)
					delete(ids, pk)
				default: // checkpoint
					if err := s.Checkpoint(); err != nil {
						t.Fatalf("op %d: checkpoint: %v", i, err)
					}
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopening with a different explicit shard count must fail:
			// the pinned contract (rows are placed by hash % shards).
			if _, err := NewStoreOptions(dir, Options{Shards: shardCounts[trial] + 1}); err == nil {
				t.Fatal("reopen with a different shard count must error")
			}

			// Reopen (adopting the on-disk count) and compare to the model.
			s2, err := NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if got := s2.NumShards(); got != shardCounts[trial] {
				t.Fatalf("adopted %d shards, want %d", got, shardCounts[trial])
			}
			if err := s2.CreateTable("t", []int{0}); err != nil {
				t.Fatal(err)
			}
			if err := s2.Recover(); err != nil {
				t.Fatal(err)
			}
			n, _ := s2.RowCount("t")
			if n != len(model) {
				t.Fatalf("recovered %d rows, model has %d", n, len(model))
			}
			for pk, v := range model {
				id, ok := lookupPK(s2, "t", sqltypes.NewString(pk))
				if !ok {
					t.Fatalf("key %s lost in recovery", pk)
				}
				got, _ := s2.Get("t", id)
				if got[1].Int() != v {
					t.Fatalf("key %s: recovered %d, model %d", pk, got[1].Int(), v)
				}
			}
		})
	}
}

// modelOp is one logical mutation for the torn-WAL property test's
// reference replayer.
type modelOp struct {
	op  string // "insert", "update", "delete"
	pk  string
	val int64
}

func replayModel(ops []modelOp) map[string]int64 {
	m := map[string]int64{}
	for _, o := range ops {
		switch o.op {
		case "insert", "update":
			m[o.pk] = o.val
		case "delete":
			delete(m, o.pk)
		}
	}
	return m
}

// TestRecoveryTornShardWALProperty: after a random workload (no
// checkpoints), tear the tail of ONE shard's WAL mid-record. Recovery
// must succeed, and the recovered state must equal either the full model
// or the model with that shard's final operation undone — never anything
// else. Keys never change shards here (updates keep the PK), so each
// shard's WAL fully determines its rows.
func TestRecoveryTornShardWALProperty(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + trial)))
			shards := []int{2, 3, 4, 8}[trial]
			dir := t.TempDir()
			s, err := NewStoreOptions(dir, Options{Shards: shards, Sync: SyncGroup})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CreateTable("t", []int{0}); err != nil {
				t.Fatal(err)
			}
			ts, err := s.table("t")
			if err != nil {
				t.Fatal(err)
			}
			shardOf := func(pk string) int {
				return ts.shardOfKey(ts.pkKey(Row{sqltypes.NewString(pk), sqltypes.NewInt(0)}))
			}

			perShard := make([][]modelOp, shards)
			ids := map[string]RowID{}
			live := map[string]bool{}
			record := func(o modelOp) { sh := shardOf(o.pk); perShard[sh] = append(perShard[sh], o) }

			for i := 0; i < 300; i++ {
				pk := fmt.Sprintf("k%03d", rng.Intn(80))
				switch op := rng.Intn(10); {
				case op < 6 && !live[pk]:
					v := rng.Int63n(1000)
					id, err := s.Insert("t", Row{sqltypes.NewString(pk), sqltypes.NewInt(v)})
					if err != nil {
						t.Fatal(err)
					}
					ids[pk], live[pk] = id, true
					record(modelOp{"insert", pk, v})
				case op < 8 && live[pk]:
					v := rng.Int63n(1000)
					if err := s.Update("t", ids[pk], Row{sqltypes.NewString(pk), sqltypes.NewInt(v)}); err != nil {
						t.Fatal(err)
					}
					record(modelOp{"update", pk, v})
				case live[pk]:
					if err := s.Delete("t", ids[pk]); err != nil {
						t.Fatal(err)
					}
					live[pk] = false
					record(modelOp{"delete", pk, 0})
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Tear the tail of one non-empty shard WAL mid-record.
			victim := -1
			for sh := 0; sh < shards; sh++ {
				if len(perShard[sh]) > 0 {
					victim = sh
				}
			}
			if victim < 0 {
				t.Skip("empty workload")
			}
			path := walShardPath(dir, victim)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Find the last record's start and cut strictly inside it.
			lastStart := strings.LastIndex(strings.TrimSuffix(string(data), "\n"), "\n") + 1
			cut := lastStart + 1 + rng.Intn(len(data)-lastStart-1)
			if err := os.Truncate(path, int64(cut)); err != nil {
				t.Fatal(err)
			}

			s2, err := NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if err := s2.CreateTable("t", []int{0}); err != nil {
				t.Fatal(err)
			}
			if err := s2.Recover(); err != nil {
				t.Fatalf("torn shard WAL must not fail recovery: %v", err)
			}

			// Expected: per shard, the full replay — except the victim,
			// which may be missing exactly its final operation.
			want := map[string]int64{}
			wantAlt := map[string]int64{}
			for sh := 0; sh < shards; sh++ {
				ops := perShard[sh]
				for pk, v := range replayModel(ops) {
					want[pk] = v
				}
				if sh == victim {
					ops = ops[:len(ops)-1]
				}
				for pk, v := range replayModel(ops) {
					wantAlt[pk] = v
				}
			}
			got := map[string]int64{}
			_, rows, err := scanRows(s2, "t")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				got[r[0].Str()] = r[1].Int()
			}
			if !mapsEqual(got, want) && !mapsEqual(got, wantAlt) {
				t.Fatalf("recovered state matches neither the full model (%d keys) nor the model minus shard %d's last op (%d keys): got %d keys",
					len(want), victim, len(wantAlt), len(got))
			}
		})
	}
}

func mapsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
