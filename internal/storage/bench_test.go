package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"crowddb/internal/sqltypes"
)

// loadRows fills a fresh in-memory store with n rows.
func benchStore(b *testing.B, shards, rows int) *Store {
	b.Helper()
	s, err := NewStoreOptions("", Options{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.CreateTable("t", []int{0}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := s.Insert("t", kvRow(fmt.Sprintf("k%07d", i), int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkScan measures full-table snapshot throughput: the bulk
// sequential path (ScanRows: one lock per shard, merged) and the
// parallel path (one goroutine per shard over ScanShardRows).
func BenchmarkScan(b *testing.B) {
	const rows = 10000
	for _, shards := range []int{1, 2, 4, 8} {
		s := benchStore(b, shards, rows)
		b.Run(fmt.Sprintf("bulk/shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, got, err := scanRows(s, "t")
				if err != nil || len(got) != rows {
					b.Fatalf("scan: %d rows, %v", len(got), err)
				}
			}
		})
		b.Run(fmt.Sprintf("parallel/shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var total atomic.Int64
				var wg sync.WaitGroup
				for sh := 0; sh < shards; sh++ {
					wg.Add(1)
					go func(sh int) {
						defer wg.Done()
						_, got, err := scanShardRows(s, "t", sh)
						if err != nil {
							b.Error(err)
						}
						total.Add(int64(len(got)))
					}(sh)
				}
				wg.Wait()
				if total.Load() != rows {
					b.Fatalf("parallel scan covered %d rows", total.Load())
				}
			}
		})
	}
}

// BenchmarkInsertParallel measures concurrent insert throughput per
// shard count: with one shard every writer serializes on a single lock
// (the old engine's behavior); with more, writers on different shards
// proceed in parallel.
func BenchmarkInsertParallel(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := NewStoreOptions("", Options{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.CreateTable("t", []int{0}); err != nil {
				b.Fatal(err)
			}
			var seq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					if _, err := s.Insert("t", kvRow(fmt.Sprintf("k%09d", i), i)); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkLookupPK measures the single-shard point-lookup path.
func BenchmarkLookupPK(b *testing.B) {
	const rows = 10000
	for _, shards := range []int{1, 8} {
		s := benchStore(b, shards, rows)
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pk := sqltypes.NewString(fmt.Sprintf("k%07d", i%rows))
				if _, _, ok := s.LookupPKRowAt("t", s.VisibleTS(), pk); !ok {
					b.Fatal("lookup miss")
				}
			}
		})
	}
}
