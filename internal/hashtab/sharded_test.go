package hashtab

import (
	"math/rand"
	"sync"
	"testing"
)

func shardedRandKeys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = rng.Uint64()
		}
	}
	return keys
}

// compacted freezes a sharded table for inspection, the way every built
// table is read.
func compacted(t *testing.T, st *ShardedTable) *FrozenTable {
	t.Helper()
	ft, err := Compact(st)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestShardedBasics(t *testing.T) {
	st := NewShardedWithShards(16, 8)
	keys := shardedRandKeys(5000, 1)
	ref := make(map[uint64]uint16, len(keys))
	for i, k := range keys {
		v := uint16(i)
		_, dup := ref[k]
		if !dup {
			ref[k] = v
		}
		existing, inserted := st.Insert(k, v)
		if inserted == dup || existing != ref[k] {
			t.Fatalf("Insert(%#x) = %d,%v; want %d,%v", k, existing, inserted, ref[k], !dup)
		}
	}
	ft := compacted(t, st)
	if ft.ShardCount() != 8 {
		t.Fatalf("shard count = %d, want 8", ft.ShardCount())
	}
	if ft.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", ft.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok := ft.Lookup(k)
		if !ok || got != v {
			t.Fatalf("Lookup(%#x) = %d,%v; want %d", k, got, ok, v)
		}
	}
}

// TestShardedConcurrentInserts hammers one table with concurrent Insert
// calls over overlapping key sets (run with -race): Insert takes the
// owning shard's lock. Every key must be present exactly once afterwards
// and hold one of the racing writers' values, and exactly one writer
// must have seen each key inserted.
func TestShardedConcurrentInserts(t *testing.T) {
	st := NewSharded(1)
	keys := shardedRandKeys(20000, 3)
	const writers = 8
	var (
		wg       sync.WaitGroup
		inserted [writers]int
	)
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each writer covers the whole key set, offset so writers
			// collide on keys and shards.
			for i := range keys {
				if _, ins := st.Insert(keys[(i+w*2500)%len(keys)], uint16(w)); ins {
					inserted[w]++
				}
			}
		}()
	}
	wg.Wait()
	distinct := make(map[uint64]struct{}, len(keys))
	for _, k := range keys {
		distinct[k] = struct{}{}
	}
	total := 0
	for _, n := range inserted {
		total += n
	}
	if total != len(distinct) {
		t.Fatalf("writers inserted %d keys in all, want %d", total, len(distinct))
	}
	ft := compacted(t, st)
	if ft.Len() != len(distinct) {
		t.Fatalf("Len = %d after concurrent inserts, want %d", ft.Len(), len(distinct))
	}
	for k := range distinct {
		v, ok := ft.Lookup(k)
		if !ok || v >= writers {
			t.Fatalf("Lookup(%#x) = %d,%v after concurrent inserts", k, v, ok)
		}
	}
}

// TestShardedGrowth starts tiny and inserts far past the initial
// capacity; per-shard growth must preserve every entry.
func TestShardedGrowth(t *testing.T) {
	st := NewShardedWithShards(1, 2)
	keys := shardedRandKeys(50000, 5)
	for i, k := range keys {
		st.Insert(k, uint16(i))
	}
	ft := compacted(t, st)
	for _, k := range keys {
		if !ft.Contains(k) {
			t.Fatalf("key %#x lost after growth", k)
		}
	}
	if lf := ft.LoadFactor(); lf <= 0 || lf > maxLoadFactor {
		t.Fatalf("load factor %f out of range", lf)
	}
}

// TestShardedMatchesFlat: a sharded table and a flat table fed the same
// stream must agree on every insert outcome, membership and value.
func TestShardedMatchesFlat(t *testing.T) {
	st := NewSharded(64)
	flat := New(64)
	keys := shardedRandKeys(10000, 6)
	for i, k := range keys {
		v := uint16(i & 0x7FFF)
		_, si := st.Insert(k, v)
		_, fi := flat.Insert(k, v)
		if si != fi {
			t.Fatalf("insert disagreement on %#x", k)
		}
	}
	ft := compacted(t, st)
	if ft.Len() != flat.Len() {
		t.Fatalf("Len %d vs flat %d", ft.Len(), flat.Len())
	}
	flat.ForEach(func(k uint64, v uint16) bool {
		got, ok := ft.Lookup(k)
		if !ok || got != v {
			t.Fatalf("sharded disagrees with flat on %#x", k)
		}
		return true
	})
}
