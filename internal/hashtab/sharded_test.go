package hashtab

import (
	"math/rand"
	"sort"
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
	if st.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes = %d", st.MemoryBytes())
	}
}

func TestShardedInsertBatch(t *testing.T) {
	st := NewShardedWithShards(4, 4)
	keys := shardedRandKeys(1000, 2)
	// Introduce in-batch duplicates: every 10th key repeats its
	// predecessor. The first occurrence must win.
	for i := 9; i < len(keys); i += 10 {
		keys[i] = keys[i-1]
	}
	vals := make([]uint16, len(keys))
	for i := range vals {
		vals[i] = uint16(i)
	}
	inserted := make([]bool, len(keys))
	n := st.InsertBatch(keys, vals, inserted)
	distinct := make(map[uint64]int, len(keys))
	for i, k := range keys {
		if _, ok := distinct[k]; !ok {
			distinct[k] = i
		}
	}
	if n != len(distinct) {
		t.Fatalf("InsertBatch inserted %d, want %d", n, len(distinct))
	}
	for i, k := range keys {
		wantIns := distinct[k] == i
		if inserted[i] != wantIns {
			t.Fatalf("inserted[%d] = %v, want %v", i, inserted[i], wantIns)
		}
	}
	// A second batch of the same keys must insert nothing.
	if n := st.InsertBatch(keys, vals, inserted); n != 0 {
		t.Fatalf("re-batch inserted %d entries", n)
	}
	ft := compacted(t, st)
	if ft.Len() != len(distinct) {
		t.Fatalf("Len %d, want %d", ft.Len(), len(distinct))
	}
	for k, i := range distinct {
		got, ok := ft.Lookup(k)
		if !ok || got != uint16(i) {
			t.Fatalf("Lookup(%#x) = %d,%v; want first-writer value %d", k, got, ok, i)
		}
	}
}

// TestShardedConcurrentInserts hammers one table from many goroutines
// with overlapping key sets while others probe it with
// ContainsBatchSorted (run with -race) — the access pattern of the
// out-of-core builder's merge. Every key must be present exactly once
// afterwards and hold one of the racing writers' values.
func TestShardedConcurrentInserts(t *testing.T) {
	st := NewSharded(1)
	keys := shardedRandKeys(20000, 3)
	probe := append([]uint64(nil), keys...)
	sort.Slice(probe, func(a, b int) bool {
		return Hash64Shift(probe[a])>>st.shift < Hash64Shift(probe[b])>>st.shift
	})
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			vals := make([]uint16, 0, 128)
			batch := make([]uint64, 0, 128)
			ins := make([]bool, 128)
			// Each writer covers the whole key set, offset so batches
			// collide across goroutines.
			for i := range keys {
				j := (i + w*2500) % len(keys)
				batch = append(batch, keys[j])
				vals = append(vals, uint16(w))
				if len(batch) == 128 {
					st.InsertBatch(batch, vals, ins[:len(batch)])
					batch, vals = batch[:0], vals[:0]
				}
			}
			if len(batch) > 0 {
				st.InsertBatch(batch, vals, ins[:len(batch)])
			}
		}(w)
		go func() {
			defer wg.Done()
			present := make([]bool, len(probe))
			for range 4 {
				st.ContainsBatchSorted(probe, present)
			}
		}()
	}
	wg.Wait()
	distinct := make(map[uint64]struct{}, len(keys))
	for _, k := range keys {
		distinct[k] = struct{}{}
	}
	present := make([]bool, len(probe))
	if n := st.ContainsBatchSorted(probe, present); n != len(probe) {
		t.Fatalf("%d of %d keys present after concurrent inserts", n, len(probe))
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
