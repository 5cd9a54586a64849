package hashtab

import (
	"math/rand"
	"testing"
)

// compactShardCounts are the shard counts the Compact tests cover: one
// shard, the smallest split, StoreShards, and more shards than that.
var compactShardCounts = []int{1, 2, StoreShards, 16}

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

// compacted freezes a table over shards hash shards for inspection, the
// way every built table is read.
func compacted(t testing.TB, tab *Table, shards int) *FrozenTable {
	t.Helper()
	ft, err := Compact(tab, shards)
	if err != nil {
		t.Fatal(err)
	}
	if ft.ShardCount() != shards {
		t.Fatalf("shard count = %d, want %d", ft.ShardCount(), shards)
	}
	return ft
}

// TestShardedBasics: a table compacted over any shard count holds every
// entry under the value of its first insertion, and Compact refuses a
// shard count that is not a power of two in [1, 65536].
func TestShardedBasics(t *testing.T) {
	tab := New(16)
	keys := shardedRandKeys(5000, 1)
	ref := make(map[uint64]uint16, len(keys))
	for i, k := range keys {
		v := uint16(i)
		_, dup := ref[k]
		if !dup {
			ref[k] = v
		}
		existing, inserted := tab.Insert(k, v)
		if inserted == dup || existing != ref[k] {
			t.Fatalf("Insert(%#x) = %d,%v; want %d,%v", k, existing, inserted, ref[k], !dup)
		}
	}
	for _, shards := range compactShardCounts {
		ft := compacted(t, tab, shards)
		if ft.Len() != len(ref) {
			t.Fatalf("%d shards: Len = %d, want %d", shards, ft.Len(), len(ref))
		}
		for k, v := range ref {
			got, ok := ft.Lookup(k)
			if !ok || got != v {
				t.Fatalf("%d shards: Lookup(%#x) = %d,%v; want %d", shards, k, got, ok, v)
			}
		}
	}
	for _, shards := range []int{0, -1, 3, 12, 1 << 17} {
		if _, err := Compact(tab, shards); err == nil {
			t.Errorf("Compact accepted %d shards", shards)
		}
	}
}

// TestShardedGrowth starts tiny and inserts far past the initial
// capacity; growth must preserve every entry through Compact.
func TestShardedGrowth(t *testing.T) {
	tab := New(1)
	keys := shardedRandKeys(50000, 5)
	for i, k := range keys {
		tab.Insert(k, uint16(i))
	}
	for _, shards := range compactShardCounts {
		ft := compacted(t, tab, shards)
		for _, k := range keys {
			if !ft.Contains(k) {
				t.Fatalf("%d shards: key %#x lost after growth", shards, k)
			}
		}
		if lf := ft.LoadFactor(); lf <= 0 || lf > maxLoadFactor {
			t.Fatalf("%d shards: load factor %f out of range", shards, lf)
		}
	}
}

// TestShardedMatchesFlat: a table and its compaction over any shard
// count must agree on every membership and value.
func TestShardedMatchesFlat(t *testing.T) {
	flat := New(64)
	keys := shardedRandKeys(10000, 6)
	for i, k := range keys {
		flat.Insert(k, uint16(i&0x7FFF))
	}
	for _, shards := range compactShardCounts {
		ft := compacted(t, flat, shards)
		if ft.Len() != flat.Len() {
			t.Fatalf("%d shards: Len %d vs flat %d", shards, ft.Len(), flat.Len())
		}
		flat.ForEach(func(k uint64, v uint16) bool {
			got, ok := ft.Lookup(k)
			if !ok || got != v {
				t.Fatalf("%d shards: compacted table disagrees with flat on %#x", shards, k)
			}
			return true
		})
	}
}
