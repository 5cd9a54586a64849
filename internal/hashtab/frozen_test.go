package hashtab

import (
	"math/rand"
	"testing"
)

// fillSharded builds a sharded table with n random distinct keys.
func fillSharded(t testing.TB, n int, seed int64) (*ShardedTable, map[uint64]uint16) {
	rng := rand.New(rand.NewSource(seed))
	st := NewShardedWithShards(n, 8)
	want := make(map[uint64]uint16, n)
	for len(want) < n {
		k := rng.Uint64()
		if k == 0 {
			continue
		}
		if _, dup := want[k]; dup {
			continue
		}
		v := uint16(rng.Intn(1 << 16))
		want[k] = v
		st.Insert(k, v)
	}
	return st, want
}

func TestCompactMatchesSharded(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 5000} {
		st, want := fillSharded(t, n, int64(n)+1)
		ft, err := Compact(st)
		if err != nil {
			t.Fatal(err)
		}
		if ft.Len() != n {
			t.Fatalf("n=%d: frozen len %d", n, ft.Len())
		}
		if ft.ShardCount() != 8 {
			t.Fatalf("n=%d: shard count %d, want the sharded table's 8", n, ft.ShardCount())
		}
		if got := ft.ShardCount() * ft.SlotsPerShard(); got != ft.Slots() {
			t.Fatalf("n=%d: %d×%d shards ≠ %d slots", n, ft.ShardCount(), ft.SlotsPerShard(), ft.Slots())
		}
		for k, v := range want {
			got, ok := ft.Lookup(k)
			if !ok || got != v {
				t.Fatalf("n=%d: Lookup(%#x) = %d,%v want %d", n, k, got, ok, v)
			}
			slot, ok := ft.SlotOf(k)
			if !ok || ft.KeyAt(slot) != k || ft.ValAt(slot) != v {
				t.Fatalf("n=%d: SlotOf(%#x) inconsistent", n, k)
			}
		}
		// Misses must agree with the source, and key 0 is never present.
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 1000; i++ {
			k := rng.Uint64()
			_, wantOK := want[k]
			if _, ok := ft.Lookup(k); ok != wantOK {
				t.Fatalf("n=%d: Lookup(%#x) presence %v, want %v", n, k, ok, wantOK)
			}
		}
		if ft.Contains(0) {
			t.Fatal("key 0 reported present")
		}
		// Iteration covers exactly the stored set.
		seen := 0
		ft.ForEach(func(k uint64, v uint16) bool {
			if want[k] != v {
				t.Fatalf("ForEach yielded %#x→%d, want %d", k, v, want[k])
			}
			seen++
			return true
		})
		if seen != n {
			t.Fatalf("ForEach yielded %d entries, want %d", seen, n)
		}
		if ft.LoadFactor() > maxLoadFactor {
			t.Fatalf("n=%d: compact load factor %.3f above build bound", n, ft.LoadFactor())
		}
	}
}

func TestFrozenStats(t *testing.T) {
	st, _ := fillSharded(t, 3000, 3)
	ft, err := Compact(st)
	if err != nil {
		t.Fatal(err)
	}
	s := ft.ComputeStats()
	if s.Entries != 3000 || s.Slots != ft.Slots() {
		t.Fatalf("stats %+v", s)
	}
	if s.AvgChain < 1 || s.MaxChain < 1 {
		t.Fatalf("degenerate probe chains: %+v", s)
	}
	if s.MemoryBytes != int64(ft.Slots())*10 {
		t.Fatalf("memory bytes %d", s.MemoryBytes)
	}
}

func TestNewFrozenRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name   string
		keys   int
		vals   int
		shards int
		count  int
	}{
		{"empty", 0, 0, 1, 0},
		{"mismatched", 32, 16, 1, 0},
		{"shardsNonPow2", 48, 48, 3, 0},
		{"shardsHuge", 1 << 20, 1 << 20, 1 << 17, 0},
		{"perShardTiny", 8, 8, 1, 0},
		{"perShardNonPow2", 96, 96, 2, 0},
		{"countOverSlots", 32, 32, 1, 33},
		{"countNegative", 32, 32, 1, -1},
	}
	for _, tc := range cases {
		_, err := NewFrozen(make([]uint64, tc.keys), make([]uint16, tc.vals), tc.shards, tc.count)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestFrozenProbeTerminatesOnFullShard: a corrupt file can present a
// shard with no empty slot; the bounded probe must report a miss rather
// than cycle forever.
func TestFrozenProbeTerminatesOnFullShard(t *testing.T) {
	keys := make([]uint64, 16)
	vals := make([]uint16, 16)
	for i := range keys {
		keys[i] = uint64(i + 1) // all slots occupied, none matching
	}
	ft, err := NewFrozen(keys, vals, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ft.Lookup(0xDEADBEEF); ok {
		t.Fatal("found a key that is not there")
	}
}

func TestFrozenKeyAtMasksOutOfRange(t *testing.T) {
	st, _ := fillSharded(t, 10, 4)
	ft, err := Compact(st)
	if err != nil {
		t.Fatal(err)
	}
	// Any slot id, however corrupt, must stay in bounds.
	_ = ft.KeyAt(^uint32(0))
	_ = ft.ValAt(^uint32(0))
}

func TestFrozenCloser(t *testing.T) {
	st, _ := fillSharded(t, 5, 5)
	ft, err := Compact(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.Close(); err != nil {
		t.Fatalf("close without closer: %v", err)
	}
	calls := 0
	ft.SetCloser(func() error { calls++; return nil })
	if err := ft.Close(); err != nil || calls != 1 {
		t.Fatalf("close: %v, calls %d", err, calls)
	}
	if err := ft.Close(); err != nil || calls != 1 {
		t.Fatalf("second close: %v, calls %d", err, calls)
	}
}

// BenchmarkFrozenLookup measures the branch-lean frozen probe, the
// innermost operation of the serving path.
func BenchmarkFrozenLookup(b *testing.B) {
	st, want := fillSharded(b, 1<<16, 6)
	ft, err := Compact(st)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]uint64, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	b.ReportAllocs()
	acc := uint16(0)
	for i := 0; i < b.N; i++ {
		v, _ := ft.Lookup(keys[i%len(keys)])
		acc ^= v
	}
	_ = acc
}
