package hashtab

import (
	"math/rand"
	"sort"
	"testing"
)

// testEntries returns n distinct nonzero keys with values, deterministic
// per seed.
func testEntries(n int, seed int64) ([]uint64, []uint16) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	vals := make([]uint16, 0, n)
	for len(keys) < n {
		k := rng.Uint64() | 1
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
		vals = append(vals, uint16(rng.Intn(1<<16)))
	}
	return keys, vals
}

// TestCompactCanonicalLayout: the frozen arrays must be a pure function
// of the stored entry set — two tables holding the same entries but
// built by different insertion histories must compact to identical
// bytes. This is the invariant the out-of-core builder relies on to
// emit stores byte-identical to the in-memory path.
func TestCompactCanonicalLayout(t *testing.T) {
	keys, vals := testEntries(5000, 1)
	a := New(len(keys))
	for i, k := range keys {
		a.Insert(k, vals[i])
	}
	b := New(4) // different capacity hint: forces different grow history
	perm := rand.New(rand.NewSource(2)).Perm(len(keys))
	for _, i := range perm {
		b.Insert(keys[i], vals[i])
	}
	fa, err := Compact(a, 16)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Compact(b, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(fa.RawKeys()) != len(fb.RawKeys()) {
		t.Fatalf("slot counts differ: %d vs %d", len(fa.RawKeys()), len(fb.RawKeys()))
	}
	for i := range fa.RawKeys() {
		if fa.RawKeys()[i] != fb.RawKeys()[i] || fa.RawVals()[i] != fb.RawVals()[i] {
			t.Fatalf("slot %d differs: (%#x,%d) vs (%#x,%d)",
				i, fa.RawKeys()[i], fa.RawVals()[i], fb.RawKeys()[i], fb.RawVals()[i])
		}
	}
	// And every key still resolves.
	for i, k := range keys {
		if v, ok := fa.Lookup(k); !ok || v != vals[i] {
			t.Fatalf("key %#x: got (%d,%v), want (%d,true)", k, v, ok, vals[i])
		}
	}
}

// TestFrozenSlotsPerShard: the exported sizing helper must agree with
// what Compact actually chooses.
func TestFrozenSlotsPerShard(t *testing.T) {
	for _, n := range []int{0, 1, 13, 14, 100, 871, 872} {
		keys, vals := testEntries(n, int64(n))
		st := New(n)
		for i, k := range keys {
			st.Insert(k, vals[i])
		}
		ft, err := Compact(st, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ft.SlotsPerShard(), FrozenSlotsPerShard(n); got != want {
			t.Fatalf("n=%d: Compact chose %d slots/shard, helper says %d", n, got, want)
		}
	}
}

// refPlaceShard is the comparator reference for PlaceShardCanonical:
// sort the entries by (home slot, key), then linear-probe them in.
func refPlaceShard(ks []uint64, vs []uint16, slots int) ([]uint64, []uint16) {
	mask := uint64(slots - 1)
	idx := make([]int, len(ks))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ha, hb := Hash64Shift(ks[idx[a]])&mask, Hash64Shift(ks[idx[b]])&mask
		if ha != hb {
			return ha < hb
		}
		return ks[idx[a]] < ks[idx[b]]
	})
	slotKeys := make([]uint64, slots)
	slotVals := make([]uint16, slots)
	for _, i := range idx {
		j := Hash64Shift(ks[i]) & mask
		for slotKeys[j] != 0 {
			j = (j + 1) & mask
		}
		slotKeys[j], slotVals[j] = ks[i], vs[i]
	}
	return slotKeys, slotVals
}

// keysWithHomes returns, in shuffled order, count[h] distinct keys
// whose home slot is h under a slots-wide mask.
func keysWithHomes(rng *rand.Rand, slots int, count map[uint64]int) ([]uint64, []uint16) {
	mask := uint64(slots - 1)
	var ks []uint64
	for k := uint64(1); len(count) > 0; k++ {
		h := Hash64Shift(k) & mask
		if count[h] > 0 {
			ks = append(ks, k)
			if count[h]--; count[h] == 0 {
				delete(count, h)
			}
		}
	}
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	vs := make([]uint16, len(ks))
	for i := range vs {
		vs[i] = uint16(rng.Intn(1 << 16))
	}
	return ks, vs
}

func checkPlaceAgainstReference(t *testing.T, ks []uint64, vs []uint16, slots int, sc *PlaceScratch) {
	t.Helper()
	wantK, wantV := refPlaceShard(ks, vs, slots)
	inK, inV := append([]uint64(nil), ks...), append([]uint16(nil), vs...)
	gotK, gotV := make([]uint64, slots), make([]uint16, slots)
	PlaceShardCanonical(ks, vs, gotK, gotV, sc)
	for j := range wantK {
		if gotK[j] != wantK[j] || gotV[j] != wantV[j] {
			t.Fatalf("slot %d: (%#x,%d), reference (%#x,%d)", j, gotK[j], gotV[j], wantK[j], wantV[j])
		}
	}
	for i := range ks {
		if ks[i] != inK[i] || vs[i] != inV[i] {
			t.Fatalf("entry %d modified in place", i)
		}
	}
}

// TestPlaceShardCanonicalMatchesReference: the counting-sort placement
// must lay out exactly what the (home, key) comparator sort does —
// the persisted bytes depend on it.
func TestPlaceShardCanonicalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := []struct {
		name  string
		slots int
		homes map[uint64]int
	}{
		{"empty", 16, map[uint64]int{}},
		{"single", 16, map[uint64]int{7: 1}},
		{"single at the mask", 16, map[uint64]int{15: 1}},
		{"clustered homes wrapping at the mask", 16, map[uint64]int{14: 3, 15: 5, 0: 2, 1: 1}},
		{"one full home", 32, map[uint64]int{31: 20}},
		{"every other home doubled", 64, map[uint64]int{0: 2, 2: 2, 4: 2, 60: 2, 62: 2, 63: 3}},
	}
	var sc PlaceScratch // shared across cases: reuse must not leak state
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ks, vs := keysWithHomes(rng, tc.slots, tc.homes)
			checkPlaceAgainstReference(t, ks, vs, tc.slots, &sc)
		})
	}
}

// TestPlaceShardCanonicalRandomized: random shards match the reference,
// and the entries' order does not reach the slots: a shuffled copy of
// each shard lays out the same bytes.
func TestPlaceShardCanonicalRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var sc PlaceScratch
	for trial := 0; trial < 200; trial++ {
		slots := minShardSlots << rng.Intn(8)
		n := rng.Intn(int(maxLoadFactor*float64(slots)) + 1)
		ks, vs := testEntries(n, int64(trial))
		checkPlaceAgainstReference(t, ks, vs, slots, &sc)
		sk, sv := append([]uint64(nil), ks...), append([]uint16(nil), vs...)
		rng.Shuffle(n, func(i, j int) { sk[i], sk[j], sv[i], sv[j] = sk[j], sk[i], sv[j], sv[i] })
		checkPlaceAgainstReference(t, sk, sv, slots, &sc)
	}
}

// BenchmarkPlaceShardCanonical places one shard at the frozen layout's
// load factor, the per-shard step of Compact and of extbuild emission.
func BenchmarkPlaceShardCanonical(b *testing.B) {
	const n = 200000
	ks, vs := testEntries(n, 1)
	slots := FrozenSlotsPerShard(n)
	slotKeys := make([]uint64, slots)
	slotVals := make([]uint16, slots)
	var sc PlaceScratch
	for b.Loop() {
		clear(slotKeys)
		clear(slotVals)
		PlaceShardCanonical(ks, vs, slotKeys, slotVals, &sc)
	}
}
