package extbuild

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/hashtab"
	"repro/internal/randperm"
)

// refSortDedup is the comparator reference for the spill sort: order
// by (shard, key, seq), keep the first candidate of each key run.
func refSortDedup(cs []cand) []cand {
	out := append([]cand(nil), cs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		if a.key != b.key {
			return a.key < b.key
		}
		return a.seq < b.seq
	})
	return dedupCands(out)
}

// radixSortDedup runs the production kernels on a copy of cs.
func radixSortDedup(cs []cand) ([]cand, error) {
	in := append([]cand(nil), cs...)
	sorted, _, err := radixSortCands(in, make([]cand, len(in)))
	if err != nil {
		return nil, err
	}
	return dedupCands(sorted), nil
}

// hashedCands draws n candidates with ascending seqs from a pool of
// distinct keys (so keys repeat when pool < n), each routed to its hash
// shard as the expansion sink does.
func hashedCands(rng *rand.Rand, n, pool int, shardShift uint) []cand {
	keys := make([]uint64, pool)
	g := randperm.New(rng.Uint32())
	for i := range keys {
		keys[i] = uint64(g.Next())
	}
	cs := make([]cand, n)
	seq := uint64(rng.Intn(1000))
	for i := range cs {
		k := keys[rng.Intn(pool)]
		seq += 1 + uint64(rng.Intn(3))
		cs[i] = cand{
			key:   k,
			seq:   seq,
			shard: uint32(hashtab.Hash64Shift(k) >> shardShift),
			val:   uint16(rng.Intn(1 << 16)),
		}
	}
	return cs
}

func TestRadixSortCandsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		cs   []cand
	}{
		{"empty", nil},
		{"single", []cand{{key: 42, seq: 3, shard: 5, val: 9}}},
		{"duplicate keys across shards", []cand{
			{key: 9, seq: 1, shard: 2, val: 1},
			{key: 7, seq: 2, shard: 1, val: 2},
			{key: 9, seq: 3, shard: 0, val: 3},
			{key: 7, seq: 4, shard: 1, val: 4},
			{key: 9, seq: 5, shard: 2, val: 5},
			{key: 1 << 60, seq: 6, shard: 1 << 15, val: 6},
			{key: 7, seq: 7, shard: 0, val: 7},
			{key: 9, seq: 8, shard: 2, val: 8},
		}},
		{"every key in one shard", hashedCands(rng, 3000, 500, 64)},
		{"all equal keys", []cand{
			{key: 5, seq: 10, shard: 3, val: 1},
			{key: 5, seq: 11, shard: 3, val: 2},
			{key: 5, seq: 20, shard: 3, val: 3},
		}},
		{"8 shards", hashedCands(rng, 5000, 1000, 61)},
		{"65536 shards", hashedCands(rng, 5000, 4000, 48)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkRadixAgainstReference(t, tc.cs)
		})
	}
}

func TestRadixSortCandsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(2000)
		pool := 1 + rng.Intn(n+1)
		shift := uint(48 + rng.Intn(17)) // 1 to 65536 shards
		cs := hashedCands(rng, n, pool, shift)
		t.Run(fmt.Sprintf("n=%d/pool=%d/shards=%d", n, pool, 1<<(64-shift)), func(t *testing.T) {
			checkRadixAgainstReference(t, cs)
		})
	}
}

func checkRadixAgainstReference(t *testing.T, cs []cand) {
	t.Helper()
	want := refSortDedup(cs)
	got, err := radixSortDedup(cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d candidates after dedup, reference keeps %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate %d: %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// TestRadixSortCandsRejectsSeqDisorder: the stable sort is only exact
// when seqs ascend, so a slab that breaks the invariant must fail with
// the typed error rather than seal a run with the wrong winners.
func TestRadixSortCandsRejectsSeqDisorder(t *testing.T) {
	for _, seqs := range [][]uint64{{2, 1}, {1, 1}, {1, 5, 9, 9, 12}, {1, 2, 3, 0}} {
		cs := make([]cand, len(seqs))
		for i, s := range seqs {
			cs[i] = cand{key: uint64(10 - i), seq: s}
		}
		if _, _, err := radixSortCands(cs, make([]cand, len(cs))); !errors.Is(err, ErrCandidateOrder) {
			t.Errorf("seqs %v: got %v, want ErrCandidateOrder", seqs, err)
		}
	}
}

func TestRadixSortSeqPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 100, 10000} {
		ps := make([]seqPair, n)
		for i, s := range rng.Perm(n) {
			ps[i] = seqPair{seq: uint64(s) * 977, key: rng.Uint64()}
		}
		want := append([]seqPair(nil), ps...)
		sort.Slice(want, func(i, j int) bool { return want[i].seq < want[j].seq })
		got, _ := radixSortSeqPairs(ps, make([]seqPair, n))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d pair %d: %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkSortCands times the spill sort of one slab-sized buffer of
// permutation keys over 8 shards, the shape of a k=6 build.
func BenchmarkSortCands(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 20
	src := hashedCands(rng, n, n/2, 61)
	buf := make([]cand, n)
	tmp := make([]cand, n)
	b.SetBytes(n * candMemBytes)
	for b.Loop() {
		copy(buf, src)
		if _, _, err := radixSortCands(buf, tmp); err != nil {
			b.Fatal(err)
		}
	}
}
