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
// by (Hash64Shift(key), seq), keep the first candidate of each key run.
func refSortDedup(cs []cand) []cand {
	out := append([]cand(nil), cs...)
	sort.Slice(out, func(i, j int) bool {
		hi, hj := hashtab.Hash64Shift(out[i].key), hashtab.Hash64Shift(out[j].key)
		if hi != hj {
			return hi < hj
		}
		return out[i].seq() < out[j].seq()
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

// candsOver draws n candidates with ascending seqs and random values
// from keys (so keys repeat when len(keys) < n).
func candsOver(rng *rand.Rand, n int, keys []uint64) []cand {
	cs := make([]cand, n)
	seq := uint64(rng.Intn(1000))
	for i := range cs {
		k := keys[rng.Intn(len(keys))]
		seq += 1 + uint64(rng.Intn(3))
		cs[i] = newCand(k, uint16(rng.Intn(1<<16)), seq)
	}
	return cs
}

// hashedCands draws n candidates from a pool of distinct permutation
// keys, the keys the expansion sink sees.
func hashedCands(rng *rand.Rand, n, pool int) []cand {
	keys := make([]uint64, pool)
	g := randperm.New(rng.Uint32())
	for i := range keys {
		keys[i] = uint64(g.Next())
	}
	return candsOver(rng, n, keys)
}

// oneBucketKeys draws n keys whose hashes share their top 11 bits: one
// shard at up to 2048 shards, and one bucket of the sort's first pass.
func oneBucketKeys(rng *rand.Rand, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		if k := rng.Uint64(); k != 0 && hashtab.Hash64Shift(k)>>53 == 0x5a5 {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestRadixSortCandsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	oneBucket := oneBucketKeys(rng, 6000)
	cases := []struct {
		name string
		cs   []cand
	}{
		{"empty", nil},
		{"single", []cand{newCand(42, 9, 3)}},
		{"two distinct", []cand{newCand(1<<60, 1, 4), newCand(9, 2, 5)}},
		{"two equal", []cand{newCand(9, 1, 4), newCand(9, 2, 5)}},
		{"duplicate keys across shards", []cand{
			newCand(9, 1, 1), newCand(7, 2, 2), newCand(9, 3, 3), newCand(7, 4, 4),
			newCand(9, 5, 5), newCand(1<<60, 6, 6), newCand(7, 7, 7), newCand(9, 8, 8),
		}},
		{"every key in one shard", candsOver(rng, 6000, oneBucket)},
		{"every key in one shard, duplicates", candsOver(rng, 9000, oneBucket[:700])},
		{"all equal keys", []cand{newCand(5, 1, 10), newCand(5, 2, 11), newCand(5, 3, 20)}},
		{"all equal keys, in cache", candsOver(rng, 3000, []uint64{5})},
		{"all equal keys, out of cache", candsOver(rng, 50000, []uint64{0xFEDCBA9876543210})},
		{"8 shards", hashedCands(rng, 5000, 1000)},
		{"65536 shards", hashedCands(rng, 5000, 4000)},
		{"in cache", hashedCands(rng, 3000, 500)},
		{"out of cache", hashedCands(rng, 100000, 60000)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkRadixAgainstReference(t, tc.cs, 64)
		})
	}
}

// TestRadixSortCandsRandomized: random small slabs; each must also come
// out in shard order for a random shard count, which is what lets a run
// file's records be cut into per-shard segments.
func TestRadixSortCandsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(2000)
		pool := 1 + rng.Intn(n+1)
		shift := uint(48 + rng.Intn(17)) // 1 to 65536 shards
		cs := hashedCands(rng, n, pool)
		t.Run(fmt.Sprintf("n=%d/pool=%d/shards=%d", n, pool, 1<<(64-shift)), func(t *testing.T) {
			checkRadixAgainstReference(t, cs, shift)
		})
	}
}

// TestRadixSortCandsLargeRandomized: random slabs large enough for the
// out-of-cache first pass.
func TestRadixSortCandsLargeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 12; trial++ {
		n := 4096 + rng.Intn(60000)
		pool := 1 + rng.Intn(n+1)
		cs := hashedCands(rng, n, pool)
		t.Run(fmt.Sprintf("n=%d/pool=%d", n, pool), func(t *testing.T) {
			checkRadixAgainstReference(t, cs, 56)
		})
	}
}

func checkRadixAgainstReference(t *testing.T, cs []cand, shardShift uint) {
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
		if i > 0 && hashtab.Hash64Shift(got[i].key)>>shardShift < hashtab.Hash64Shift(got[i-1].key)>>shardShift {
			t.Fatalf("candidate %d: shard order broken at shift %d", i, shardShift)
		}
	}
}

// TestRadixSortCandsRejectsSeqDisorder: the stable sort is only exact
// when seqs ascend, so a slab that breaks the invariant must fail with
// the typed error rather than seal a run with the wrong winners — in a
// small slab and in one large enough for the out-of-cache pass.
func TestRadixSortCandsRejectsSeqDisorder(t *testing.T) {
	long := make([]uint64, 5000)
	for i := range long {
		long[i] = uint64(i + 1)
	}
	long[4321] = long[4320]
	for _, seqs := range [][]uint64{{2, 1}, {1, 1}, {1, 5, 9, 9, 12}, {1, 2, 3, 0}, long} {
		cs := make([]cand, len(seqs))
		for i, s := range seqs {
			cs[i] = newCand(uint64(10+i), 0, s)
		}
		if _, _, err := radixSortCands(cs, make([]cand, len(cs))); !errors.Is(err, ErrCandidateOrder) {
			t.Errorf("%d seqs: got %v, want ErrCandidateOrder", len(seqs), err)
		}
	}
}

func TestRadixSortSeqPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 100, 10000} {
		ps := make([]cand, n)
		for i, s := range rng.Perm(n) {
			ps[i] = newCand(rng.Uint64(), uint16(rng.Uint32()), uint64(s)*977)
		}
		want := append([]cand(nil), ps...)
		sort.Slice(want, func(i, j int) bool { return want[i].seq() < want[j].seq() })
		got, _ := radixSortSeqPairs(ps, make([]cand, n))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d pair %d: %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkSortCands times the spill sort of one slab-sized buffer of
// 1M permutation-key candidates, half of them duplicates, the shape of
// a k=6 build's slabs.
func BenchmarkSortCands(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 20
	src := hashedCands(rng, n, n/2)
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
