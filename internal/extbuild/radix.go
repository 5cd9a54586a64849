package extbuild

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/hashtab"
)

// ErrCandidateOrder reports a slab whose candidates did not reach the
// spill sort in strictly ascending sequence order. That order is what
// lets a stable sort on the key's hash stand in for a (hash, seq) sort,
// so a build that sees it stops rather than seal a run whose per-key
// winner might not be the minimum-sequence candidate.
var ErrCandidateOrder = errors.New("extbuild: slab candidates out of sequence order")

// cand is one canonical candidate in flight, 16 bytes: the key, and the
// candidate's sequence number over its packed value.
type cand struct {
	key uint64
	// sv is seq<<16 | val. Sequence numbers are below 1<<seqBits
	// (planLevel refuses a level that needs more), so sv orders
	// candidates exactly as seq does.
	sv uint64
}

// seqBits is the width of a candidate's sequence number in cand.sv.
const seqBits = 48

func newCand(key uint64, val uint16, seq uint64) cand {
	return cand{key: key, sv: seq<<16 | uint64(val)}
}

func (c cand) seq() uint64 { return c.sv >> 16 }
func (c cand) val() uint16 { return uint16(c.sv) }

// candMemBytes is the in-memory footprint charged against the budget
// per buffered candidate.
const candMemBytes = 16

// The candidate sort is an MSD radix sort on Hash64Shift(key), which is
// a bijection: equal hashes are equal keys, and the hash's top bits are
// the key's shard. One pass out of cache splits the slab into buckets of
// about 1<<cacheBucketBits candidates (64 KiB), writing each candidate
// with its hash in place of its key, and each bucket is then finished
// while it sits in cache: a further MSD digit (more for any digit
// holding over insertionMax candidates), one insertion sweep that moves
// each candidate only within its digit, and hashtab.Unhash64Shift to
// restore the keys. Every pass is stable, so equal keys keep their input
// (seq) order. BenchmarkSortCands reads about 36 ns per candidate,
// against about 82 for the 24-byte LSD sort over (shard, key) it
// replaced (medians of 6 alternating runs, 2-vCPU x86-64 Xeon host).
//
// Digit widths follow the data: the out-of-cache pass takes as many
// bits as there are cache-sized buckets, the in-cache passes as many as
// leave two to four candidates per digit, at most maxDigitBits each.
// So a pass's fixed cost (its histogram) never exceeds its record
// count, a small slab pays for no buckets it does not fill, and each
// pass consumes at least one of the hash's 64 bits: the sort is linear
// in the slab for any input, duplicates and one-bucket slabs included.
const (
	cacheBucketBits = 12
	maxDigitBits    = 11
	insertionMax    = 32
)

// radixSortCands sorts a slab's candidates by (Hash64Shift(key), seq),
// using tmp (len ≥ len(cs)) as scratch. It returns the sorted slice,
// which is cs or a prefix of tmp, and the other buffer for reuse. cs
// must be in strictly ascending seq order — the order in which
// expansion emits a slab — so that the stable sort leaves equal keys in
// ascending seq order; the check rides in the first pass and fails with
// ErrCandidateOrder.
func radixSortCands(cs, tmp []cand) (sorted, spare []cand, err error) {
	tmp = tmp[:len(cs)]
	d := uint(min(bits.Len(uint(len(cs)>>cacheBucketBits)), maxDigitBits))
	shift := 64 - d
	var count [1<<maxDigitBits + 1]int
	for i := range cs {
		if i > 0 && cs[i].sv <= cs[i-1].sv {
			return cs, tmp, fmt.Errorf("%w: candidate %d has seq %d after %d", ErrCandidateOrder, i, cs[i].seq(), cs[i-1].seq())
		}
		if d > 0 {
			count[hashtab.Hash64Shift(cs[i].key)>>shift+1]++
		}
	}
	if d == 0 || !bucketStarts(count[:1<<d+1], len(cs)) {
		// One bucket: the slab is small enough for the cache, or its
		// hashes share their top d bits.
		for i := range cs {
			cs[i].key = hashtab.Hash64Shift(cs[i].key)
		}
		sortBucket(cs, tmp, shift)
		unhashKeys(cs)
		return cs, tmp, nil
	}
	starts := count[:1<<d]
	for i := range cs {
		h := hashtab.Hash64Shift(cs[i].key)
		b := h >> shift
		tmp[starts[b]] = cand{key: h, sv: cs[i].sv}
		starts[b]++
	}
	// starts[b] is now bucket b's end.
	lo := 0
	for _, hi := range starts {
		sortBucket(tmp[lo:hi], cs[lo:hi], shift)
		unhashKeys(tmp[lo:hi])
		lo = hi
	}
	return tmp, cs, nil
}

// bucketStarts turns counts[1:] (records per digit, over n records) into
// each digit's starting offset in counts[:len-1]. It reports false when
// one digit holds every record — a scatter that would not move anything.
func bucketStarts(counts []int, n int) bool {
	for _, c := range counts[1:] {
		if c == n {
			return false
		}
	}
	for b := 1; b < len(counts); b++ {
		counts[b] += counts[b-1]
	}
	return true
}

// sortBucket sorts a, whose keys hold hashes, in place by the bits
// below shift (every candidate of a agrees on the bits above), stably,
// using scratch (len(a)) for the scatter.
func sortBucket(a, scratch []cand, shift uint) {
	for len(a) > insertionMax && shift > 0 {
		d := uint(min(bits.Len(uint(len(a)>>2)), maxDigitBits, int(shift)))
		shift -= d
		mask := uint64(1)<<d - 1
		var count [1<<maxDigitBits + 1]int
		for i := range a {
			count[a[i].key>>shift&mask+1]++
		}
		if !bucketStarts(count[:1<<d+1], len(a)) {
			continue // every candidate has the same digit
		}
		starts := count[:1<<d]
		for i := range a {
			b := a[i].key >> shift & mask
			scratch[starts[b]] = a[i]
			starts[b]++
		}
		copy(a, scratch)
		// Digits with more than insertionMax candidates sort on; the
		// final insertion sweep finishes the others, each candidate
		// moving only within its digit.
		lo := 0
		for _, hi := range starts {
			if hi-lo > insertionMax {
				sortBucket(a[lo:hi], scratch[lo:hi], shift)
			}
			lo = hi
		}
		break
	}
	if shift > 0 {
		insertionSort(a)
	}
}

// insertionSort sorts candidates by key, stably, in time linear in
// len(a) when no candidate is more than insertionMax places from its
// own.
func insertionSort(a []cand) {
	for i := 1; i < len(a); i++ {
		c := a[i]
		j := i
		for ; j > 0 && a[j-1].key > c.key; j-- {
			a[j] = a[j-1]
		}
		a[j] = c
	}
}

// unhashKeys turns hashes back into keys.
func unhashKeys(a []cand) {
	for i := range a {
		a[i].key = hashtab.Unhash64Shift(a[i].key)
	}
}

// LSD radix sorts over 11-bit digits for the sequence sorter's pairs:
// one read pass builds every digit's histogram, digits on which all
// records agree are skipped, and each remaining digit is one stable
// scatter pass between the input and an equally long scratch buffer.
const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1
)

// seqDigits covers a sequence number, least significant digit first.
const seqDigits = (seqBits + radixBits - 1) / radixBits

// radixSortSeqPairs sorts the sequence sorter's pairs — survivors as
// candidates — by seq, using tmp (len ≥ len(ps)) as scratch, and returns
// the sorted slice (ps or a prefix of tmp) and the other buffer for
// reuse.
func radixSortSeqPairs(ps, tmp []cand) (sorted, spare []cand) {
	var hist [seqDigits][radixBuckets]int
	for i := range ps {
		s := ps[i].seq()
		for d := 0; d < seqDigits; d++ {
			hist[d][s>>(radixBits*d)&radixMask]++
		}
	}
	src, dst := ps, tmp[:len(ps)]
	for d := range hist {
		off := &hist[d]
		if !radixOffsets(off, len(ps)) {
			continue
		}
		sh := uint(radixBits * d)
		for i := range src {
			b := src[i].seq() >> sh & radixMask
			dst[off[b]] = src[i]
			off[b]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// radixOffsets turns one digit's histogram over n records into each
// bucket's starting offset. It reports false, leaving the histogram
// untouched, when every record has the same digit — a pass that would
// not move anything.
func radixOffsets(h *[radixBuckets]int, n int) bool {
	sum := 0
	for _, c := range h {
		if c == n {
			return false
		}
	}
	for b, c := range h {
		h[b] = sum
		sum += c
	}
	return true
}
