package extbuild

import (
	"errors"
	"fmt"
)

// ErrCandidateOrder reports a slab whose candidates did not reach the
// spill sort in strictly ascending sequence order. That order is what
// lets a stable (shard, key) radix sort stand in for a (shard, key, seq)
// sort, so a build that sees it stops rather than seal a run whose
// per-key winner might not be the minimum-sequence candidate.
var ErrCandidateOrder = errors.New("extbuild: slab candidates out of sequence order")

// The sort kernels below are LSD radix sorts over 11-bit digits: one
// read pass builds every digit's histogram, digits on which all records
// agree are skipped, and each remaining digit is one stable scatter
// pass between the input and an equally long scratch buffer. 11 bits
// keeps the histograms in cache and takes a 64-bit key in 6 passes
// where bytes take 8; the scatter passes are memory-bound, so the pass
// count is the cost.
const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1
)

// keyDigits covers a 64-bit sort key, least significant digit first.
const keyDigits = (64 + radixBits - 1) / radixBits

// candDigits covers a candidate's (shard, key) sort key: the key's
// digits, then the shard's (shard < 1<<16).
const candDigits = keyDigits + (16+radixBits-1)/radixBits

// radixSortCands sorts a slab's candidates by (shard, key), using tmp
// (len ≥ len(cs)) as scratch. It returns the sorted slice, which is cs
// or a prefix of tmp, and the other buffer for reuse. cs must be in
// strictly ascending seq order — the order in which expansion emits a
// slab — so that the stable sort leaves equal keys in ascending seq
// order and the result is (shard, key, seq)-sorted; the check rides in
// the histogram pass and fails with ErrCandidateOrder.
func radixSortCands(cs, tmp []cand) (sorted, spare []cand, err error) {
	var hist [candDigits][radixBuckets]int
	for i := range cs {
		c := &cs[i]
		if i > 0 && c.seq <= cs[i-1].seq {
			return cs, tmp, fmt.Errorf("%w: candidate %d has seq %d after %d", ErrCandidateOrder, i, c.seq, cs[i-1].seq)
		}
		for d := 0; d < keyDigits; d++ {
			hist[d][c.key>>(radixBits*d)&radixMask]++
		}
		for d := keyDigits; d < candDigits; d++ {
			hist[d][c.shard>>(radixBits*(d-keyDigits))&radixMask]++
		}
	}
	src, dst := cs, tmp[:len(cs)]
	for d := range hist {
		off := &hist[d]
		if !radixOffsets(off, len(cs)) {
			continue
		}
		if d < keyDigits {
			sh := uint(radixBits * d)
			for i := range src {
				b := src[i].key >> sh & radixMask
				dst[off[b]] = src[i]
				off[b]++
			}
		} else {
			sh := uint(radixBits * (d - keyDigits))
			for i := range src {
				b := src[i].shard >> sh & radixMask
				dst[off[b]] = src[i]
				off[b]++
			}
		}
		src, dst = dst, src
	}
	return src, dst, nil
}

// radixSortSeqPairs sorts pairs by seq, using tmp (len ≥ len(ps)) as
// scratch, and returns the sorted slice (ps or a prefix of tmp) and the
// other buffer for reuse.
func radixSortSeqPairs(ps, tmp []seqPair) (sorted, spare []seqPair) {
	var hist [keyDigits][radixBuckets]int
	for i := range ps {
		s := ps[i].seq
		for d := 0; d < keyDigits; d++ {
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
			b := src[i].seq >> sh & radixMask
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
