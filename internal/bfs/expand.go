package bfs

import (
	"sort"

	"repro/internal/canon"
	"repro/internal/perm"
)

// CandidateSink consumes the candidate stream of a BFS level expansion,
// decoupling the expansion arithmetic (compose, canonicalize, pack) from
// whatever stores the survivors. Search, the sequential reference,
// feeds a sink that inserts into an in-memory table; extbuild feeds
// sinks that spill sorted runs to disk. The same expansion code drives
// both, which is what makes the two builds provably produce the same
// entries.
type CandidateSink interface {
	// Candidate offers one expansion product: the (canonical) key, its
	// packed value, and the candidate's deterministic sequence number —
	// the rank at which Search's sequential expansion of this level
	// produces it. Duplicate keys arrive many times, with different
	// values and sequence numbers; the sink resolves them. Keeping the
	// lowest sequence number's value reproduces Search exactly (its
	// first insertion wins), so sinks that want byte-reproducible
	// tables dedup by minimum seq.
	Candidate(key uint64, val uint16, seq uint64)
}

// CostGroups returns the alphabet's element indices grouped by element
// cost, with the distinct costs sorted ascending. This is the expansion
// schedule: cost level c draws sources from level c−ec for each element
// cost ec, in ascending ec order. Search and the out-of-core builder
// must iterate the identical schedule or their sequence numbers — and
// therefore their tables' level orders — would diverge.
func CostGroups(a *Alphabet) (costs []int, groups map[int][]int) {
	groups = map[int][]int{}
	for i := 0; i < a.Len(); i++ {
		c := a.Element(i).Cost
		groups[c] = append(groups[c], i)
	}
	costs = make([]int, 0, len(groups))
	for c := range groups {
		costs = append(costs, c)
	}
	sort.Ints(costs)
	return costs, groups
}

// SeqStride returns the sequence-number span one source representative
// reserves within a group expansion. Reduced expansion numbers the
// forward variants 0…groupLen−1 and the inverse variants
// groupLen…2·groupLen−1; a self-inverse representative simply never
// emits the second half, leaving its numbers unused — the stride stays
// fixed so any worker can compute any representative's base without
// knowing which earlier ones were self-inverse.
func SeqStride(reduced bool, groupLen int) uint64 {
	if reduced {
		return 2 * uint64(groupLen)
	}
	return uint64(groupLen)
}

// ExpandRep streams the candidates of one source representative into the
// sink: r through every element of the group, then (reduced only, when
// distinct) r⁻¹ through every element, with sequence numbers
// seqBase+offset matching the sequential expansion order. cost is the
// level under construction, packed into every value.
func ExpandRep(a *Alphabet, r perm.Perm, elemIdxs []int, cost int, reduced bool, seqBase uint64, sink CandidateSink) {
	if !reduced {
		for j, ei := range elemIdxs {
			h := r.Then(a.Element(ei).P)
			sink.Candidate(uint64(h), PackValue(cost, ei, false), seqBase+uint64(j))
		}
		return
	}
	expandReducedHalf(a, r, elemIdxs, cost, seqBase, sink)
	if ri := r.Inverse(); ri != r {
		expandReducedHalf(a, ri, elemIdxs, cost, seqBase+uint64(len(elemIdxs)), sink)
	}
}

// expandReducedHalf appends each element of the group to base and
// canonicalizes — paper Algorithm 2's inner loop. The appended element
// is the last element of a minimal circuit for the product h.
// Conjugating h's circuit by σ yields rep's circuit when rep =
// conj(h, σ); when rep = conj(h⁻¹, σ) the circuit also reverses, making
// the conjugated element rep's first element.
func expandReducedHalf(a *Alphabet, base perm.Perm, elemIdxs []int, cost int, seqBase uint64, sink CandidateSink) {
	for j, ei := range elemIdxs {
		h := base.Then(a.Element(ei).P)
		rep, sigma, inverted := canon.Canonical(h)
		ce := a.ConjugateElement(ei, sigma)
		sink.Candidate(uint64(rep), PackValue(cost, ce, inverted), seqBase+uint64(j))
	}
}
