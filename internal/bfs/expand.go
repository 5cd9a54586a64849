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
//
// This is the build's inner loop, so the element products avoid the
// general composition and inversion. Each product h = base·P is the
// element's gate value ops on base, and the inverse the canonicalization
// needs, h⁻¹ = P·base⁻¹, is its gate position ops on base⁻¹; r⁻¹ is
// computed once per representative and serves both halves. Every
// alphabet takes this one path. A gate-alphabet candidate costs about
// 111 ns, most of it canon.CanonicalPair, which walks only the
// relabelings that can reach the class minimum (179 ns when it walked
// all 48 members; BenchmarkCanonicalizeExpansion, medians of 6
// alternating runs on a 2-vCPU x86-64 Xeon host).
func ExpandRep(a *Alphabet, r perm.Perm, elemIdxs []int, cost int, reduced bool, seqBase uint64, sink CandidateSink) {
	if !reduced {
		for j, ei := range elemIdxs {
			sink.Candidate(uint64(a.then(r, ei)), PackValue(cost, ei, false), seqBase+uint64(j))
		}
		return
	}
	ri := r.Inverse()
	expandReducedHalf(a, r, ri, elemIdxs, cost, seqBase, sink)
	if ri != r {
		expandReducedHalf(a, ri, r, elemIdxs, cost, seqBase+uint64(len(elemIdxs)), sink)
	}
}

// expandReducedHalf appends each element of the group to base (whose
// inverse is baseInv) and canonicalizes — paper Algorithm 2's inner
// loop. The appended element is the last element of a minimal circuit
// for the product h. Conjugating h's circuit by σ yields rep's circuit
// when rep = conj(h, σ); when rep = conj(h⁻¹, σ) the circuit also
// reverses, making the conjugated element rep's first element.
func expandReducedHalf(a *Alphabet, base, baseInv perm.Perm, elemIdxs []int, cost int, seqBase uint64, sink CandidateSink) {
	for j, ei := range elemIdxs {
		rep, sigma, inverted := canon.CanonicalPair(a.then(base, ei), a.inverseThen(baseInv, ei))
		ce := a.ConjugateElement(ei, sigma)
		sink.Candidate(uint64(rep), PackValue(cost, ce, inverted), seqBase+uint64(j))
	}
}
