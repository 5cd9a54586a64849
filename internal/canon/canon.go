// Package canon implements the symmetry reduction of paper §3.2: the
// equivalence of 4-bit reversible functions under simultaneous
// input/output wire relabeling (24 conjugations) and inversion, an
// almost-48× reduction of the breadth-first search frontier.
//
// The equivalence class of f is {conj(f,σ), conj(f⁻¹,σ) : σ ∈ S₄} where
// conj(f,σ) = gσ⁻¹ ∘ f ∘ gσ and gσ is the state permutation induced by
// the wire relabeling σ. The canonical representative is the minimum of
// the (up to) 48 class members under plain uint64 comparison of the
// packed word — a single unsigned comparison per candidate, exactly as in
// paper §3.3.
//
// All 24 conjugates are visited by a plain-changes (Steinhaus–Johnson–
// Trotter) walk through S₄: 23 conjugations by adjacent wire
// transpositions, each a 14-operation kernel (perm.Conj01, Conj12,
// Conj23). The walk's kernel order has period 8 — Conj23 Conj12 Conj01
// Conj23 Conj01 Conj12 Conj23 Conj01, three times with the last step
// dropped — so Canonical and ForEachVariant spell it out as direct
// kernel calls, with no per-step dispatch on the transposition index or
// lookup of the relabeling reached; the minimum's walk position maps to
// its relabeling once, at the end, through walkPos. Together with one
// inversion this canonicalizes a random function or a gate product in
// about 150 ns, and an involution (one sweep instead of two) in about
// 100 ns, on a 2-vCPU x86-64 Xeon host (BenchmarkCanonical).
package canon

import (
	"fmt"

	"repro/internal/gate"
	"repro/internal/perm"
)

// SigmaCount is the number of wire relabelings, |S₄|.
const SigmaCount = 24

// MaxClassSize is the largest possible equivalence class: 24 relabelings
// × {f, f⁻¹}.
const MaxClassSize = 48

var (
	// sigmas lists the 24 wire relabelings in plain-changes order;
	// sigmas[0] is the identity.
	sigmas [SigmaCount][4]uint8
	// shuffles[s] is the state permutation gσ of sigmas[s].
	shuffles [SigmaCount]perm.Perm
	// stepTable[s][t] is the relabeling index reached from index s by the
	// kernel for adjacent transposition t (cumulative-shuffle tracking).
	stepTable [SigmaCount][3]int
	// walkPos[n] is the relabeling index the walk has conjugated by after
	// n kernel steps: the stepTable chain along the plain-changes swaps.
	walkPos [SigmaCount]int
	// inverseIdx[s] is the position holding the inverse relabeling.
	inverseIdx [SigmaCount]int
	// conjGateTable[s][gi] is the gate computing
	// Conjugate(gate.FromIndex(gi).Perm(), shuffles[s]).
	conjGateTable [SigmaCount][gate.Count]gate.Gate
)

// sjt enumerates S₄ by plain changes, returning the permutations and the
// swap positions (0, 1 or 2: the index of the left element of the swapped
// adjacent pair) between consecutive permutations.
func sjt() (perms [][4]uint8, swaps []int) {
	arr := [4]uint8{0, 1, 2, 3}
	dir := [4]int{-1, -1, -1, -1}
	perms = append(perms, arr)
	for {
		// Find the largest mobile element (one whose direction points at a
		// smaller neighbor).
		mobile := -1
		for i := 0; i < 4; i++ {
			j := i + dir[i]
			if j < 0 || j > 3 || arr[j] > arr[i] {
				continue
			}
			if mobile < 0 || arr[i] > arr[mobile] {
				mobile = i
			}
		}
		if mobile < 0 {
			return perms, swaps
		}
		j := mobile + dir[mobile]
		swaps = append(swaps, min(mobile, j))
		arr[mobile], arr[j] = arr[j], arr[mobile]
		dir[mobile], dir[j] = dir[j], dir[mobile]
		// Reverse direction of everything larger than the moved element.
		for i := 0; i < 4; i++ {
			if arr[i] > arr[j] {
				dir[i] = -dir[i]
			}
		}
		perms = append(perms, arr)
	}
}

func init() {
	perms, swaps := sjt()
	if len(perms) != SigmaCount || len(swaps) != SigmaCount-1 {
		panic(fmt.Sprintf("canon: plain changes produced %d perms, %d swaps", len(perms), len(swaps)))
	}
	indexOf := make(map[[4]uint8]int, SigmaCount)
	for i, s := range perms {
		sigmas[i] = s
		indexOf[s] = i
		g, err := perm.WireShuffle(s)
		if err != nil {
			panic(err)
		}
		shuffles[i] = g
	}

	// Walk-position transitions: applying kernel t to a function currently
	// conjugated by shuffles[s] leaves it conjugated by the product
	// shuffle τₜ.Then-composed appropriately. We determine the resulting
	// index by composing the actual shuffle words, which avoids any
	// convention slips.
	shuffleIdx := make(map[perm.Perm]int, SigmaCount)
	for i, g := range shuffles {
		shuffleIdx[g] = i
	}
	taus := [3][4]uint8{{1, 0, 2, 3}, {0, 2, 1, 3}, {0, 1, 3, 2}}
	var tauShuffles [3]perm.Perm
	for t, sigma := range taus {
		g, err := perm.WireShuffle(sigma)
		if err != nil {
			panic(err)
		}
		tauShuffles[t] = g
	}
	for s := 0; s < SigmaCount; s++ {
		for t := 0; t < 3; t++ {
			// conj(conj(f, A), B) = conj(f, A·B) where A·B applies B
			// first: as packed words, B.Then(A).
			combined := tauShuffles[t].Then(shuffles[s])
			idx, ok := shuffleIdx[combined]
			if !ok {
				panic("canon: shuffle product escaped the group")
			}
			stepTable[s][t] = idx
		}
		inv, ok := shuffleIdx[shuffles[s].Inverse()]
		if !ok {
			panic("canon: shuffle inverse escaped the group")
		}
		inverseIdx[s] = inv
	}
	for i, t := range swaps {
		walkPos[i+1] = stepTable[walkPos[i]][t]
	}

	// Gate conjugation tables: wire relabeling maps library gates to
	// library gates (paper §3.2 — "their conjugacy classes consist of
	// gates").
	gateOf := make(map[perm.Perm]gate.Gate, gate.Count)
	for _, g := range gate.All() {
		gateOf[g.Perm()] = g
	}
	for s := 0; s < SigmaCount; s++ {
		for gi := 0; gi < gate.Count; gi++ {
			g := gate.FromIndex(gi)
			p := perm.Conjugate(g.Perm(), shuffles[s])
			cg, ok := gateOf[p]
			if !ok {
				panic(fmt.Sprintf("canon: conjugate of gate %v by σ%d is not a gate", g, s))
			}
			conjGateTable[s][gi] = cg
		}
	}
}

// Sigma returns the s-th wire relabeling in the package's fixed
// plain-changes order; Sigma(0) is the identity.
func Sigma(s int) [4]uint8 { return sigmas[s] }

// Shuffle returns the state permutation gσ of the s-th relabeling.
func Shuffle(s int) perm.Perm { return shuffles[s] }

// InverseSigma returns the index of the relabeling inverse to the s-th.
func InverseSigma(s int) int { return inverseIdx[s] }

// ConjugateGate returns the library gate computing the conjugation of g
// by the s-th relabeling's shuffle: Conjugate(g.Perm(), Shuffle(s)).
func ConjugateGate(g gate.Gate, s int) gate.Gate {
	return conjGateTable[s][g.Index()]
}

// Canonical returns the canonical representative of f's equivalence
// class, together with a witness: rep = Conjugate(base, Shuffle(sigma))
// where base is f when inverted is false and f.Inverse() when true.
//
// The representative is the minimum packed word over the ≤48 class
// members; equivalent functions (and inverses) therefore canonicalize to
// the identical representative. The witness is the first minimum of the
// walk: a strictly smaller word wins, and at each position f's conjugate
// is tested before f⁻¹'s.
func Canonical(f perm.Perm) (rep perm.Perm, sigma int, inverted bool) {
	fi := f.Inverse()
	// at is the walk position of the minimum, doubled, plus one when the
	// minimum is f⁻¹'s conjugate; n counts doubled steps.
	rep, at, n := f, 0, 0
	if fi == f {
		// Involution: the inverse orbit coincides with the direct one, so
		// the second sweep — half the conjugation kernels and comparisons
		// of the general case — is pure repetition. Involutions are not
		// rare in the BFS inner loop (every alphabet element is one, and
		// palindromic products stay closed under inversion), so this
		// halves the canonicalization cost exactly where Table 1 says the
		// time goes.
		cf := f
		step := func(next perm.Perm) {
			n += 2
			cf = next
			if next < rep {
				rep, at = next, n
			}
		}
		for r := 0; r < 3; r++ {
			step(cf.Conj23())
			step(cf.Conj12())
			step(cf.Conj01())
			step(cf.Conj23())
			step(cf.Conj01())
			step(cf.Conj12())
			step(cf.Conj23())
			if r < 2 {
				step(cf.Conj01())
			}
		}
		return rep, walkPos[at>>1], false
	}
	if fi < rep {
		rep, at = fi, 1
	}
	cf, cfi := f, fi
	step := func(next, nexti perm.Perm) {
		n += 2
		cf, cfi = next, nexti
		if next < rep {
			rep, at = next, n
		}
		if nexti < rep {
			rep, at = nexti, n+1
		}
	}
	for r := 0; r < 3; r++ {
		step(cf.Conj23(), cfi.Conj23())
		step(cf.Conj12(), cfi.Conj12())
		step(cf.Conj01(), cfi.Conj01())
		step(cf.Conj23(), cfi.Conj23())
		step(cf.Conj01(), cfi.Conj01())
		step(cf.Conj12(), cfi.Conj12())
		step(cf.Conj23(), cfi.Conj23())
		if r < 2 {
			step(cf.Conj01(), cfi.Conj01())
		}
	}
	return rep, walkPos[at>>1], at&1 != 0
}

// Rep returns just the canonical representative of f's class.
func Rep(f perm.Perm) perm.Perm {
	rep, _, _ := Canonical(f)
	return rep
}

// ForEachVariant calls fn on every member of f's equivalence class, in a
// fixed order, possibly with repeats when the class is degenerate (class
// size < 48). It stops early if fn returns false. This is the inner
// enumeration of the meet-in-the-middle search (paper Algorithm 1): all
// functions of size i are exactly the variants of the stored canonical
// representatives of size i.
//
// The order is Canonical's walk: f, f⁻¹, then at each of the 23 further
// positions f's conjugate before f⁻¹'s. When f is an involution the
// inverse orbit repeats the direct one member for member, so only the 24
// conjugates are visited — half the kernels, and half the candidate
// probes for the search loops built on top.
func ForEachVariant(f perm.Perm, fn func(perm.Perm) bool) {
	fi := f.Inverse()
	if fi == f {
		if !fn(f) {
			return
		}
		cf := f
		step := func(next perm.Perm) bool {
			cf = next
			return fn(next)
		}
		for r := 0; r < 3; r++ {
			if !step(cf.Conj23()) || !step(cf.Conj12()) || !step(cf.Conj01()) ||
				!step(cf.Conj23()) || !step(cf.Conj01()) || !step(cf.Conj12()) ||
				!step(cf.Conj23()) || r < 2 && !step(cf.Conj01()) {
				return
			}
		}
		return
	}
	if !fn(f) || !fn(fi) {
		return
	}
	cf, cfi := f, fi
	step := func(next, nexti perm.Perm) bool {
		cf, cfi = next, nexti
		return fn(next) && fn(nexti)
	}
	for r := 0; r < 3; r++ {
		if !step(cf.Conj23(), cfi.Conj23()) || !step(cf.Conj12(), cfi.Conj12()) ||
			!step(cf.Conj01(), cfi.Conj01()) || !step(cf.Conj23(), cfi.Conj23()) ||
			!step(cf.Conj01(), cfi.Conj01()) || !step(cf.Conj12(), cfi.Conj12()) ||
			!step(cf.Conj23(), cfi.Conj23()) || r < 2 && !step(cf.Conj01(), cfi.Conj01()) {
			return
		}
	}
}

// Class returns the distinct members of f's equivalence class in
// ascending packed-word order. Its length divides into the 16!-element
// space the way paper Table 4's "Functions" and "Reduced Functions"
// columns relate.
func Class(f perm.Perm) []perm.Perm {
	seen := make(map[perm.Perm]struct{}, MaxClassSize)
	ForEachVariant(f, func(v perm.Perm) bool {
		seen[v] = struct{}{}
		return true
	})
	out := make([]perm.Perm, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ClassSize returns the number of distinct members of f's class (≤ 48).
func ClassSize(f perm.Perm) int {
	// The variant walk yields at most 48 values (24 for involutions, with
	// repeats); insertion-sort them into a stack array and count runs —
	// no allocation and far fewer comparisons than a pairwise scan on
	// this hot path (Result.FullCount calls this once per
	// representative).
	var members [MaxClassSize]perm.Perm
	n := 0
	ForEachVariant(f, func(v perm.Perm) bool {
		members[n] = v
		n++
		return true
	})
	for i := 1; i < n; i++ {
		v := members[i]
		j := i
		for ; j > 0 && members[j-1] > v; j-- {
			members[j] = members[j-1]
		}
		members[j] = v
	}
	distinct := 1
	for i := 1; i < n; i++ {
		if members[i] != members[i-1] {
			distinct++
		}
	}
	return distinct
}
