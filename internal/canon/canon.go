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
// dropped — so Canonical and the variant walk spell it out as direct
// kernel calls, with no per-step dispatch on the transposition index or
// lookup of the relabeling reached; the minimum's walk position maps to
// its relabeling once, at the end, through walkPos. Together with one
// inversion this canonicalizes a random function or a gate product in
// about 100–150 ns, and an involution (one sweep instead of two) in
// about 100 ns, on a 2-vCPU x86-64 Xeon host (BenchmarkCanonical; the
// host's speed varies by tens of percent from run to run).
//
// CanonicalPair is the same walk for a caller that already holds f⁻¹,
// and skips the inversion: about 84 ns against 98 for Canonical on the
// same gate products (BenchmarkCanonical/products-pair and /products,
// medians of 6 runs). The BFS expansion is that caller. It derives each
// product's inverse from its representative's with a few word
// operations (bfs.ExpandRep), so one expansion candidate — the two
// products, the walk, and packing the value — costs about 166 ns, where
// a perm.Then, a perm.Inverse and Canonical cost about 214
// (bfs.BenchmarkCanonicalizeExpansion, medians of 6 alternating runs).
//
// ForEachVariant enumerates a class — the meet-in-the-middle scan's
// candidate prefixes — as its orbit: each distinct member once, in the
// order the same walk first reaches it. ClassSize counts the orbit from
// the same walk, by orbit–stabilizer, with no map and no sort.
package canon

import (
	"fmt"
	"slices"

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
	return CanonicalPair(f, f.Inverse())
}

// CanonicalPair is Canonical for a caller that already holds fi =
// f.Inverse(): the same walk, the same representative and the same
// witness, without the inversion. fi must be f's inverse; nothing
// checks it. The BFS expansion computes each product's inverse with a
// few word operations from its base's (bfs.ExpandRep), which is
// cheaper than a general inversion.
func CanonicalPair(f, fi perm.Perm) (rep perm.Perm, sigma int, inverted bool) {
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

// ForEachVariant calls fn once on each distinct member of f's
// equivalence class (its orbit), in the order Canonical's walk first
// reaches it, and stops early if fn returns false. This is the inner
// enumeration of the meet-in-the-middle search (paper Algorithm 1): all
// functions of size i are exactly the members of the stored canonical
// representatives' classes of size i.
//
// The walk is Canonical's: f, f⁻¹, then at each of the 23 further
// positions f's conjugate before f⁻¹'s; when f is an involution the
// inverse orbit repeats the direct one member for member, so only the
// 24 conjugates are walked. It visits every relabeling (and inversion)
// once, so by orbit–stabilizer each member appears as often as f itself
// does. A full-size class — the common case — therefore costs one
// comparison with f per value and yields the walk unchanged; only a
// class that walks onto f again pays to drop its later repeats.
func ForEachVariant(f perm.Perm, fn func(perm.Perm) bool) {
	var w [MaxClassSize]perm.Perm
	n, stab := walk(f, &w)
	if stab == 1 {
		for _, v := range w[:n] {
			if !fn(v) {
				return
			}
		}
		return
	}
	left := n / stab // the orbit's size
	for i, v := range w[:n] {
		if slices.Contains(w[:i], v) {
			continue
		}
		if left--; !fn(v) || left == 0 {
			return
		}
	}
}

// walk fills w with Canonical's walk of f (48 values, or the 24
// conjugates of an involution) and returns its length n and the number
// of its values equal to f: the order of f's stabilizer, so the class
// has n/stab members.
func walk(f perm.Perm, w *[MaxClassSize]perm.Perm) (n, stab int) {
	fi := f.Inverse()
	w[0], n, stab = f, 1, 1
	if fi == f {
		cf := f
		step := func(next perm.Perm) {
			cf = next
			w[n] = next
			n++
			if next == f {
				stab++
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
		return n, stab
	}
	w[1], n = fi, 2
	cf, cfi := f, fi
	step := func(next, nexti perm.Perm) {
		cf, cfi = next, nexti
		w[n], w[n+1] = next, nexti
		n += 2
		if next == f {
			stab++
		}
		if nexti == f {
			stab++
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
	return n, stab
}

// Class returns the distinct members of f's equivalence class in
// ascending packed-word order. Its length divides into the 16!-element
// space the way paper Table 4's "Functions" and "Reduced Functions"
// columns relate.
func Class(f perm.Perm) []perm.Perm {
	out := make([]perm.Perm, 0, MaxClassSize)
	ForEachVariant(f, func(v perm.Perm) bool {
		out = append(out, v)
		return true
	})
	slices.Sort(out)
	return out
}

// ClassSize returns the number of distinct members of f's class (≤ 48):
// the walk's length over f's stabilizer order, by orbit–stabilizer. It
// allocates nothing (Result.FullCount calls it once per
// representative).
func ClassSize(f perm.Perm) int {
	var w [MaxClassSize]perm.Perm
	n, stab := walk(f, &w)
	return n / stab
}
