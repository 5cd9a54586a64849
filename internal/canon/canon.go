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
// The walk order is a plain-changes (Steinhaus–Johnson–Trotter) walk
// through S₄: 23 conjugations by adjacent wire transpositions, each a
// 14-operation kernel (perm.Conj01, Conj12, Conj23), in an order of
// period 8 — Conj23 Conj12 Conj01 Conj23 Conj01 Conj12 Conj23 Conj01,
// three times with the last step dropped — which walk spells out as
// direct kernel calls. It fixes which member is the witness: the first
// minimum of the walk, f's conjugate before f⁻¹'s at each position.
//
// Canonicalization visits only the members that can be the minimum.
// The top nibble of conj(f,σ) is gσ⁻¹(f(15)), since gσ fixes state 15,
// and a relabeling keeps its popcount w; so the minimum's top nibble is
// 2^w − 1 for the smaller w of f(15) and f⁻¹(15), and on each side that
// can reach it only the relabelings that move the top's set bits to the
// low bits count: a coset of 6 relabelings (w = 1 or 3) or 4 (w = 2),
// reached with at most two wire transpositions and walked through the
// stabilizer of 2^w − 1 with adjacent kernels, where the full walk
// takes 46. Each coset member carries its position in the walk, so
// the witness does not change. A top of 0 or 15 is fixed by every
// relabeling, and those functions take walk's full sweep. CanonicalPair
// is this walk for a caller that already holds f⁻¹; Canonical inverts
// f first. On 2^20 distinct 5–6-gate products CanonicalPair takes about
// 92 ns, where walking all 48 members took about 176; on random
// functions Canonical takes about 114 ns (203 with the full walk), on a
// 2-vCPU x86-64 Xeon host (BenchmarkCanonical/products-corpus-pair and
// /random, medians of 6 alternating runs; the host's speed varies by
// tens of percent from run to run).
//
// The BFS expansion is CanonicalPair's caller. It derives each
// product's inverse from its representative's with a few word
// operations (bfs.ExpandRep), so one expansion candidate — the two
// products, the canonicalization, and packing the value — costs about
// 111 ns, against 179 with the full walk
// (bfs.BenchmarkCanonicalizeExpansion, medians of 6 alternating runs).
//
// ForEachVariant enumerates a class — the meet-in-the-middle scan's
// candidate prefixes — as its orbit: each distinct member once, in the
// order the same walk first reaches it. ClassSize counts the orbit from
// the same walk, by orbit–stabilizer, with no map and no sort.
package canon

import (
	"cmp"
	"fmt"
	"math/bits"
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
	// cosets[v] is CanonicalPair's plan for a side whose top nibble is v.
	cosets [16]coset
)

// kernel conjugates by the wire transposition (i j), i < j, as data:
// two delta swaps, one of the nibble positions whose indices differ in
// bits i and j, one of bits i and j of every nibble value. For adjacent
// wires it computes what perm.Conj01, Conj12 and Conj23 compute; the
// zero kernel is the identity, so a coset plan pads with it to a fixed
// length and runs without a data-dependent branch.
type kernel struct {
	pos, val       uint64 // the lower bit of each swapped pair: positions, values
	pshift, vshift uint
}

func transposition(i, j int) kernel {
	var pos uint64
	for x := 0; x < 16; x++ {
		if x>>i&1 == 1 && x>>j&1 == 0 {
			pos |= 0xF << (4 * x)
		}
	}
	return kernel{pos, 0x1111111111111111 << i, uint(4 * (1<<j - 1<<i)), uint(j - i)}
}

func (k *kernel) conj(p perm.Perm) perm.Perm {
	v := uint64(p)
	// No shift reaches 64; the masks let the compiler drop the code Go
	// shifts need for counts of 64 or more.
	ps, vs := k.pshift&63, k.vshift&63
	d := (v>>ps ^ v) & k.pos
	v ^= d | d<<ps
	d = (v>>vs ^ v) & k.val
	return perm.Perm(v ^ (d | d<<vs))
}

// coset is CanonicalPair's plan for a side whose top nibble v is
// neither 0 nor 15: the relabelings σ with gσ⁻¹(v) = 2^w − 1, w the
// popcount of v. reach moves v's set bits to the low bits with at most
// two wire transpositions, which lands on one σ of the coset; walk then
// steps through the stabilizer of 2^w − 1 with adjacent kernels (0 1)
// and (2 3) when w is 2, (1 2) and (2 3) when w is 1, (0 1) and (1 2)
// when w is 3. The 4-member coset of w = 2 ends in two identity steps
// that repeat its last member, which cannot change the minimum. Each
// member carries the rank of its position in Canonical's plain-changes
// walk, and at maps the rank back to that position.
type coset struct {
	reach [2]kernel
	walk  [5]kernel
	rank  [6]uint8 // rank[i]: the rank of the position after i steps
	at    [8]uint8 // at[r]: the doubled position of rank r, ascending
	top   uint64   // 2^w − 1 in the top nibble
}

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
	var posOf [SigmaCount]uint8 // the inverse of walkPos
	for i, t := range swaps {
		walkPos[i+1] = stepTable[walkPos[i]][t]
		posOf[walkPos[i+1]] = uint8(i + 1)
	}
	stabilizers := [4][][2]int{
		1: {{1, 2}, {2, 3}, {1, 2}, {2, 3}, {1, 2}},
		2: {{0, 1}, {2, 3}, {0, 1}},
		3: {{0, 1}, {1, 2}, {0, 1}, {1, 2}, {0, 1}},
	}
	for v := 1; v < 15; v++ {
		c, s, w := &cosets[v], 0, bits.OnesCount(uint(v))
		// then conjugates by (i j) and follows the relabeling reached.
		then := func(i, j int) kernel {
			sigma := [4]uint8{0, 1, 2, 3}
			sigma[i], sigma[j] = sigma[j], sigma[i]
			g, err := perm.WireShuffle(sigma)
			if err != nil {
				panic(err)
			}
			s = shuffleIdx[g.Then(shuffles[s])]
			return transposition(i, j)
		}
		// Pair the set bits at w or above with the clear bits below w.
		hole := 0
		for n, hi := 0, w; hi < 4; hi++ {
			if v>>hi&1 == 0 {
				continue
			}
			for v>>hole&1 == 1 {
				hole++
			}
			c.reach[n] = then(hole, hi)
			n, hole = n+1, hole+1
		}
		// Number the members in step order, then rank them by position.
		steps := [6]uint8{2 * posOf[s]}
		for n := range c.walk {
			if n < len(stabilizers[w]) {
				c.walk[n] = then(stabilizers[w][n][0], stabilizers[w][n][1])
			}
			steps[n+1] = 2 * posOf[s]
		}
		order := []int{0, 1, 2, 3, 4, 5}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(steps[a], steps[b]) })
		for r, n := range order {
			c.rank[n], c.at[r] = uint8(r), steps[n]
		}
		c.top = (1<<w - 1) << 60
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
// f.Inverse(): the same representative and the same witness, without
// the inversion. fi must be f's inverse; nothing checks it. The BFS
// expansion computes each product's inverse with a few word operations
// from its base's (bfs.ExpandRep), which is cheaper than a general
// inversion.
//
// Only a side (f or f⁻¹) whose top nibble has the smaller popcount w
// takes part, and it walks only its coset: the 6 or 4 relabelings that
// bring its top to 2^w − 1, or all 24 when the top is 0 or 15 (see the
// package doc). An equal word, which only a symmetric class has, wins
// when its walk position is earlier.
func CanonicalPair(f, fi perm.Perm) (rep perm.Perm, sigma int, inverted bool) {
	w, wi := bits.OnesCount64(uint64(f>>60)), bits.OnesCount64(uint64(fi>>60))
	if least := min(w, wi); least == 0 || least == 4 {
		// The top that takes part is 0 or 15, which every relabeling
		// fixes: the coset is all of S₄, which walk sweeps. When only
		// one side takes part, it sweeps that side's 24 conjugates.
		side, other, inv := f, fi, 0
		if w < wi {
			other = f
		} else if wi < w {
			side, other, inv = fi, fi, 1
		}
		var all [MaxClassSize]perm.Perm
		n, _, i := walk(side, other, &all)
		rep = all[i]
		if n == SigmaCount { // one value per position
			i = 2*i + inv
		}
		return rep, walkPos[i>>1], i&1 != 0
	}
	// at is the walk position of the minimum, doubled, plus one when the
	// minimum is f⁻¹'s conjugate. No permutation packs to all ones, so
	// a side taking part replaces the initial rep.
	rep, at := ^perm.Perm(0), uint8(0)
	if w <= wi {
		rep, at = cosets[f>>60].least(f)
	}
	// An involution's inverse orbit is its direct one, member for member.
	if wi <= w && fi != f {
		r, a := cosets[fi>>60].least(fi)
		if a++; r < rep || r == rep && a < at {
			rep, at = r, a
		}
	}
	return rep, walkPos[at>>1], at&1 != 0
}

// least returns the least member of side's coset and its doubled walk
// position, the earliest when the least member repeats. Every member
// has the top nibble c.top, so least compares the members shifted up
// by a nibble with their positions' ranks below: one unsigned minimum
// orders them by word, then by walk position, without a branch.
func (c *coset) least(side perm.Perm) (perm.Perm, uint8) {
	side = c.reach[1].conj(c.reach[0].conj(side))
	m := uint64(side)<<4 | uint64(c.rank[0])
	for i := range c.walk {
		side = c.walk[i].conj(side)
		x := uint64(side)<<4 | uint64(c.rank[i+1])
		_, less := bits.Sub64(x, m, 0) // 1 when x < m
		m ^= (m ^ x) & -less
	}
	return perm.Perm(m>>4 | c.top), c.at[m&7]
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
	n, stab, _ := walk(f, f.Inverse(), &w)
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

// walk fills w with Canonical's walk of f, whose inverse is fi (48
// values, or the 24 conjugates of an involution; given fi = f, it walks
// f's conjugates alone), and returns its length n, the number of its
// values equal to f — the order of f's stabilizer, so the class has
// n/stab members — and the index of its first least value.
func walk(f, fi perm.Perm, w *[MaxClassSize]perm.Perm) (n, stab, least int) {
	m := f
	keep := func(v perm.Perm) {
		w[n] = v
		if v == f {
			stab++
		}
		m = min(m, v)
		n++
	}
	keep(f)
	if fi == f {
		cf := f
		step := func(next perm.Perm) {
			cf = next
			keep(next)
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
		return n, stab, slices.Index(w[:n], m)
	}
	keep(fi)
	cf, cfi := f, fi
	step := func(next, nexti perm.Perm) {
		cf, cfi = next, nexti
		keep(next)
		keep(nexti)
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
	return n, stab, slices.Index(w[:n], m)
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
	n, stab, _ := walk(f, f.Inverse(), &w)
	return n / stab
}
