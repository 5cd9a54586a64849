package canon

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/gate"
	"repro/internal/perm"
)

func randPerm(rng *rand.Rand) perm.Perm {
	var vals [16]uint8
	for i := range vals {
		vals[i] = uint8(i)
	}
	for i := 15; i > 0; i-- {
		j := rng.Intn(i + 1)
		vals[i], vals[j] = vals[j], vals[i]
	}
	return perm.MustFromValues(vals)
}

func TestPlainChangesEnumeratesS4(t *testing.T) {
	seen := map[[4]uint8]bool{}
	for s := 0; s < SigmaCount; s++ {
		sig := Sigma(s)
		if seen[sig] {
			t.Fatalf("relabeling %v repeated at position %d", sig, s)
		}
		seen[sig] = true
	}
	if len(seen) != 24 {
		t.Fatalf("enumerated %d relabelings, want 24", len(seen))
	}
	if Sigma(0) != [4]uint8{0, 1, 2, 3} {
		t.Fatalf("Sigma(0) = %v, want identity", Sigma(0))
	}
}

func TestConsecutiveSigmasDifferByAdjacentSwap(t *testing.T) {
	for s := 0; s+1 < SigmaCount; s++ {
		a, b := Sigma(s), Sigma(s+1)
		diff := 0
		for i := 0; i < 4; i++ {
			if a[i] != b[i] {
				diff++
			}
		}
		if diff != 2 {
			t.Fatalf("positions %d and %d differ in %d slots, want 2", s, s+1, diff)
		}
	}
}

func TestShuffleOfIdentityIsIdentity(t *testing.T) {
	if Shuffle(0) != perm.Identity {
		t.Fatalf("Shuffle(0) = %v", Shuffle(0))
	}
}

func TestInverseSigma(t *testing.T) {
	for s := 0; s < SigmaCount; s++ {
		if Shuffle(s).Then(Shuffle(InverseSigma(s))) != perm.Identity &&
			Shuffle(InverseSigma(s)).Then(Shuffle(s)) != perm.Identity {
			t.Fatalf("InverseSigma(%d) = %d is not an inverse", s, InverseSigma(s))
		}
	}
}

func TestCanonicalWitness(t *testing.T) {
	// The returned (sigma, inverted) pair must reconstruct the
	// representative exactly — this is what BFS/search rely on to
	// translate stored gates back to the queried function.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		f := randPerm(rng)
		rep, sigma, inverted := Canonical(f)
		base := f
		if inverted {
			base = f.Inverse()
		}
		if got := perm.Conjugate(base, Shuffle(sigma)); got != rep {
			t.Fatalf("witness failed for %v: conj(base,σ%d)=%v, rep=%v (inv=%v)",
				f, sigma, got, rep, inverted)
		}
	}
}

func TestCanonicalIsClassInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		f := randPerm(rng)
		rep := Rep(f)
		if Rep(f.Inverse()) != rep {
			t.Fatalf("Rep(f⁻¹) differs from Rep(f) for %v", f)
		}
		for s := 0; s < SigmaCount; s++ {
			if Rep(perm.Conjugate(f, Shuffle(s))) != rep {
				t.Fatalf("Rep of conjugate by σ%d differs for %v", s, f)
			}
		}
	}
}

func TestCanonicalIsMinimumOfClass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		f := randPerm(rng)
		rep := Rep(f)
		for _, v := range Class(f) {
			if v < rep {
				t.Fatalf("class member %v below representative %v", v, rep)
			}
		}
		found := false
		for _, v := range Class(f) {
			if v == rep {
				found = true
			}
		}
		if !found {
			t.Fatalf("representative %v not in its own class", rep)
		}
	}
}

func TestCanonicalIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		f := randPerm(rng)
		rep := Rep(f)
		if Rep(rep) != rep {
			t.Fatalf("Rep not idempotent: Rep(%v) = %v", rep, Rep(rep))
		}
	}
}

func TestClassSizeDividesIntoVariants(t *testing.T) {
	// Class sizes must divide 48 (orbit-stabilizer for the group of order
	// 48 acting by conjugation+inversion).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		f := randPerm(rng)
		n := ClassSize(f)
		if n < 1 || n > MaxClassSize || MaxClassSize%n != 0 {
			t.Fatalf("class size %d does not divide %d", n, MaxClassSize)
		}
		if got := len(Class(f)); got != n {
			t.Fatalf("ClassSize=%d but len(Class)=%d", n, got)
		}
	}
}

func TestMostClassesHaveFullSize(t *testing.T) {
	// Paper §3.2: "a vast majority of functions have 48 distinct
	// equivalent functions."
	rng := rand.New(rand.NewSource(6))
	full := 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		if ClassSize(randPerm(rng)) == MaxClassSize {
			full++
		}
	}
	if full < trials*95/100 {
		t.Fatalf("only %d/%d random functions have full 48-element classes", full, trials)
	}
}

func TestIdentityClassIsSingleton(t *testing.T) {
	if n := ClassSize(perm.Identity); n != 1 {
		t.Fatalf("identity class size = %d, want 1", n)
	}
	if Rep(perm.Identity) != perm.Identity {
		t.Fatal("identity is not its own representative")
	}
}

func TestNOTClassMatchesPaperExample(t *testing.T) {
	// Paper §3.2: "if f = NOT(a), then there exist only 4 distinct
	// functions of the form fσ" — and NOT gates are self-inverse, so the
	// full class (with inversion) is also exactly the 4 NOT gates.
	f := gate.MustParse("NOT(a)").Perm()
	cls := Class(f)
	if len(cls) != 4 {
		t.Fatalf("NOT(a) class size = %d, want 4", len(cls))
	}
	wantMembers := map[perm.Perm]bool{}
	for w := 0; w < 4; w++ {
		wantMembers[gate.MustNew(w, 0).Perm()] = true
	}
	for _, v := range cls {
		if !wantMembers[v] {
			t.Fatalf("unexpected member %v in NOT class", v)
		}
	}
}

func TestGateClassesAreGateKinds(t *testing.T) {
	// Conjugation+inversion partitions the 32 gates into exactly the four
	// kinds: 4 NOTs, 12 CNOTs, 12 TOFs, 4 TOF4s (paper Table 4, size-1
	// row: 32 functions, 4 reduced).
	reps := map[perm.Perm][]gate.Gate{}
	for _, g := range gate.All() {
		r := Rep(g.Perm())
		reps[r] = append(reps[r], g)
	}
	if len(reps) != 4 {
		t.Fatalf("gates form %d classes, want 4", len(reps))
	}
	for r, gates := range reps {
		kind := gates[0].Kind()
		for _, g := range gates {
			if g.Kind() != kind {
				t.Fatalf("class of %v mixes kinds", r)
			}
		}
		wantLen := map[gate.Kind]int{gate.NOT: 4, gate.CNOT: 12, gate.TOF: 12, gate.TOF4: 4}[kind]
		if len(gates) != wantLen {
			t.Fatalf("%v class has %d gates, want %d", kind, len(gates), wantLen)
		}
	}
}

func TestConjugateGateTable(t *testing.T) {
	for s := 0; s < SigmaCount; s++ {
		for _, g := range gate.All() {
			cg := ConjugateGate(g, s)
			if cg.Perm() != perm.Conjugate(g.Perm(), Shuffle(s)) {
				t.Fatalf("ConjugateGate(%v, σ%d) = %v does not match conjugation", g, s, cg)
			}
			if cg.Kind() != g.Kind() {
				t.Fatalf("conjugation changed gate kind: %v -> %v", g, cg)
			}
		}
	}
}

func TestConjugateGateDistributes(t *testing.T) {
	// conj(p.Then(q)) = conj(p).Then(conj(q)) specialized to gates: the
	// identity the circuit-reconstruction logic depends on.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		g1 := gate.FromIndex(rng.Intn(gate.Count))
		g2 := gate.FromIndex(rng.Intn(gate.Count))
		s := rng.Intn(SigmaCount)
		lhs := perm.Conjugate(g1.Perm().Then(g2.Perm()), Shuffle(s))
		rhs := ConjugateGate(g1, s).Perm().Then(ConjugateGate(g2, s).Perm())
		if lhs != rhs {
			t.Fatalf("gate conjugation does not distribute (σ%d, %v, %v)", s, g1, g2)
		}
	}
}

func TestForEachVariantCoversClassExactly48(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		f := randPerm(rng)
		count := 0
		seen := map[perm.Perm]bool{}
		ForEachVariant(f, func(v perm.Perm) bool {
			count++
			seen[v] = true
			return true
		})
		if count != MaxClassSize {
			t.Fatalf("variant walk yielded %d values, want %d", count, MaxClassSize)
		}
		if len(seen) != ClassSize(f) {
			t.Fatalf("variant walk covered %d distinct, class size %d", len(seen), ClassSize(f))
		}
	}
}

func TestForEachVariantEarlyStop(t *testing.T) {
	// A full-size class: the walk has 48 distinct values to stop in.
	f := randPerm(rand.New(rand.NewSource(15)))
	if n := ClassSize(f); n != MaxClassSize {
		t.Fatalf("input class size %d, want %d", n, MaxClassSize)
	}
	count := 0
	ForEachVariant(f, func(perm.Perm) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop after %d calls, want 5", count)
	}
}

func TestQuickEquivalentFunctionsShareRep(t *testing.T) {
	f := func(seed int64, sRaw uint8, invert bool) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPerm(rng)
		v := perm.Conjugate(p, Shuffle(int(sRaw)%SigmaCount))
		if invert {
			v = v.Inverse()
		}
		return Rep(v) == Rep(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// randInvolution composes a random palindrome of gates — (g₁…gₙ…g₁) is
// its own inverse because every gate is — giving involutions that are
// not themselves single alphabet elements.
func randInvolution(rng *rand.Rand) perm.Perm {
	g1 := gate.FromIndex(rng.Intn(gate.Count)).Perm()
	g2 := gate.FromIndex(rng.Intn(gate.Count)).Perm()
	g3 := gate.FromIndex(rng.Intn(gate.Count)).Perm()
	p := g1.Then(g2).Then(g3).Then(g2).Then(g1)
	if p.Inverse() != p {
		panic("palindrome is not an involution")
	}
	return p
}

// TestCanonicalInvolutionFastPath checks the single-sweep shortcut
// against the definition: for involutions the representative must still
// be the minimum over the full class, with a valid witness.
func TestCanonicalInvolutionFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		f := randInvolution(rng)
		rep, sigma, inverted := Canonical(f)
		cls := Class(f)
		if rep != cls[0] {
			t.Fatalf("involution %v canonicalized to %v, class min %v", f, rep, cls[0])
		}
		base := f
		if inverted {
			base = f.Inverse()
		}
		if got := perm.Conjugate(base, Shuffle(sigma)); got != rep {
			t.Fatalf("witness broken for involution %v: conj = %v, rep = %v", f, got, rep)
		}
		// The walk must visit the whole class, each member once, within
		// the 24 conjugates of the half walk.
		count, seen := 0, map[perm.Perm]bool{}
		ForEachVariant(f, func(v perm.Perm) bool {
			count++
			seen[v] = true
			return true
		})
		if count != ClassSize(f) || count > SigmaCount {
			t.Fatalf("involution variant walk yielded %d values, class size %d (at most %d)", count, ClassSize(f), SigmaCount)
		}
		if len(seen) != ClassSize(f) {
			t.Fatalf("involution walk covered %d distinct, class size %d", len(seen), ClassSize(f))
		}
	}
}

// BenchmarkCanonical isolates the canonicalization kernel on the input
// populations the BFS inner loop sees: general functions (one
// inversion, then one coset walk of 4 or 6 members, or two when f(15)
// and f⁻¹(15) have the same popcount), involutions, which walk one
// side only, and products of 1–12 gates, the shape bfs.ExpandRep
// feeds. degenerate-top holds functions with f(15) ∈ {0, 15}, whose
// coset is all of S₄ (the full walk), and symmetric the members of
// every class of cost ≤ 4 with fewer than 48 members, whose walks
// hold ties. products-pair hands the products to CanonicalPair with
// their inverses, as ExpandRep does. Those cases cycle through 1,024
// inputs, whose branches the predictor learns; products-corpus and
// products-corpus-pair draw from 2^20 distinct 5–6-gate products
// instead, closer to what a build feeds.
func BenchmarkCanonical(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	random := make([]perm.Perm, 1024)
	invs := make([]perm.Perm, 1024)
	products := make([]perm.Perm, 1024)
	for i := range random {
		random[i] = randPerm(rng)
		invs[i] = randInvolution(rng)
		products[i] = randProduct(rng)
	}
	degenerate := make([]perm.Perm, 1024)
	for i := range degenerate {
		degenerate[i] = withTop(randPerm(rng), uint8(15*(i&1)))
	}
	var symmetric []perm.Perm
	for _, r := range classRepsUpTo(b, 4) {
		if ClassSize(r) < MaxClassSize {
			ForEachVariant(r, func(v perm.Perm) bool {
				symmetric = append(symmetric, v)
				return true
			})
		}
	}
	rng.Shuffle(len(symmetric), func(i, j int) { symmetric[i], symmetric[j] = symmetric[j], symmetric[i] })
	for len(symmetric) < 1024 {
		symmetric = append(symmetric, symmetric...)
	}
	for _, tc := range []struct {
		name string
		ps   []perm.Perm
	}{
		{"random", random}, {"involution", invs}, {"products", products},
		{"degenerate-top", degenerate}, {"symmetric", symmetric},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var acc perm.Perm
			for i := 0; i < b.N; i++ {
				r, _, _ := Canonical(tc.ps[i&1023])
				acc ^= r
			}
			_ = acc
		})
	}
	inverses := make([]perm.Perm, len(products))
	for i, p := range products {
		inverses[i] = p.Inverse()
	}
	b.Run("products-pair", func(b *testing.B) {
		b.ReportAllocs()
		var acc perm.Perm
		for i := 0; i < b.N; i++ {
			r, _, _ := CanonicalPair(products[i&1023], inverses[i&1023])
			acc ^= r
		}
		_ = acc
	})
	b.Run("products-corpus", func(b *testing.B) {
		ps, _ := productCorpus()
		b.ReportAllocs()
		b.ResetTimer()
		var acc perm.Perm
		for i := 0; i < b.N; i++ {
			r, _, _ := Canonical(ps[i&(corpusSize-1)])
			acc ^= r
		}
		_ = acc
	})
	b.Run("products-corpus-pair", func(b *testing.B) {
		ps, invs := productCorpus()
		b.ReportAllocs()
		b.ResetTimer()
		var acc perm.Perm
		for i := 0; i < b.N; i++ {
			j := i & (corpusSize - 1)
			r, _, _ := CanonicalPair(ps[j], invs[j])
			acc ^= r
		}
		_ = acc
	})
}

// corpusSize is the number of distinct gate products in productCorpus.
const corpusSize = 1 << 20

// productCorpus returns corpusSize distinct products of 5 or 6 random
// gates, in random order, and their inverses; built once, from a fixed
// seed.
var productCorpus = sync.OnceValues(func() (ps, invs []perm.Perm) {
	rng := rand.New(rand.NewSource(11))
	gates := gate.All()
	ps = make([]perm.Perm, 0, corpusSize+corpusSize/8)
	for len(ps) < corpusSize {
		for len(ps) < cap(ps) {
			p := perm.Identity
			for n := 5 + rng.Intn(2); n > 0; n-- {
				p = p.Then(gates[rng.Intn(len(gates))].Perm())
			}
			ps = append(ps, p)
		}
		slices.Sort(ps)
		ps = slices.Compact(ps)
	}
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	ps = ps[:corpusSize]
	invs = make([]perm.Perm, len(ps))
	for i, p := range ps {
		invs[i] = p.Inverse()
	}
	return ps, invs
})

func BenchmarkClassSize(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	ps := make([]perm.Perm, 256)
	for i := range ps {
		ps[i] = randPerm(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	acc := 0
	for i := 0; i < b.N; i++ {
		acc += ClassSize(ps[i&255])
	}
	_ = acc
}

// The oracle: the plain-changes walk written from its definition. It
// steps through sjt()'s swaps, conjugating by each through a switch and
// tracking the relabeling index through stepTable. The straight-line
// walk must reproduce its (rep, sigma, inverted) and its variant order
// exactly: stored table values pack the witness, and core's scans rely
// on the variant order.

var refSwaps = func() []int {
	_, swaps := sjt()
	return swaps
}()

func conjAdjacent(p perm.Perm, t int) perm.Perm {
	switch t {
	case 0:
		return p.Conj01()
	case 1:
		return p.Conj12()
	case 2:
		return p.Conj23()
	}
	panic("adjacent transposition index out of range")
}

func refCanonical(f perm.Perm) (rep perm.Perm, sigma int, inverted bool) {
	fi := f.Inverse()
	if fi == f {
		rep, sigma = f, 0
		cf := f
		s := 0
		for _, t := range refSwaps {
			cf = conjAdjacent(cf, t)
			s = stepTable[s][t]
			if cf < rep {
				rep, sigma = cf, s
			}
		}
		return rep, sigma, false
	}
	rep, sigma, inverted = f, 0, false
	if fi < rep {
		rep, inverted = fi, true
	}
	cf, cfi := f, fi
	s := 0
	for _, t := range refSwaps {
		cf = conjAdjacent(cf, t)
		cfi = conjAdjacent(cfi, t)
		s = stepTable[s][t]
		if cf < rep {
			rep, sigma, inverted = cf, s, false
		}
		if cfi < rep {
			rep, sigma, inverted = cfi, s, true
		}
	}
	return rep, sigma, inverted
}

func refForEachVariant(f perm.Perm, fn func(perm.Perm) bool) {
	fi := f.Inverse()
	if fi == f {
		if !fn(f) {
			return
		}
		cf := f
		for _, t := range refSwaps {
			cf = conjAdjacent(cf, t)
			if !fn(cf) {
				return
			}
		}
		return
	}
	if !fn(f) || !fn(fi) {
		return
	}
	cf, cfi := f, fi
	for _, t := range refSwaps {
		cf = conjAdjacent(cf, t)
		cfi = conjAdjacent(cfi, t)
		if !fn(cf) || !fn(cfi) {
			return
		}
	}
}

// randProduct composes 1–12 random library gates: the shape of the
// candidates bfs.ExpandRep canonicalizes.
func randProduct(rng *rand.Rand) perm.Perm {
	p := perm.Identity
	for n := 1 + rng.Intn(12); n > 0; n-- {
		p = p.Then(gate.FromIndex(rng.Intn(gate.Count)).Perm())
	}
	return p
}

// classRepsUpTo returns the canonical representatives of every class of
// gate cost ≤ maxCost, found by the oracle: each cost-c class holds a
// cost-(c−1) representative with one more gate on one side.
func classRepsUpTo(t testing.TB, maxCost int) []perm.Perm {
	t.Helper()
	seen := map[perm.Perm]bool{perm.Identity: true}
	frontier := []perm.Perm{perm.Identity}
	all := []perm.Perm{perm.Identity}
	// Paper Table 4, "Reduced Functions" column.
	want := []int{1, 4, 33, 425, 6538}
	for c := 1; c <= maxCost; c++ {
		var next []perm.Perm
		for _, r := range frontier {
			for _, g := range gate.All() {
				for _, f := range []perm.Perm{r.Then(g.Perm()), g.Perm().Then(r)} {
					if rep, _, _ := refCanonical(f); !seen[rep] {
						seen[rep] = true
						next = append(next, rep)
					}
				}
			}
		}
		if len(next) != want[c] {
			t.Fatalf("cost %d: %d classes, want %d", c, len(next), want[c])
		}
		all = append(all, next...)
		frontier = next
	}
	return all
}

// withTop returns p with the values at 15 and at p⁻¹(v) exchanged, so
// that it maps 15 to v.
func withTop(p perm.Perm, v uint8) perm.Perm {
	vals := p.Values()
	for i, x := range vals {
		if x == v {
			vals[i], vals[15] = vals[15], v
		}
	}
	return perm.MustFromValues(vals)
}

// randInvolutionTop returns a random involution that maps 15 to a
// random state of the given popcount (to itself when it is 4): 15's
// pair, then each other state a fixed point or paired with the next.
func randInvolutionTop(rng *rand.Rand, popcount int) perm.Perm {
	var tops, rest []uint8
	for x := uint8(0); x < 15; x++ {
		if bits.OnesCount8(x) == popcount {
			tops = append(tops, x)
		}
	}
	vals := [16]uint8{15: 15}
	if len(tops) > 0 {
		t := tops[rng.Intn(len(tops))]
		vals[15], vals[t] = t, 15
	}
	for x := uint8(0); x < 15; x++ {
		if vals[15] != x {
			rest = append(rest, x)
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for i := 0; i < len(rest); i++ {
		vals[rest[i]] = rest[i]
		if i+1 < len(rest) && rng.Intn(2) == 0 {
			vals[rest[i]], vals[rest[i+1]] = rest[i+1], rest[i]
			i++
		}
	}
	return perm.MustFromValues(vals)
}

// branchesOf names the branches of CanonicalPair that f takes: a top
// nibble (f's or f⁻¹'s) of 0 or 15, whose coset is all of S₄; both
// sides' cosets walked (equal popcounts, not an involution); an
// involution, by the popcount of its top; and a tie, where the least
// word sits at more than one position of the walk.
func branchesOf(f perm.Perm) []string {
	fi := f.Inverse()
	w, wi := bits.OnesCount64(uint64(f>>60)), bits.OnesCount64(uint64(fi>>60))
	var out []string
	if w == 0 || w == 4 {
		out = append(out, "f(15) ∈ {0,15}")
	}
	if wi == 0 || wi == 4 {
		out = append(out, "f⁻¹(15) ∈ {0,15}")
	}
	if w == wi && fi != f && w != 0 && w != 4 {
		out = append(out, "equal popcounts")
	}
	if fi == f {
		out = append(out, fmt.Sprintf("involution, top popcount %d", w))
	}
	rep, _, _ := refCanonical(f)
	ties := 0
	refForEachVariant(f, func(v perm.Perm) bool {
		if v == rep {
			ties++
		}
		return true
	})
	if ties > 1 {
		out = append(out, "tie")
	}
	return out
}

// oraclePopulations are TestCanonicalMatchesOracle's inputs: next(i)
// gives the i-th of n. Besides random functions, involutions, gate
// products and every member of every class of cost ≤ 4 (with its
// inverse), they aim at each branch of CanonicalPair: tops of 0 or 15
// on either side, equal popcounts on both, involutions with each top
// popcount, and every relabeling and inversion of the symmetric classes
// of cost ≤ 4, each of which has a tie.
func oraclePopulations(t testing.TB, rng *rand.Rand, draws int) []population {
	var variants, symmetric []perm.Perm
	for _, r := range classRepsUpTo(t, 4) {
		ForEachVariant(r, func(v perm.Perm) bool {
			variants = append(variants, v, v.Inverse())
			return true
		})
		if ClassSize(r) < MaxClassSize {
			refForEachVariant(r, func(v perm.Perm) bool {
				symmetric = append(symmetric, v)
				return true
			})
		}
	}
	degenerateTop := func(i int) perm.Perm { return withTop(randPerm(rng), uint8(15*(i&1))) }
	return []population{
		{"random", func(int) perm.Perm { return randPerm(rng) }, draws},
		{"involution", func(int) perm.Perm { return randInvolution(rng) }, draws},
		{"product", func(int) perm.Perm { return randProduct(rng) }, draws},
		{"cost≤4 variants", func(i int) perm.Perm { return variants[i] }, len(variants)},
		{"f(15) ∈ {0,15}", degenerateTop, draws / 10},
		{"f⁻¹(15) ∈ {0,15}", func(i int) perm.Perm { return degenerateTop(i).Inverse() }, draws / 10},
		{"equal popcounts", func(int) perm.Perm {
			for {
				f := randPerm(rng)
				w, wi := bits.OnesCount64(uint64(f>>60)), bits.OnesCount64(uint64(f.Inverse()>>60))
				if w == wi && w != 0 && w != 4 {
					return f
				}
			}
		}, draws / 10},
		{"involution by top popcount", func(i int) perm.Perm { return randInvolutionTop(rng, i%5) }, draws / 5},
		{"symmetric cost≤4 walks", func(i int) perm.Perm { return symmetric[i] }, len(symmetric)},
	}
}

type population struct {
	name string
	next func(i int) perm.Perm
	n    int
}

// TestCanonicalMatchesOracle checks the coset walks, through Canonical
// and through CanonicalPair given the inverse, against the oracle on
// over a million inputs, and that every branch of CanonicalPair ran at
// least 10,000 times.
func TestCanonicalMatchesOracle(t *testing.T) {
	const draws, branchFloor = 330_000, 10_000
	total, branches := 0, map[string]int{}
	for _, pop := range oraclePopulations(t, rand.New(rand.NewSource(12)), draws) {
		for i := 0; i < pop.n; i++ {
			f := pop.next(i)
			rep, sigma, inverted := Canonical(f)
			wr, ws, wi := refCanonical(f)
			if rep != wr || sigma != ws || inverted != wi {
				t.Fatalf("%s %v: Canonical = (%v, %d, %v), oracle (%v, %d, %v)",
					pop.name, f, rep, sigma, inverted, wr, ws, wi)
			}
			if pr, ps, pi := CanonicalPair(f, f.Inverse()); pr != wr || ps != ws || pi != wi {
				t.Fatalf("%s %v: CanonicalPair = (%v, %d, %v), oracle (%v, %d, %v)",
					pop.name, f, pr, ps, pi, wr, ws, wi)
			}
			for _, b := range branchesOf(f) {
				branches[b]++
			}
		}
		total += pop.n
	}
	if total < 1_000_000 {
		t.Fatalf("checked %d inputs, want at least a million", total)
	}
	want := []string{"f(15) ∈ {0,15}", "f⁻¹(15) ∈ {0,15}", "equal popcounts", "tie"}
	for w := 0; w <= 4; w++ {
		want = append(want, fmt.Sprintf("involution, top popcount %d", w))
	}
	for _, b := range want {
		if branches[b] < branchFloor {
			t.Errorf("branch %q ran %d times, want at least %d", b, branches[b], branchFloor)
		}
	}
	t.Logf("inputs per branch: %v", branches)
}

// TestForEachVariantMatchesOracle checks the variant sequence against
// the oracle's walk with its later repeats dropped, in full and when fn
// stops at each position, and Class and ClassSize against the same
// distinct members. The inputs include every class of cost ≤ 3, where
// degenerate (symmetric) classes are common.
func TestForEachVariantMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	collect := func(walk func(perm.Perm, func(perm.Perm) bool), f perm.Perm, stop int) []perm.Perm {
		var out []perm.Perm
		walk(f, func(v perm.Perm) bool {
			out = append(out, v)
			return len(out) != stop
		})
		return out
	}
	inputs := classRepsUpTo(t, 3)
	for i := 0; i < 300; i++ {
		inputs = append(inputs, randPerm(rng), randInvolution(rng), randProduct(rng))
	}
	degenerate := 0
	for _, f := range inputs {
		var want []perm.Perm
		for _, v := range collect(refForEachVariant, f, 0) {
			if !slices.Contains(want, v) {
				want = append(want, v)
			}
		}
		if len(want) < MaxClassSize {
			degenerate++
		}
		if n := ClassSize(f); n != len(want) {
			t.Fatalf("%v: ClassSize %d, oracle %d distinct members", f, n, len(want))
		}
		if cls, sorted := Class(f), slices.Sorted(slices.Values(want)); !slices.Equal(cls, sorted) {
			t.Fatalf("%v: Class %v, oracle %v", f, cls, sorted)
		}
		for stop := 0; stop <= len(want); stop++ {
			got := collect(ForEachVariant, f, stop)
			wantN := want
			if stop > 0 {
				wantN = want[:stop]
			}
			if len(got) != len(wantN) {
				t.Fatalf("%v stop %d: %d variants, oracle %d", f, stop, len(got), len(wantN))
			}
			for i := range got {
				if got[i] != wantN[i] {
					t.Fatalf("%v stop %d: variant %d = %v, oracle %v", f, stop, i, got[i], wantN[i])
				}
			}
		}
	}
	if degenerate < 100 {
		t.Fatalf("only %d inputs with a degenerate class, want ≥ 100", degenerate)
	}
}

// TestKernels holds each wire transposition's kernel to the
// conjugation by its shuffle, the adjacent ones to perm's kernels too,
// and the zero kernel to the identity.
func TestKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	adjacent := map[[2]int]func(perm.Perm) perm.Perm{
		{0, 1}: perm.Perm.Conj01, {1, 2}: perm.Perm.Conj12, {2, 3}: perm.Perm.Conj23,
	}
	for trial := 0; trial < 100; trial++ {
		f := randPerm(rng)
		if got := (&kernel{}).conj(f); got != f {
			t.Fatalf("the zero kernel maps %v to %v", f, got)
		}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				sigma := [4]uint8{0, 1, 2, 3}
				sigma[i], sigma[j] = sigma[j], sigma[i]
				g, err := perm.WireShuffle(sigma)
				if err != nil {
					t.Fatal(err)
				}
				k := transposition(i, j)
				got := k.conj(f)
				if want := perm.Conjugate(f, g); got != want {
					t.Fatalf("kernel (%d %d) on %v = %v, conjugation %v", i, j, f, got, want)
				}
				if conj := adjacent[[2]int{i, j}]; conj != nil && conj(f) != got {
					t.Fatalf("kernel (%d %d) on %v = %v, perm's kernel %v", i, j, f, got, conj(f))
				}
			}
		}
	}
}

// TestCosetPlans checks CanonicalPair's plan for each top nibble v:
// its members are exactly the relabelings σ with gσ⁻¹(v) = 2^w − 1
// (w the popcount of v), each once, the 4-member cosets padded only by
// trailing identity steps; each member's recorded position is the one
// walkPos gives it, and its conjugate is the word the plan reaches
// there; the ranks order the positions. For v ∈ {0, 15} the coset is
// all of S₄, which walk sweeps: walkPos must hold every relabeling once.
func TestCosetPlans(t *testing.T) {
	f := randPerm(rand.New(rand.NewSource(17)))
	fi := f.Inverse()
	for v := 0; v < 16; v++ {
		w := bits.OnesCount(uint(v))
		want := map[int]bool{}
		for s := 0; s < SigmaCount; s++ {
			if Shuffle(s).Inverse().Apply(v) == 1<<w-1 {
				want[s] = true
			}
		}
		if v == 0 || v == 15 {
			if len(want) != SigmaCount {
				t.Fatalf("v = %d: %d relabelings keep it, want all %d", v, len(want), SigmaCount)
			}
			for _, s := range walkPos {
				delete(want, s)
			}
			if len(want) != 0 || cosets[v] != (coset{}) {
				t.Fatalf("v = %d: walk misses relabelings %v, or a plan was built", v, want)
			}
			continue
		}
		// Each side's plan is the same: test it on f and on f⁻¹.
		c := &cosets[v]
		if len(want) != map[int]int{1: 6, 2: 4, 3: 6}[w] {
			t.Fatalf("v = %d: coset of %d relabelings", v, len(want))
		}
		if c.top != uint64(1<<w-1)<<60 {
			t.Fatalf("v = %d: top %#x", v, c.top)
		}
		var ranks [6]bool
		for i, r := range c.rank {
			if r >= 6 || ranks[r] {
				t.Fatalf("v = %d: rank %v is not a permutation of 0…5", v, c.rank)
			}
			ranks[r] = true
			if i > 0 && c.at[i-1] > c.at[i] {
				t.Fatalf("v = %d: positions %v not ascending", v, c.at[:6])
			}
		}
		for _, side := range []perm.Perm{f, fi} {
			visited := map[int]int{}
			x := c.reach[1].conj(c.reach[0].conj(side))
			for i := 0; i <= len(c.walk); i++ {
				padding := i > 0 && c.walk[i-1] == (kernel{})
				if i > 0 {
					x = c.walk[i-1].conj(x)
				}
				at := c.at[c.rank[i]]
				s := walkPos[at>>1]
				if at&1 != 0 || x != perm.Conjugate(side, Shuffle(s)) {
					t.Fatalf("v = %d step %d: word %v, recorded position %d (σ%d) gives %v",
						v, i, x, at, s, perm.Conjugate(side, Shuffle(s)))
				}
				if !padding {
					visited[s]++
				} else if i < len(want) {
					t.Fatalf("v = %d: identity step %d before the coset's %d members", v, i, len(want))
				}
			}
			if len(visited) != len(want) {
				t.Fatalf("v = %d: plan visits %d relabelings, coset has %d", v, len(visited), len(want))
			}
			for s, n := range visited {
				if !want[s] || n != 1 {
					t.Fatalf("v = %d: σ%d visited %d times, in the coset: %v", v, s, n, want[s])
				}
			}
		}
	}
}

// TestWalkMatchesPlainChanges is the drift check on the hard-coded
// walk: its period-8 kernel order, repeated three times with the last
// step dropped, must be sjt()'s swap sequence; walkPos must be the
// stepTable chain along it; and the walk's n-th conjugate must be the
// conjugate by Shuffle(walkPos[n]).
func TestWalkMatchesPlainChanges(t *testing.T) {
	period := [8]int{2, 1, 0, 2, 0, 1, 2, 0} // 0 = Conj01, 1 = Conj12, 2 = Conj23
	if len(refSwaps) != 3*len(period)-1 {
		t.Fatalf("sjt() gives %d swaps, want %d", len(refSwaps), 3*len(period)-1)
	}
	s := 0
	for n, sw := range refSwaps {
		if sw != period[n%len(period)] {
			t.Fatalf("swap %d: sjt() says %d, the walk uses %d", n, sw, period[n%len(period)])
		}
		s = stepTable[s][sw]
		if walkPos[n+1] != s {
			t.Fatalf("walkPos[%d] = %d, stepTable chain %d", n+1, walkPos[n+1], s)
		}
	}
	if walkPos[0] != 0 {
		t.Fatalf("walkPos[0] = %d, want the identity", walkPos[0])
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 100; trial++ {
		f := randPerm(rng)
		if f.Inverse() == f {
			continue
		}
		n := 0
		ForEachVariant(f, func(v perm.Perm) bool {
			base := f
			if n%2 == 1 {
				base = f.Inverse()
			}
			if want := perm.Conjugate(base, Shuffle(walkPos[n/2])); v != want {
				t.Fatalf("variant %d of %v is %v, want the conjugate by σ%d %v", n, f, v, walkPos[n/2], want)
			}
			n++
			return true
		})
	}
}
