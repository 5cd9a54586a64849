package canon

import (
	"math/rand"
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
	count := 0
	ForEachVariant(perm.Identity, func(perm.Perm) bool {
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
		// The walk must visit the whole class in half the kernel count.
		count, seen := 0, map[perm.Perm]bool{}
		ForEachVariant(f, func(v perm.Perm) bool {
			count++
			seen[v] = true
			return true
		})
		if count != SigmaCount {
			t.Fatalf("involution variant walk yielded %d values, want %d", count, SigmaCount)
		}
		if len(seen) != ClassSize(f) {
			t.Fatalf("involution walk covered %d distinct, class size %d", len(seen), ClassSize(f))
		}
	}
}

// BenchmarkCanonical isolates the canonicalization kernel on the input
// populations the BFS inner loop sees: general functions (one
// inversion, 46 conjugation kernels), involutions, where the inverse
// sweep is skipped and the kernel count halves, and products of 1–12
// gates, the shape bfs.ExpandRep feeds.
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
	for _, tc := range []struct {
		name string
		ps   []perm.Perm
	}{{"random", random}, {"involution", invs}, {"products", products}} {
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
}

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
func classRepsUpTo(t *testing.T, maxCost int) []perm.Perm {
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

// TestCanonicalMatchesOracle checks the walk against the oracle on over
// a million inputs from four populations.
func TestCanonicalMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var variants []perm.Perm
	for _, r := range classRepsUpTo(t, 4) {
		ForEachVariant(r, func(v perm.Perm) bool {
			variants = append(variants, v, v.Inverse())
			return true
		})
	}
	const draws = 330_000
	populations := []struct {
		name string
		next func(i int) perm.Perm
		n    int
	}{
		{"random", func(int) perm.Perm { return randPerm(rng) }, draws},
		{"involution", func(int) perm.Perm { return randInvolution(rng) }, draws},
		{"product", func(int) perm.Perm { return randProduct(rng) }, draws},
		{"cost≤4 variants", func(i int) perm.Perm { return variants[i] }, len(variants)},
	}
	total := 0
	for _, pop := range populations {
		for i := 0; i < pop.n; i++ {
			f := pop.next(i)
			rep, sigma, inverted := Canonical(f)
			wr, ws, wi := refCanonical(f)
			if rep != wr || sigma != ws || inverted != wi {
				t.Fatalf("%s %v: Canonical = (%v, %d, %v), oracle (%v, %d, %v)",
					pop.name, f, rep, sigma, inverted, wr, ws, wi)
			}
		}
		total += pop.n
	}
	if total < 1_000_000 {
		t.Fatalf("checked %d inputs, want at least a million", total)
	}
}

// TestForEachVariantMatchesOracle checks the variant sequence against
// the oracle, in full and when fn stops at each position.
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
	inputs := []perm.Perm{perm.Identity}
	for i := 0; i < 300; i++ {
		inputs = append(inputs, randPerm(rng), randInvolution(rng), randProduct(rng))
	}
	for _, f := range inputs {
		want := collect(refForEachVariant, f, 0)
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
