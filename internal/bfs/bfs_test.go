package bfs

import (
	"math/rand"
	"testing"

	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/perm"
	"repro/internal/randperm"
)

func TestGateAlphabetBasics(t *testing.T) {
	a := GateAlphabet()
	if a.Len() != gate.Count {
		t.Fatalf("gate alphabet has %d elements, want %d", a.Len(), gate.Count)
	}
	for i := 0; i < a.Len(); i++ {
		e := a.Element(i)
		if e.P != gate.FromIndex(i).Perm() {
			t.Fatalf("element %d permutation mismatch", i)
		}
		if e.Cost != 1 || len(e.Gates) != 1 {
			t.Fatalf("element %d not a unit-cost single gate", i)
		}
	}
}

func TestConjugateElementMatchesCanon(t *testing.T) {
	a := GateAlphabet()
	for s := 0; s < canon.SigmaCount; s++ {
		for i := 0; i < a.Len(); i++ {
			want := canon.ConjugateGate(gate.FromIndex(i), s).Index()
			if got := a.ConjugateElement(i, s); got != want {
				t.Fatalf("ConjugateElement(%d, σ%d) = %d, want %d", i, s, got, want)
			}
		}
	}
}

func TestAlphabetValidation(t *testing.T) {
	g := gate.MustParse("NOT(a)")
	good := Element{P: g.Perm(), Gates: []gate.Gate{g}, Cost: 1}
	if _, err := NewAlphabet(nil); err == nil {
		t.Error("accepted empty alphabet")
	}
	if _, err := NewAlphabet([]Element{good, good}); err == nil {
		t.Error("accepted duplicate elements")
	}
	if _, err := NewAlphabet([]Element{{P: perm.Identity, Cost: 1}}); err == nil {
		t.Error("accepted identity element")
	}
	if _, err := NewAlphabet([]Element{{P: good.P, Gates: good.Gates, Cost: 0}}); err == nil {
		t.Error("accepted zero cost")
	}
	// A 3-cycle on states 0,1,2 is a valid permutation but not an involution.
	var vals [16]uint8
	for i := range vals {
		vals[i] = uint8(i)
	}
	vals[0], vals[1], vals[2] = 1, 2, 0
	cyc := perm.MustFromValues(vals)
	if _, err := NewAlphabet([]Element{{P: cyc, Cost: 1}}); err == nil {
		t.Error("accepted non-involution")
	}
	// Gate list not realizing the permutation.
	if _, err := NewAlphabet([]Element{{P: good.P, Gates: []gate.Gate{gate.MustParse("NOT(b)")}, Cost: 1}}); err == nil {
		t.Error("accepted inconsistent gate list")
	}
	// Not closed under relabeling: NOT(a) alone (its conjugates are the
	// other NOTs). Accepted, but flagged unreducible.
	single, err := NewAlphabet([]Element{good})
	if err != nil {
		t.Errorf("non-closed alphabet rejected outright: %v", err)
	} else if single.Relabelable() {
		t.Error("non-closed alphabet reported relabelable")
	}
	if GateAlphabet().Relabelable() != true {
		t.Error("gate alphabet must be relabelable")
	}
}

func TestNonRelabelableAlphabetRequiresNoReduction(t *testing.T) {
	lnn := LNNAlphabet()
	if lnn.Relabelable() {
		t.Fatal("LNN alphabet reported relabelable")
	}
	if _, err := Search(lnn, 3, nil); err == nil {
		t.Fatal("reduced search over LNN alphabet accepted")
	}
	if _, err := Search(lnn, 3, &Options{NoReduction: true}); err != nil {
		t.Fatalf("unreduced LNN search failed: %v", err)
	}
}

func TestLNNAlphabet(t *testing.T) {
	lnn := LNNAlphabet()
	if lnn.Len() != 20 {
		t.Fatalf("LNN alphabet has %d gates, want 20 (4 NOT + 6 CNOT + 6 TOF + 4 TOF4)", lnn.Len())
	}
	for i := 0; i < lnn.Len(); i++ {
		g := lnn.Element(i).Gates[0]
		if !contiguous(g.Support()) {
			t.Fatalf("gate %v has non-contiguous support", g)
		}
	}
	// CNOT(d,a) spans all four wires and must be excluded.
	for i := 0; i < lnn.Len(); i++ {
		if lnn.Element(i).Gates[0] == gate.MustParse("CNOT(d,a)") {
			t.Fatal("non-adjacent CNOT in LNN alphabet")
		}
	}
}

func TestLNNCostsDominateUnrestricted(t *testing.T) {
	// Every function reachable in the LNN architecture costs at least as
	// much there as with the unrestricted library, and the non-adjacent
	// CNOT(d,a) costs strictly more (it must be routed).
	lnn, err := Search(LNNAlphabet(), 4, &Options{NoReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	free, err := Search(GateAlphabet(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for c := 0; c <= 4; c++ {
		lvl := lnn.Level(c)
		for i := 0; i < lvl.Len(); i++ {
			f := lvl.At(i)
			if fc, ok := free.CostOf(f); ok {
				if fc > c {
					t.Fatalf("unrestricted cost %d exceeds LNN cost %d for %v", fc, c, f)
				}
				checked++
			}
		}
		if checked > 2000 {
			break
		}
	}
	// The distance-2 CNOT(c,a) costs 1 unrestricted but needs routing on
	// the line: the classic construction is 4 adjacent CNOTs.
	far := gate.MustParse("CNOT(c,a)").Perm()
	lc, ok := lnn.CostOf(far)
	if !ok {
		t.Fatal("CNOT(c,a) unreachable at LNN cost ≤ 4")
	}
	if lc != 4 {
		t.Fatalf("CNOT(c,a) LNN cost %d, want 4 (adjacent-CNOT routing)", lc)
	}
}

// TestPaperHeadlineCircuitCount validates the paper's abstract-level
// claim: "117,798,040,190 optimal circuits with up to 9 gates" is
// exactly the sum of Table 4's exact rows.
func TestPaperHeadlineCircuitCount(t *testing.T) {
	var total int64
	for _, c := range GateFullCounts {
		total += c
	}
	if total != 117798040190 {
		t.Fatalf("sum of Table 4 rows = %d, want the paper's 117,798,040,190", total)
	}
}

// TestPaperClaim48FoldReduction: "the cumulative improvement ... is by a
// factor of almost 2 × 24 = 48. Due to symmetries, the actual number is
// slightly less" (§3).
func TestPaperClaim48FoldReduction(t *testing.T) {
	for c := 4; c <= 5; c++ {
		ratio := float64(GateFullCounts[c]) / float64(GateReducedCounts[c])
		if ratio < 45 || ratio >= 48 {
			t.Errorf("size-%d reduction factor %.2f outside (45,48)", c, ratio)
		}
	}
}

func TestValueEncoding(t *testing.T) {
	for _, cost := range []int{0, 1, 9, MaxPackedCost} {
		for _, elem := range []int{0, 1, 31, 102, MaxElements - 1} {
			for _, first := range []bool{false, true} {
				v := UnpackValue(PackValue(cost, elem, first))
				if v.Elem != elem || v.First != first || v.Cost != cost || v.IsIdentity {
					t.Fatalf("pack/unpack(%d, %d, %v) = %+v", cost, elem, first, v)
				}
			}
		}
	}
	if v := UnpackValue(PackIdentity()); !v.IsIdentity || v.Cost != 0 {
		t.Fatal("identity value not recognized")
	}
}

// TestReducedLevelCountsMatchPaperTable4 is the central BFS validation:
// the class counts per size must reproduce the paper's Table 4 "Reduced
// Functions" column exactly.
func TestReducedLevelCountsMatchPaperTable4(t *testing.T) {
	k := 5
	res, err := Search(GateAlphabet(), k, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c <= k; c++ {
		if got, want := int64(res.ReducedCount(c)), GateReducedCounts[c]; got != want {
			t.Errorf("reduced count at size %d = %d, want %d (paper Table 4)", c, got, want)
		}
	}
}

// TestFullCountsMatchPaperTable4 validates the "Functions" column via
// class-size accounting.
func TestFullCountsMatchPaperTable4(t *testing.T) {
	k := 4
	res, err := Search(GateAlphabet(), k, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c <= k; c++ {
		if got, want := res.FullCount(c), GateFullCounts[c]; got != want {
			t.Errorf("full count at size %d = %d, want %d (paper Table 4)", c, got, want)
		}
	}
}

// TestFullCountScheduleInvariance proves the parallel per-level
// ClassSize sum is byte-identical across worker counts: int64 addition
// is exact, so any chunking/schedule must reproduce the Workers = 1 sum
// — and the paper Table 4 value — bit for bit. The k = 5 top level has
// 101,983 classes, well past the inline threshold, so Workers = 2 and 8
// genuinely exercise the chunked pool.
func TestFullCountScheduleInvariance(t *testing.T) {
	k := 5
	res, err := Search(GateAlphabet(), k, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c <= k; c++ {
		want := res.FullCountWorkers(c, 1)
		if want != GateFullCounts[c] {
			t.Errorf("sequential full count at size %d = %d, want %d (paper Table 4)", c, want, GateFullCounts[c])
		}
		for _, workers := range []int{2, 8} {
			if got := res.FullCountWorkers(c, workers); got != want {
				t.Errorf("full count at size %d with %d workers = %d, want %d", c, workers, got, want)
			}
		}
		if got := res.FullCount(c); got != want {
			t.Errorf("default-workers full count at size %d = %d, want %d", c, got, want)
		}
	}
}

// TestUnreducedMatchesReducedFullCounts cross-checks the two modes: the
// ablation (no ÷48 reduction) must enumerate exactly the functions the
// reduced search accounts for through class sizes.
func TestUnreducedMatchesReducedFullCounts(t *testing.T) {
	k := 4
	plain, err := Search(GateAlphabet(), k, &Options{NoReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c <= k; c++ {
		if got, want := int64(plain.ReducedCount(c)), GateFullCounts[c]; got != want {
			t.Errorf("unreduced count at size %d = %d, want %d", c, got, want)
		}
	}
}

func TestLevelSix(t *testing.T) {
	if testing.Short() {
		t.Skip("level-6 BFS in -short mode")
	}
	res, err := Search(GateAlphabet(), 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int64(res.ReducedCount(6)), GateReducedCounts[6]; got != want {
		t.Errorf("reduced count at size 6 = %d, want %d", got, want)
	}
}

func TestCostOfAgreesWithLevels(t *testing.T) {
	res, err := Search(GateAlphabet(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for c := 0; c <= 4; c++ {
		lvl := res.Level(c)
		for trial := 0; trial < 50 && trial < lvl.Len(); trial++ {
			rep := lvl.At(rng.Intn(lvl.Len()))
			got, ok := res.CostOf(rep)
			if !ok || got != c {
				t.Fatalf("CostOf(level-%d rep) = %d,%v", c, got, ok)
			}
			// Any class member has the same size.
			cls := canon.Class(rep)
			member := cls[rng.Intn(len(cls))]
			got, ok = res.CostOf(member)
			if !ok || got != c {
				t.Fatalf("CostOf(class member of level-%d rep) = %d,%v", c, got, ok)
			}
		}
	}
}

func TestContainsRespectsHorizon(t *testing.T) {
	res, err := Search(GateAlphabet(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contains(perm.Identity) {
		t.Fatal("identity missing")
	}
	two := circuit.MustParse("TOF(a,b,c) CNOT(c,d)").Perm()
	if !res.Contains(two) {
		t.Fatal("size-2 function missing at horizon 2")
	}
	// hwb4 requires 11 gates (paper Table 6, proved optimal): far beyond
	// horizon 2.
	hwb4, _ := perm.Parse("[0,2,4,12,8,5,9,11,1,6,10,13,3,14,7,15]")
	if res.Contains(hwb4) {
		t.Fatal("hwb4 reported within horizon 2")
	}
	if _, ok := res.CostOf(hwb4); ok {
		t.Fatal("CostOf(hwb4) reported a cost at horizon 2")
	}
}

func TestLinearAlphabetExhaustsAffineGroup(t *testing.T) {
	// Paper §4.3 / Table 5 — exact: BFS over NOT/CNOT closes at size 10
	// with exactly 322,560 functions in the published distribution.
	a := LinearAlphabet()
	if a.Len() != 16 {
		t.Fatalf("linear alphabet has %d elements, want 16", a.Len())
	}
	res, err := Search(a, 11, &Options{NoReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for c := 0; c <= 10; c++ {
		got := int64(res.ReducedCount(c))
		if got != LinearCounts[c] {
			t.Errorf("linear count at size %d = %d, want %d (paper Table 5)", c, got, LinearCounts[c])
		}
		total += got
	}
	if total != 322560 {
		t.Errorf("total linear functions = %d, want 322560", total)
	}
	if got := res.ReducedCount(11); got != 0 {
		t.Errorf("size-11 linear functions = %d, want 0 (group closed at 10)", got)
	}
}

func TestLinearReducedAccountsForSameFunctions(t *testing.T) {
	res, err := Search(LinearAlphabet(), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c <= 10; c++ {
		if got, want := res.FullCount(c), LinearCounts[c]; got != want {
			t.Errorf("reduced linear search accounts for %d functions at size %d, want %d", got, c, want)
		}
	}
}

func TestWeightedSearchQuantumCost(t *testing.T) {
	a, err := WeightedGateAlphabet(gate.Gate.QuantumCost)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxCost() != 13 {
		t.Fatalf("max gate cost = %d, want 13 (TOF4)", a.MaxCost())
	}
	res, err := Search(a, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		circ string
		cost int
	}{
		{"NOT(a)", 1},
		{"CNOT(a,b)", 1},
		{"NOT(a) CNOT(a,b)", 2},
		{"TOF(a,b,c)", 5},
		{"TOF(a,b,c) NOT(d)", 6},
	}
	for _, c := range cases {
		f := circuit.MustParse(c.circ).Perm()
		got, ok := res.CostOf(f)
		if !ok || got != c.cost {
			t.Errorf("quantum CostOf(%s) = %d,%v; want %d", c.circ, got, ok, c.cost)
		}
	}
	// Some unit-cost levels between 2 and 4 must be populated while no
	// TOF-bearing function can appear below cost 5.
	tof := gate.MustParse("TOF(a,b,c)").Perm()
	for c := 1; c < 5; c++ {
		lvl := res.Level(c)
		for i := 0; i < lvl.Len(); i++ {
			if lvl.At(i) == canon.Rep(tof) {
				t.Fatalf("TOF class appeared at cost %d", c)
			}
		}
	}
}

func TestLayerAlphabet(t *testing.T) {
	a := LayerAlphabet()
	if a.Len() != 103 {
		t.Fatalf("layer alphabet has %d elements, want 103", a.Len())
	}
	for i := 0; i < a.Len(); i++ {
		e := a.Element(i)
		var used uint8
		for _, g := range e.Gates {
			if used&g.Support() != 0 {
				t.Fatalf("layer %d has overlapping gates: %s", i, e.Name())
			}
			used |= g.Support()
		}
	}
}

func TestDepthSearch(t *testing.T) {
	res, err := Search(LayerAlphabet(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		circ  string
		depth int
	}{
		{"NOT(a)", 1},
		{"NOT(a) CNOT(b,c)", 1}, // the paper's single-step example
		{"NOT(a) NOT(b) NOT(c) NOT(d)", 1},
		{"CNOT(a,b) CNOT(b,a)", 2},
		{"TOF4(a,b,c,d)", 1},
	}
	for _, c := range cases {
		f := circuit.MustParse(c.circ).Perm()
		got, ok := res.CostOf(f)
		if !ok || got != c.depth {
			t.Errorf("depth CostOf(%s) = %d,%v; want %d", c.circ, got, ok, c.depth)
		}
	}
	// Depth levels must dominate gate-count levels: more functions fit in
	// d layers than in d single gates.
	gates, err := Search(GateAlphabet(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= 3; c++ {
		if res.TotalStored() < gates.TotalStored() && c == 3 {
			t.Errorf("depth-%d search stored %d < gate search %d", c, res.TotalStored(), gates.TotalStored())
		}
	}
}

func TestProgressCallback(t *testing.T) {
	var levels []int
	_, err := Search(GateAlphabet(), 3, &Options{Progress: func(level, reps int) {
		levels = append(levels, level)
		if reps <= 0 {
			t.Errorf("level %d reported %d reps", level, reps)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 || levels[0] != 1 || levels[2] != 3 {
		t.Fatalf("progress callback saw levels %v", levels)
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := Search(nil, 3, nil); err == nil {
		t.Error("accepted nil alphabet")
	}
	if _, err := Search(GateAlphabet(), -1, nil); err == nil {
		t.Error("accepted negative horizon")
	}
}

func TestCumulativeGateReduced(t *testing.T) {
	if got := CumulativeGateReduced(0); got != 1 {
		t.Errorf("cumulative(0) = %d", got)
	}
	if got := CumulativeGateReduced(3); got != 1+4+33+425 {
		t.Errorf("cumulative(3) = %d", got)
	}
}

func BenchmarkSearchK4(b *testing.B) {
	a := GateAlphabet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Search(a, 4, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestElementProducts: the gate word operations ExpandRep composes with
// must agree with the general composition and inversion for every
// element of every built-in alphabet, over random bases.
func TestElementProducts(t *testing.T) {
	quantum, err := WeightedGateAlphabet(gate.Gate.QuantumCost)
	if err != nil {
		t.Fatal(err)
	}
	g := randperm.New(17)
	bases := append(g.Sample(10000), perm.Identity)
	for _, tc := range []struct {
		name string
		a    *Alphabet
	}{
		{"gates", GateAlphabet()},
		{"weighted", quantum},
		{"linear", LinearAlphabet()},
		{"layers", LayerAlphabet()},
		{"lnn", LNNAlphabet()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, base := range bases {
				bi := base.Inverse()
				for i := 0; i < tc.a.Len(); i++ {
					want := base.Then(tc.a.Element(i).P)
					if got := tc.a.then(base, i); got != want {
						t.Fatalf("element %d (%s) after %v: %v, want %v", i, tc.a.Element(i).Name(), base, got, want)
					}
					if got := tc.a.inverseThen(bi, i); got != want.Inverse() {
						t.Fatalf("element %d (%s) after %v, inverse: %v, want %v", i, tc.a.Element(i).Name(), base, got, want.Inverse())
					}
				}
			}
		})
	}
}

// countSink counts the candidates of an expansion and folds their keys.
type countSink struct {
	n   int
	acc uint64
}

func (s *countSink) Candidate(key uint64, _ uint16, _ uint64) {
	s.n++
	s.acc ^= key
}

// BenchmarkCanonicalizeExpansion times the build's inner loop as the
// build runs it: ExpandRep composes a level-3 representative (and its
// inverse) with all 32 gates and canonicalizes every product, which
// walks one or two cosets of 4–6 relabelings, or all 48 members when a
// top nibble is 0 or 15. ns/cand is the cost of one candidate: about
// 111 ns, against 179 when every product walked all 48 members
// (2-vCPU x86-64 Xeon host, medians of 6 alternating runs).
func BenchmarkCanonicalizeExpansion(b *testing.B) {
	a := GateAlphabet()
	res, err := Search(a, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	reps := res.Level(3)
	_, groups := CostGroups(a)
	sink := &countSink{}
	i := 0
	for b.Loop() {
		ExpandRep(a, reps.At(i%reps.Len()), groups[1], 4, true, 0, sink)
		i++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sink.n), "ns/cand")
}
