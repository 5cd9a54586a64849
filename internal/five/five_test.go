package five

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/benchfuncs"
	"repro/internal/core"
)

func randPerm5(rng *rand.Rand) Perm {
	p := Identity()
	for i := Size - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func TestGateCensus(t *testing.T) {
	counts := map[int]int{}
	for _, g := range All() {
		counts[popcount5(g.Controls)]++
	}
	want := map[int]int{0: 5, 1: 20, 2: 30, 3: 20, 4: 5}
	for nc, n := range want {
		if counts[nc] != n {
			t.Errorf("%d-control gates: %d, want %d", nc, counts[nc], n)
		}
	}
}

func TestPermLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		p, q := randPerm5(rng), randPerm5(rng)
		if !p.IsValid() {
			t.Fatal("random permutation invalid")
		}
		if p.Then(p.Inverse()) != Identity() {
			t.Fatal("inverse law failed")
		}
		if p.Then(q).Inverse() != q.Inverse().Then(p.Inverse()) {
			t.Fatal("anti-homomorphism failed")
		}
	}
}

func TestGatesAreInvolutions(t *testing.T) {
	for _, g := range All() {
		if g.Perm().Then(g.Perm()) != Identity() {
			t.Errorf("%v is not an involution", g)
		}
	}
}

func TestGateStrings(t *testing.T) {
	g := Gate{Target: 4, Controls: 0b01111}
	if got := g.String(); got != "TOF5(a,b,c,d,e)" {
		t.Errorf("String = %q", got)
	}
	g = Gate{Target: 0, Controls: 0b10000}
	if got := g.String(); got != "CNOT(e,a)" {
		t.Errorf("String = %q", got)
	}
}

func TestCanonicalWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		f := randPerm5(rng)
		rep, sigma, inverted := Canonical(f)
		base := f
		if inverted {
			base = f.Inverse()
		}
		if got := Conjugate(base, Shuffle(sigma)); got != rep {
			t.Fatalf("witness failed: conj(base,σ%d) ≠ rep", sigma)
		}
		// Class invariance.
		if r2, _, _ := Canonical(f.Inverse()); r2 != rep {
			t.Fatal("Canonical(f⁻¹) differs")
		}
		s := rng.Intn(SigmaCount)
		if r3, _, _ := Canonical(Conjugate(f, Shuffle(s))); r3 != rep {
			t.Fatal("Canonical of conjugate differs")
		}
	}
}

func TestClassSizeDivides240(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := ClassSize(randPerm5(rng))
		if n < 1 || n > 240 || 240%n != 0 {
			t.Fatalf("class size %d does not divide 240", n)
		}
	}
	if ClassSize(Identity()) != 1 {
		t.Fatal("identity class not a singleton")
	}
}

var (
	fiveOnce    sync.Once
	fullK2      *Result
	fullK3      *Result
	reducedK3   *Result
	fiveBuilder error
)

func fixtures(t testing.TB) (*Result, *Result, *Result) {
	fiveOnce.Do(func() {
		fullK2, fiveBuilder = Search(2, false, nil)
		if fiveBuilder != nil {
			return
		}
		fullK3, fiveBuilder = Search(3, false, nil)
		if fiveBuilder != nil {
			return
		}
		reducedK3, fiveBuilder = Search(3, true, nil)
	})
	if fiveBuilder != nil {
		t.Fatal(fiveBuilder)
	}
	return fullK2, fullK3, reducedK3
}

func TestLevelOneCounts(t *testing.T) {
	full, _, reduced := fixtures(t)
	if got := len(full.Levels[1]); got != GateCount {
		t.Fatalf("full size-1 count = %d, want %d", got, GateCount)
	}
	// The 80 gates form 5 classes: one per control count.
	if got := len(reduced.Levels[1]); got != 5 {
		t.Fatalf("reduced size-1 count = %d, want 5", got)
	}
}

func TestReducedAccountsForFull(t *testing.T) {
	_, full, reduced := fixtures(t)
	for c := 0; c <= 3; c++ {
		var viaClasses int
		for _, rep := range reduced.Levels[c] {
			viaClasses += ClassSize(rep)
		}
		if viaClasses != len(full.Levels[c]) {
			t.Fatalf("size %d: class sizes sum to %d, full count %d",
				c, viaClasses, len(full.Levels[c]))
		}
	}
	t.Logf("5-bit census: full %v, reduced %v", full.LevelCensus(), reduced.LevelCensus())
}

func TestSizeOfAgreesAcrossModes(t *testing.T) {
	_, full, reduced := fixtures(t)
	rng := rand.New(rand.NewSource(4))
	for c := 0; c <= 3; c++ {
		lvl := full.Levels[c]
		for trial := 0; trial < 30 && trial < len(lvl); trial++ {
			f := lvl[rng.Intn(len(lvl))]
			a, okA := full.SizeOf(f)
			b, okB := reduced.SizeOf(f)
			if !okA || !okB || a != c || b != c {
				t.Fatalf("size disagreement at %d: full=%d,%v reduced=%d,%v", c, a, okA, b, okB)
			}
		}
	}
}

func TestSynthesizeWithinHorizon(t *testing.T) {
	_, full, reduced := fixtures(t)
	rng := rand.New(rand.NewSource(5))
	for c := 0; c <= 3; c++ {
		lvl := full.Levels[c]
		for trial := 0; trial < 20 && trial < len(lvl); trial++ {
			f := lvl[rng.Intn(len(lvl))]
			circ, err := full.Synthesize(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(circ) != c || circ.Perm() != f {
				t.Fatalf("full synthesis wrong at size %d: %v", c, circ)
			}
			circ, err = reduced.Synthesize(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(circ) != c || circ.Perm() != f {
				t.Fatalf("reduced synthesis wrong at size %d: %v (len %d)", c, circ, len(circ))
			}
		}
	}
}

func TestMITMBeyondK(t *testing.T) {
	full, _, _ := fixtures(t) // K=2, horizon 4
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 15; trial++ {
		// Random 4-gate witnesses: optimal ≤ 4, must implement f.
		var c Circuit
		for i := 0; i < 4; i++ {
			c = append(c, All()[rng.Intn(GateCount)])
		}
		f := c.Perm()
		got, err := full.Synthesize(f)
		if err != nil {
			t.Fatal(err)
		}
		if got.Perm() != f {
			t.Fatal("MITM synthesis wrong")
		}
		if len(got) > 4 {
			t.Fatalf("optimal %d exceeds witness 4", len(got))
		}
	}
}

func TestEmbedded4BitFunctionsKeepTheirOptima(t *testing.T) {
	// A 4-bit function embedded on 5 wires can only get easier (the
	// spare wire is a potential ancilla); it must never get harder. For
	// small sizes the optima coincide.
	_, full, _ := fixtures(t) // horizon 6
	synth4, err := core.New(core.Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for c := 0; c <= 3; c++ {
		lvl := synth4.Result().Level(c)
		for trial := 0; trial < 10 && trial < lvl.Len(); trial++ {
			f4 := lvl.At(rng.Intn(lvl.Len()))
			f5 := Embed4(f4.Values())
			got, err := full.Synthesize(f5)
			if err != nil {
				t.Fatalf("size %d embed: %v", c, err)
			}
			if got.Perm() != f5 {
				t.Fatal("embedded synthesis wrong")
			}
			if len(got) > c {
				t.Fatalf("embedding made a size-%d function cost %d", c, len(got))
			}
			if len(got) < c {
				t.Fatalf("ancilla wire shortened a size-%d function to %d — remarkable but wrong at this size", c, len(got))
			}
		}
	}
}

func TestShift5(t *testing.T) {
	// The 5-bit cyclic shift x ↦ x+1 mod 32: the 5-bit analogue of
	// shift4 (size 4 there); its natural construction is the 5-gate
	// carry chain, proved optimal here via MITM at horizon 6.
	var shift Perm
	for x := 0; x < Size; x++ {
		shift[x] = uint8((x + 1) % Size)
	}
	_, full, _ := fixtures(t)
	c, err := full.Synthesize(shift)
	if err != nil {
		t.Fatal(err)
	}
	if c.Perm() != shift {
		t.Fatal("shift5 synthesis wrong")
	}
	if len(c) != 5 {
		t.Fatalf("shift5 optimal = %d gates, want 5 (TOF5 TOF4 TOF CNOT NOT chain)", len(c))
	}
}

func TestBenchfuncsEmbedBeyondHorizonFail(t *testing.T) {
	// hwb4 embedded needs 11 gates; the K=3 horizon is 6 — must error,
	// not mis-answer.
	bm, _ := benchfuncs.ByName("hwb4")
	_, full, _ := fixtures(t)
	if _, err := full.Synthesize(Embed4(bm.Spec.Values())); err == nil {
		t.Fatal("beyond-horizon embedded function synthesized")
	}
}

func TestSearchValidation(t *testing.T) {
	if _, err := Search(-1, false, nil); err == nil {
		t.Error("negative horizon accepted")
	}
	if _, err := Search(9, false, nil); err == nil {
		t.Error("oversized horizon accepted")
	}
}

func BenchmarkCanonical5(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	ps := make([]Perm, 64)
	for i := range ps {
		ps[i] = randPerm5(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Canonical(ps[i&63])
	}
}

func BenchmarkSearchK2Reduced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Search(2, true, nil); err != nil {
			b.Fatal(err)
		}
	}
}
