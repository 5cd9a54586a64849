package heuristic

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/benchfuncs"
	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/randperm"
)

func TestIdentity(t *testing.T) {
	c, err := Synthesize(perm.Identity)
	if err != nil || len(c) != 0 {
		t.Fatalf("identity: %v, %v", c, err)
	}
	c, err = SynthesizeBidirectional(perm.Identity)
	if err != nil || len(c) != 0 {
		t.Fatalf("identity (bidir): %v, %v", c, err)
	}
}

func TestInvalidRejected(t *testing.T) {
	if _, err := Synthesize(perm.Perm(0)); err == nil {
		t.Fatal("invalid input accepted")
	}
	if _, err := SynthesizeBidirectional(perm.Perm(0)); err == nil {
		t.Fatal("invalid input accepted (bidir)")
	}
}

func TestCorrectOnRandomPermutations(t *testing.T) {
	gen := randperm.New(1)
	for trial := 0; trial < 3000; trial++ {
		f := gen.Next()
		c, err := Synthesize(f)
		if err != nil {
			t.Fatal(err)
		}
		if c.Perm() != f {
			t.Fatalf("unidirectional synthesis wrong for %v", f)
		}
		if len(c) > WorstCaseBound {
			t.Fatalf("length %d exceeds worst-case bound", len(c))
		}
		b, err := SynthesizeBidirectional(f)
		if err != nil {
			t.Fatal(err)
		}
		if b.Perm() != f {
			t.Fatalf("bidirectional synthesis wrong for %v", f)
		}
	}
}

func TestCorrectOnAllBenchmarks(t *testing.T) {
	for _, bm := range benchfuncs.All() {
		c, err := Synthesize(bm.Spec)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		if c.Perm() != bm.Spec {
			t.Fatalf("%s: wrong function", bm.Name)
		}
		if len(c) < bm.OptimalSize {
			t.Fatalf("%s: heuristic produced %d gates below the proved optimum %d — impossible",
				bm.Name, len(c), bm.OptimalSize)
		}
		b, err := SynthesizeBidirectional(bm.Spec)
		if err != nil {
			t.Fatalf("%s (bidir): %v", bm.Name, err)
		}
		if b.Perm() != bm.Spec || len(b) < bm.OptimalSize {
			t.Fatalf("%s (bidir): wrong or impossibly short", bm.Name)
		}
	}
}

func TestBidirectionalNeverWorseOnAverage(t *testing.T) {
	gen := randperm.New(7)
	uniTotal, biTotal := 0, 0
	const trials = 500
	for trial := 0; trial < trials; trial++ {
		f := gen.Next()
		u, err := Synthesize(f)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SynthesizeBidirectional(f)
		if err != nil {
			t.Fatal(err)
		}
		uniTotal += len(u)
		biTotal += len(b)
	}
	if biTotal > uniTotal {
		t.Fatalf("bidirectional averaged worse: %d vs %d gates over %d functions",
			biTotal, uniTotal, trials)
	}
	t.Logf("avg gates: unidirectional %.2f, bidirectional %.2f",
		float64(uniTotal)/trials, float64(biTotal)/trials)
}

var (
	optOnce sync.Once
	optRef  *core.Synthesizer
)

func optimal(t testing.TB) *core.Synthesizer {
	optOnce.Do(func() {
		var err error
		optRef, err = core.New(core.Config{K: 4})
		if err != nil {
			panic(err)
		}
	})
	return optRef
}

// TestOverheadVersusOptimal quantifies the paper's §1 point: heuristics
// carry real overhead against 4-bit optima. On functions of known size
// ≤ 8 the heuristic must be correct and is expected to be measurably
// longer on average.
func TestOverheadVersusOptimal(t *testing.T) {
	s := optimal(t)
	rng := rand.New(rand.NewSource(3))
	heuristicTotal, optimalTotal := 0, 0
	count := 0
	for size := 2; size <= 4; size++ {
		lvl := s.Result().Level(size)
		for trial := 0; trial < 40; trial++ {
			f := lvl.At(rng.Intn(lvl.Len()))
			h, err := SynthesizeBidirectional(f)
			if err != nil {
				t.Fatal(err)
			}
			if h.Perm() != f {
				t.Fatal("wrong function")
			}
			if len(h) < size {
				t.Fatalf("heuristic beat the proved optimum: %d < %d", len(h), size)
			}
			heuristicTotal += len(h)
			optimalTotal += size
			count++
		}
	}
	if heuristicTotal < optimalTotal {
		t.Fatal("accounting error")
	}
	t.Logf("avg over %d functions: heuristic %.2f vs optimal %.2f gates",
		count, float64(heuristicTotal)/float64(count), float64(optimalTotal)/float64(count))
}

func TestQuickNeverBelowOptimalBound(t *testing.T) {
	// Row-repair gate counts are bounded below by a simple invariant:
	// a circuit with g gates moves at most ... — use the cheap necessary
	// condition that a non-identity function needs ≥ 1 gate.
	f := func(seed int64) bool {
		gen := randperm.New(uint32(seed))
		p := gen.Next()
		c, err := Synthesize(p)
		if err != nil {
			return false
		}
		if p != perm.Identity && len(c) == 0 {
			return false
		}
		return c.Perm() == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnidirectional(b *testing.B) {
	gen := randperm.New(9)
	ps := gen.Sample(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(ps[i&255]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBidirectional(b *testing.B) {
	gen := randperm.New(10)
	ps := gen.Sample(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SynthesizeBidirectional(ps[i&255]); err != nil {
			b.Fatal(err)
		}
	}
}
