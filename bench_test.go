// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablations for the design choices called out in
// DESIGN.md §6. Regenerate everything with
//
//	go test -bench=. -benchmem .
//
// The shared fixture builds the k = REVSYNTH_K (default 7) tables once —
// the paper's own Table 2 publishes the k = 7 configuration, and at k = 7
// every benchmark function in Table 6 (max size 13) is synthesizable.
// Formatted side-by-side tables are produced by cmd/revtables; these
// benchmarks measure the times those tables summarize.
package repro

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"bytes"

	"repro/internal/bfs"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/gate"
	"repro/internal/hashtab"
	"repro/internal/heuristic"
	"repro/internal/mt19937"
	"repro/internal/randperm"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/rewrite"
	"repro/internal/tablesio"
)

var (
	benchOnce  sync.Once
	benchSynth *core.Synthesizer
	benchErr   error
)

func benchK() int {
	if v := os.Getenv("REVSYNTH_K"); v != "" {
		if k, err := strconv.Atoi(v); err == nil && k >= 2 && k <= 8 {
			return k
		}
	}
	return 7
}

func benchFixture(b *testing.B) *core.Synthesizer {
	benchOnce.Do(func() {
		benchSynth, benchErr = core.New(core.Config{K: benchK()})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSynth
}

// BenchmarkTable1SynthesisBySize reproduces Table 1: average time to
// compute a minimal circuit as a function of the circuit size. Paper
// values at k = 9 range from 5×10⁻⁷ s (size 0) to 3×10⁻¹ s (size 14).
func BenchmarkTable1SynthesisBySize(b *testing.B) {
	s := benchFixture(b)
	sampleCount := func(size int) int {
		switch {
		case size <= s.K():
			return 64
		case size <= s.K()+3:
			return 4
		default:
			return 1
		}
	}
	maxSize := s.K() + 6
	if maxSize > s.Horizon() {
		maxSize = s.Horizon()
	}
	for size := 0; size <= maxSize; size++ {
		fns, err := distrib.ExactSizeSamples(s, size, sampleCount(size), uint32(1000+size))
		if err != nil {
			b.Fatalf("size %d: %v", size, err)
		}
		b.Run(fmt.Sprintf("size=%02d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Synthesize(fns[i%len(fns)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2HashStats reproduces Table 2: the time to build the
// canonical-representative hash tables and their probe statistics
// (reported as metrics: load, avg/max chain).
func BenchmarkTable2HashStats(b *testing.B) {
	for _, k := range []int{4, 5, 6} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var st hashtab.Stats
			for i := 0; i < b.N; i++ {
				res, err := bfs.Search(bfs.GateAlphabet(), k, nil)
				if err != nil {
					b.Fatal(err)
				}
				st = res.TableStats()
			}
			b.ReportMetric(st.LoadFactor, "load")
			b.ReportMetric(st.AvgChain, "avgChain")
			b.ReportMetric(float64(st.MaxChain), "maxChain")
			b.ReportMetric(float64(st.Entries), "entries")
		})
	}
}

// BenchmarkTable3RandomDistribution reproduces the §4.1 experiment: one
// op synthesizes a batch of 10 uniformly random permutations (the paper
// does 10M at 0.01035 s each on a 16-CPU machine with k = 9). Metrics
// report the within-horizon fraction and the weighted average size.
func BenchmarkTable3RandomDistribution(b *testing.B) {
	s := benchFixture(b)
	const batch = 10
	gen := randperm.New(5489)
	var within, total, sum int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			total++
			if size, err := s.Size(gen.Next()); err == nil {
				within++
				sum += int64(size)
			}
		}
	}
	b.StopTimer()
	if within > 0 {
		b.ReportMetric(float64(sum)/float64(within), "avgSize")
	}
	b.ReportMetric(float64(within)/float64(total), "withinHorizon")
	b.ReportMetric(batch, "perms/op")
}

// BenchmarkTable4BFSLevels reproduces Table 4's exact counting: a reduced
// BFS to depth 5 whose class counts and class-size-weighted full counts
// must equal the paper's columns.
func BenchmarkTable4BFSLevels(b *testing.B) {
	a := bfs.GateAlphabet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bfs.Search(a, 5, nil)
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c <= 5; c++ {
			if int64(res.ReducedCount(c)) != bfs.GateReducedCounts[c] {
				b.Fatalf("reduced count mismatch at size %d", c)
			}
			if res.FullCount(c) != bfs.GateFullCounts[c] {
				b.Fatalf("full count mismatch at size %d", c)
			}
		}
	}
}

// BenchmarkTable5LinearDistribution reproduces Table 5 exactly: the
// closed BFS over the 322,560 linear reversible functions. The paper
// reports "under two seconds" for this on a 2008 laptop.
func BenchmarkTable5LinearDistribution(b *testing.B) {
	a := bfs.LinearAlphabet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bfs.Search(a, 10, &bfs.Options{NoReduction: true})
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c <= 10; c++ {
			if int64(res.ReducedCount(c)) != bfs.LinearCounts[c] {
				b.Fatalf("linear count mismatch at size %d", c)
			}
		}
	}
}

// BenchmarkTable6Benchmarks reproduces Table 6: per-benchmark optimal
// synthesis time, with the proved-optimal size asserted. Paper runtimes
// (k = 9, tables preloaded) range from 2 µs to 26.5 ms.
func BenchmarkTable6Benchmarks(b *testing.B) {
	s := benchFixture(b)
	for _, bm := range Benchmarks() {
		b.Run(bm.Name, func(b *testing.B) {
			if bm.OptimalSize > s.Horizon() {
				b.Skipf("size %d beyond horizon %d (raise REVSYNTH_K)", bm.OptimalSize, s.Horizon())
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, info, err := s.SynthesizeInfo(bm.Spec)
				if err != nil {
					b.Fatal(err)
				}
				if info.Cost != bm.OptimalSize || c.Perm() != bm.Spec {
					b.Fatalf("%s: got size %d, want %d", bm.Name, info.Cost, bm.OptimalSize)
				}
			}
		})
	}
}

// BenchmarkFigure1Render covers Figure 1 (gate diagrams).
func BenchmarkFigure1Render(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := render.Figure1(render.Unicode); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure2AdderSynthesis covers Figure 2: proving the 4-gate
// optimum for the 1-bit full adder starting from the 6-gate textbook
// construction.
func BenchmarkFigure2AdderSynthesis(b *testing.B) {
	s := benchFixture(b)
	adder := report.SuboptimalAdder().Perm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := s.Synthesize(adder)
		if err != nil {
			b.Fatal(err)
		}
		if len(c) != 4 {
			b.Fatalf("adder optimum %d, want 4", len(c))
		}
	}
}

// BenchmarkAblationReduction compares BFS with and without the paper's
// ÷48 canonical symmetry reduction (§3.2): the reduced search stores ~48×
// fewer entries at the cost of canonicalization per expansion.
func BenchmarkAblationReduction(b *testing.B) {
	a := bfs.GateAlphabet()
	for _, mode := range []struct {
		name     string
		noReduce bool
	}{{"reduced", false}, {"unreduced", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var stored int
			for i := 0; i < b.N; i++ {
				res, err := bfs.Search(a, 4, &bfs.Options{NoReduction: mode.noReduce})
				if err != nil {
					b.Fatal(err)
				}
				stored = res.TotalStored()
			}
			b.ReportMetric(float64(stored), "entries")
		})
	}
}

// BenchmarkAblationHash compares Wang's hash64shift against a weak
// multiplicative hash on the real key distribution (canonical
// representatives of size ≤ 5): probe chains blow up when the mixing is
// too weak for the highly structured packed words.
func BenchmarkAblationHash(b *testing.B) {
	res, err := bfs.Search(bfs.GateAlphabet(), 5, nil)
	if err != nil {
		b.Fatal(err)
	}
	var keys []uint64
	for c := 0; c <= 5; c++ {
		lvl := res.Level(c)
		for i := 0; i < lvl.Len(); i++ {
			keys = append(keys, uint64(lvl.At(i)))
		}
	}
	for _, kind := range []struct {
		name string
		k    hashtab.HashKind
	}{{"wang", hashtab.Wang}, {"weakMultiplicative", hashtab.WeakMultiplicative}} {
		b.Run(kind.name, func(b *testing.B) {
			var st hashtab.Stats
			for i := 0; i < b.N; i++ {
				t := hashtab.NewWithHash(len(keys), kind.k)
				for _, k := range keys {
					t.Insert(k, 0)
				}
				st = t.ComputeStats()
			}
			b.ReportMetric(st.AvgChain, "avgChain")
			b.ReportMetric(float64(st.MaxChain), "maxChain")
		})
	}
}

// BenchmarkAblationKSweep shows the Table 1 phenomenon: the same size-9
// query gets exponentially faster as the BFS depth k grows, trading
// memory for search time (the paper's k = 8 vs k = 9 columns).
func BenchmarkAblationKSweep(b *testing.B) {
	target, err := ParseCircuit(
		"TOF(a,b,d) CNOT(c,a) TOF4(a,b,d,c) NOT(b) CNOT(d,b) TOF(b,c,a) CNOT(a,d) TOF(a,c,b) NOT(d)")
	if err != nil {
		b.Fatal(err)
	}
	f := target.Perm()
	for _, k := range []int{4, 5, 6} {
		s, err := core.New(core.Config{K: k})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Synthesize(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCanonicalize isolates the canonicalization kernel that
// dominates both BFS and the meet-in-the-middle loop: one inversion, 46
// transposition conjugations, 48 comparisons (≈750 machine instructions
// in the paper's count).
func BenchmarkAblationCanonicalize(b *testing.B) {
	gen := randperm.New(7)
	ps := gen.Sample(1024)
	b.ReportAllocs()
	b.ResetTimer()
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= uint64(canon.Rep(ps[i&1023]))
	}
	_ = acc
}

// BenchmarkExtensionCostOptimal covers the paper §5 gate-cost variant:
// building cost-levelled tables with NCV quantum costs and synthesizing a
// cost-optimal circuit.
func BenchmarkExtensionCostOptimal(b *testing.B) {
	a, err := bfs.WeightedGateAlphabet(gate.Gate.QuantumCost)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.New(core.Config{K: 8, MaxSplit: 5, Alphabet: a})
	if err != nil {
		b.Fatal(err)
	}
	f, err := ParseCircuit("TOF(a,b,c) CNOT(c,d) NOT(a)")
	if err != nil {
		b.Fatal(err)
	}
	p := f.Perm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, info, err := s.SynthesizeInfo(p)
		if err != nil {
			b.Fatal(err)
		}
		if info.Cost != 7 || c.Perm() != p {
			b.Fatalf("quantum cost %d, want 7", info.Cost)
		}
	}
}

// BenchmarkExtensionHeuristicLadder measures the §1 quality ladder on a
// fixed random workload: MMD-style heuristic synthesis, template
// rewriting, and the proved optimum (metrics report average gate counts).
func BenchmarkExtensionHeuristicLadder(b *testing.B) {
	s := benchFixture(b)
	db := rewrite.NewDB(6)
	// Functions with witnesses inside the horizon, so the ladder works at
	// any fixture K: random circuits of horizon length.
	gen := mt19937.New(99)
	wlen := s.Horizon()
	if wlen > 10 {
		wlen = 10
	}
	var fs []Perm
	for len(fs) < 16 {
		w := make(Circuit, wlen)
		for j := range w {
			w[j] = gate.FromIndex(gen.Intn(gate.Count))
		}
		fs = append(fs, w.Perm())
	}
	var hSum, rSum, oSum int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := fs[i%len(fs)]
		h, err := heuristic.SynthesizeBidirectional(f)
		if err != nil {
			b.Fatal(err)
		}
		r := db.Apply(h)
		opt, err := s.Size(f)
		if err != nil {
			b.Fatal(err)
		}
		hSum += len(h)
		rSum += len(r)
		oSum += opt
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(hSum)/float64(b.N), "heuristicGates")
		b.ReportMetric(float64(rSum)/float64(b.N), "rewrittenGates")
		b.ReportMetric(float64(oSum)/float64(b.N), "optimalGates")
	}
}

// BenchmarkExtensionTableIO measures the paper's store-once/load-per-run
// workflow at k = 5 (the paper loads its k = 9 tables in 1111 s on CS1).
func BenchmarkExtensionTableIO(b *testing.B) {
	res, err := bfs.Search(bfs.GateAlphabet(), 5, nil)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tablesio.SaveV2(&buf, res); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tablesio.Load(bytes.NewReader(blob), bfs.GateAlphabet()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionDepthOptimal covers the paper §5 depth variant: the
// 103-layer alphabet where NOT(a) CNOT(b,c) is a single step.
func BenchmarkExtensionDepthOptimal(b *testing.B) {
	s, err := core.New(core.Config{K: 3, Alphabet: bfs.LayerAlphabet()})
	if err != nil {
		b.Fatal(err)
	}
	f, err := ParseCircuit("NOT(a) CNOT(b,c) CNOT(a,b) TOF(a,b,d) NOT(c)")
	if err != nil {
		b.Fatal(err)
	}
	p := f.Perm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, info, err := s.SynthesizeInfo(p)
		if err != nil {
			b.Fatal(err)
		}
		if c.Depth() != info.Cost {
			b.Fatalf("emitted depth %d ≠ optimal %d", c.Depth(), info.Cost)
		}
	}
}

// BenchmarkParallelQueries measures concurrent meet-in-the-middle
// throughput: GOMAXPROCS goroutines hammer one synthesizer over the
// lock-free frozen table (the paper's 16-CPU random-sampling workload,
// §4.1, runs exactly this access pattern).
func BenchmarkParallelQueries(b *testing.B) {
	s := benchFixture(b)
	// One worker per query: RunParallel supplies the concurrency, so the
	// benchmark measures the frozen-table read path, not nested pools.
	s.SetWorkers(1)
	defer s.SetWorkers(0)
	fs := randperm.New(20100602).Sample(512)
	var cursor int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := atomic.AddInt64(&cursor, 1)
			_, _ = s.Size(fs[int(i)%len(fs)])
		}
	})
}

// BenchmarkMITMWorkers isolates the parallel prefix-scan: one hard
// (beyond-horizon) query answered with different worker-pool sizes.
func BenchmarkMITMWorkers(b *testing.B) {
	s := benchFixture(b)
	bm, ok := BenchmarkByName("hwb4") // size 11: forces a deep split
	if !ok {
		b.Fatal("hwb4 missing from the Table 6 suite")
	}
	if bm.OptimalSize > s.Horizon() {
		b.Skipf("hwb4 beyond horizon %d", s.Horizon())
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s.SetWorkers(w)
			defer s.SetWorkers(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Synthesize(bm.Spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
