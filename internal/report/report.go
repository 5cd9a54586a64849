// Package report regenerates the paper's tables and figures as formatted
// text, pairing every measured value with the paper's published value so
// the reproduction can be eyeballed row by row. The CLI tools print
// these.
package report

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/benchfuncs"
	"repro/internal/bfs"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/extbuild"
	"repro/internal/hashtab"
	"repro/internal/heuristic"
	"repro/internal/render"
	"repro/internal/rewrite"
)

// Figure1 renders the four library gates (paper Figure 1).
func Figure1() string {
	return "Figure 1: NOT, CNOT, Toffoli, and Toffoli-4 gates\n\n" + render.Figure1(render.Unicode)
}

// SuboptimalAdder is a textbook 6-gate 1-bit full adder (majority into d,
// then the sum ripple), the Figure 2(a) stand-in: the paper's figure is
// graphical, so an equivalent suboptimal circuit is constructed here and
// verified equal to rd32.
func SuboptimalAdder() circuit.Circuit {
	return circuit.MustParse("TOF(a,b,d) TOF(a,c,d) TOF(b,c,d) CNOT(b,c) CNOT(a,c) CNOT(a,b)")
}

// Figure2 contrasts the suboptimal adder with the synthesized optimal
// one (paper Figure 2: "(a) a suboptimal and (b) an optimal circuit for
// 1-bit full adder").
func Figure2(s *core.Synthesizer) (string, error) {
	rd32, _ := benchfuncs.ByName("rd32")
	sub := SuboptimalAdder()
	if sub.Perm() != rd32.Spec {
		return "", fmt.Errorf("report: suboptimal adder does not implement rd32")
	}
	opt, err := s.Synthesize(rd32.Spec)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: 1-bit full adder (rd32)\n\n")
	fmt.Fprintf(&b, "(a) suboptimal, %d gates: %s\n%s\n", len(sub), sub, render.Circuit(sub, render.Unicode))
	fmt.Fprintf(&b, "(b) optimal, %d gates: %s\n%s", len(opt), opt, render.Circuit(opt, render.Unicode))
	return b.String(), nil
}

// paperTable1K9 is the paper's Table 1 "9 (CS1)" column (seconds), sizes
// 0–14, for side-by-side comparison.
var paperTable1K9 = []float64{
	5.15e-7, 8.80e-7, 1.27e-6, 1.68e-6, 2.14e-6, 2.52e-6, 3.96e-6, 4.85e-6,
	4.45e-6, 5.65e-6, 1.79e-5, 2.38e-4, 3.74e-3, 3.18e-2, 3.26e-1,
}

// Table1 measures average synthesis time per circuit size, the paper's
// Table 1. maxSize bounds the measured sizes; samples per size shrink as
// the cost grows.
func Table1(s *core.Synthesizer, maxSize int, seed uint32) (string, error) {
	if maxSize > s.Horizon() {
		maxSize = s.Horizon()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: average time to compute a minimal circuit, by size (k = %d)\n", s.K())
	fmt.Fprintf(&b, "%4s  %14s  %14s  %8s\n", "size", "ours (s)", "paper k=9 (s)", "samples")
	for size := 0; size <= maxSize; size++ {
		samples := samplesForSize(s, size)
		fns, err := distrib.ExactSizeSamples(s, size, samples, seed+uint32(size))
		if err != nil {
			return "", fmt.Errorf("size %d: %v", size, err)
		}
		start := time.Now()
		for _, f := range fns {
			if _, err := s.Synthesize(f); err != nil {
				return "", err
			}
		}
		avg := time.Since(start).Seconds() / float64(len(fns))
		paper := "-"
		if size < len(paperTable1K9) {
			paper = fmt.Sprintf("%.2e", paperTable1K9[size])
		}
		fmt.Fprintf(&b, "%4d  %14.3e  %14s  %8d\n", size, avg, paper, len(fns))
	}
	return b.String(), nil
}

// samplesForSize balances timing fidelity against the steep cost growth
// beyond the BFS horizon.
func samplesForSize(s *core.Synthesizer, size int) int {
	switch {
	case size <= s.K():
		return 2000
	case size <= s.K()+2:
		return 200
	case size <= s.K()+4:
		return 10
	default:
		return 2
	}
}

// paperTable2 is the paper's Table 2 for k = 7, 8, 9.
var paperTable2 = map[int]struct {
	slots    string
	mem      string
	load     float64
	avgChain float64
	maxChain int
}{
	7: {"2^25", "256 MB", 0.58, 3.14, 92},
	8: {"2^28", "2 GB", 0.84, 9.18, 754},
	9: {"2^32", "32 GB", 0.51, 2.63, 86},
}

// Table2 reports hash-table parameters for the given BFS depths (paper
// Table 2; the paper publishes k = 7, 8, 9 — k = 7 overlaps directly).
func Table2(ks []int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: linear hash tables storing canonical representatives\n")
	fmt.Fprintf(&b, "%3s  %10s  %10s  %6s  %9s  %9s  %22s\n",
		"k", "entries", "memory", "load", "avg chain", "max chain", "paper (load/avg/max)")
	for _, k := range ks {
		res, _, err := extbuild.BuildResult(extbuild.Options{Alphabet: bfs.GateAlphabet(), K: k})
		if err != nil {
			return "", err
		}
		st := res.TableStats()
		res.Frozen.Close()
		paper := "-"
		if p, ok := paperTable2[k]; ok {
			paper = fmt.Sprintf("%.2f / %.2f / %d", p.load, p.avgChain, p.maxChain)
		}
		fmt.Fprintf(&b, "%3d  %10d  %10s  %6.2f  %9.2f  %9d  %22s\n",
			k, st.Entries, hashtab.FormatBytes(st.MemoryBytes), st.LoadFactor, st.AvgChain, st.MaxChain, paper)
	}
	return b.String(), nil
}

// paperTable3 is the paper's Table 3: gate-count distribution of
// 10,000,000 random permutations.
var paperTable3 = map[int]int64{
	5: 3, 6: 24, 7: 455, 8: 5269, 9: 50861,
	10: 392108, 11: 2051507, 12: 5110943, 13: 2371039, 14: 17191,
}

// Table3 runs the §4.1 random-permutation experiment with n samples and
// formats the distribution next to the paper's (scaled) one.
func Table3(s *core.Synthesizer, n int, seed uint32, progress func(done int)) (string, distrib.Distribution, error) {
	d, err := distrib.SampleSizes(s, n, seed, progress)
	if err != nil {
		return "", d, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: sizes of %d random permutations (paper: 10,000,000; k = %d, horizon %d)\n",
		n, s.K(), s.Horizon())
	fmt.Fprintf(&b, "%4s  %10s  %12s  %14s\n", "size", "ours", "ours (frac)", "paper (frac)")
	for size := len(d.Counts) - 1; size >= 0; size-- {
		if d.Counts[size] == 0 && paperTable3[size] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%4d  %10d  %12.5f  %14.5f\n",
			size, d.Counts[size], frac(d.Counts[size], d.Total), frac(paperTable3[size], 10000000))
	}
	if d.Beyond > 0 {
		fmt.Fprintf(&b, "%4s  %10d  %12.5f  %14s   (beyond horizon %d)\n",
			">"+fmt.Sprint(s.Horizon()), d.Beyond, frac(d.Beyond, d.Total), "-", s.Horizon())
	}
	fmt.Fprintf(&b, "weighted average over synthesized samples: %.2f gates (paper: 11.94)\n", d.WeightedAverage())
	return b.String(), d, nil
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// paperTable4Estimates is the paper's Table 4 estimate rows (sizes
// 10–14).
var paperTable4Estimates = map[int]float64{
	10: 8.20e11, 11: 4.29e12, 12: 1.07e13, 13: 4.96e12, 14: 3.60e10,
}

// Table4 reports exact per-size counts up to the BFS depth (validated
// against the paper's exact rows) plus sample-based estimates above it,
// the paper's §4.2 methodology.
func Table4(s *core.Synthesizer, d distrib.Distribution) string {
	res := s.Result()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: number of permutations requiring 0..k gates (exact) and estimates above\n")
	fmt.Fprintf(&b, "%4s  %16s  %16s  %14s  %12s\n", "size", "functions", "paper exact", "reduced", "paper reduced")
	for size := 0; size <= res.MaxCost; size++ {
		paperFull, paperReduced := "-", "-"
		if size < len(bfs.GateFullCounts) {
			paperFull = fmt.Sprint(bfs.GateFullCounts[size])
			paperReduced = fmt.Sprint(bfs.GateReducedCounts[size])
		}
		fmt.Fprintf(&b, "%4d  %16d  %16s  %14d  %12s\n",
			size, res.FullCount(size), paperFull, res.ReducedCount(size), paperReduced)
	}
	if d.Total > 0 {
		est := distrib.EstimateCounts(d)
		fmt.Fprintf(&b, "\nestimates from the random sample (paper §4.2 method):\n")
		fmt.Fprintf(&b, "%4s  %16s  %16s\n", "size", "ours (est)", "paper (est)")
		for size := res.MaxCost + 1; size < len(est); size++ {
			if est[size] == 0 {
				continue
			}
			paper := "-"
			if p, ok := paperTable4Estimates[size]; ok {
				paper = fmt.Sprintf("%.2e", p)
			}
			fmt.Fprintf(&b, "%4d  %16.2e  %16s\n", size, est[size], paper)
		}
	}
	return b.String()
}

// Table5 reproduces the linear-circuit distribution exactly (paper §4.3).
func Table5() (string, error) {
	res, _, err := extbuild.BuildResult(extbuild.Options{Alphabet: bfs.LinearAlphabet(), K: 11, NoReduction: true})
	if err != nil {
		return "", err
	}
	defer res.Frozen.Close()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: 4-bit linear reversible functions by optimal NOT/CNOT gate count\n")
	fmt.Fprintf(&b, "%4s  %10s  %10s  %6s\n", "size", "ours", "paper", "match")
	total := int64(0)
	allMatch := true
	for size := 10; size >= 0; size-- {
		got := int64(res.ReducedCount(size))
		want := bfs.LinearCounts[size]
		match := got == want
		allMatch = allMatch && match
		total += got
		fmt.Fprintf(&b, "%4d  %10d  %10d  %6v\n", size, got, want, match)
	}
	fmt.Fprintf(&b, "total %d (want 322560, match %v); size-11 functions: %d (want 0)\n",
		total, total == 322560 && allMatch, res.ReducedCount(11))
	return b.String(), nil
}

// Table6 synthesizes the benchmark suite and reports sizes, runtimes and
// circuits (paper Table 6). Benchmarks beyond the synthesizer horizon
// are reported as skipped rather than failing the run.
func Table6(s *core.Synthesizer) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: optimal implementations of benchmark functions (k = %d, horizon %d)\n",
		s.K(), s.Horizon())
	fmt.Fprintf(&b, "%-9s  %5s  %4s  %4s  %6s  %12s  %s\n", "name", "SBKC", "SOC", "ours", "match", "runtime", "our optimal circuit")
	for _, bm := range benchfuncs.All() {
		if bm.OptimalSize > s.Horizon() {
			fmt.Fprintf(&b, "%-9s  %5s  %4d  %4s  %6s  %12s  (size beyond horizon %d; raise k)\n",
				bm.Name, sbkc(bm), bm.OptimalSize, "-", "-", "-", s.Horizon())
			continue
		}
		start := time.Now()
		c, info, err := s.SynthesizeInfo(bm.Spec)
		if err != nil {
			return "", fmt.Errorf("%s: %v", bm.Name, err)
		}
		elapsed := time.Since(start)
		ok := info.Cost == bm.OptimalSize && c.Perm() == bm.Spec
		fmt.Fprintf(&b, "%-9s  %5s  %4d  %4d  %6v  %12s  %s\n",
			bm.Name, sbkc(bm), bm.OptimalSize, info.Cost, ok, elapsed.Round(time.Microsecond), c)
	}
	return b.String(), nil
}

func sbkc(bm benchfuncs.Benchmark) string {
	if bm.BestKnownSize < 0 {
		return "N/A"
	}
	return fmt.Sprint(bm.BestKnownSize)
}

// TableLadder reports the §1 quality ladder over the benchmark suite:
// MMD-style heuristic size, after template rewriting, and the proved
// optimum — the scoring the paper proposes for heuristic synthesis
// research. Benchmarks beyond the synthesizer horizon are skipped.
func TableLadder(s *core.Synthesizer, db *rewrite.DB) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Quality ladder: heuristic -> template rewrite -> proved optimum (paper §1)\n")
	fmt.Fprintf(&b, "%-9s  %9s  %9s  %7s  %9s\n", "name", "heuristic", "rewritten", "optimal", "overhead")
	for _, bm := range benchfuncs.All() {
		if bm.OptimalSize > s.Horizon() {
			continue
		}
		h, err := heuristic.SynthesizeBidirectional(bm.Spec)
		if err != nil {
			return "", fmt.Errorf("%s: %v", bm.Name, err)
		}
		r := db.Apply(h)
		if r.Perm() != bm.Spec {
			return "", fmt.Errorf("%s: rewrite changed the function", bm.Name)
		}
		opt, err := s.Size(bm.Spec)
		if err != nil {
			return "", fmt.Errorf("%s: %v", bm.Name, err)
		}
		fmt.Fprintf(&b, "%-9s  %9d  %9d  %7d  %8.0f%%\n",
			bm.Name, len(h), len(r), opt, 100*float64(len(r)-opt)/float64(opt))
	}
	return b.String(), nil
}
