package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/perm"
	"repro/internal/tables"
)

// Shared fixtures: BFS is deterministic, so synthesizers can be shared
// across tests.
var (
	fixOnce sync.Once
	synthK5 *Synthesizer // direct horizon 5, MITM to 10
	synthK3 *Synthesizer // direct horizon 3, MITM to 6
)

func fixtures(t testing.TB) (*Synthesizer, *Synthesizer) {
	fixOnce.Do(func() {
		var err error
		synthK5, err = New(Config{K: 5})
		if err != nil {
			panic(err)
		}
		synthK3, err = New(Config{K: 3})
		if err != nil {
			panic(err)
		}
	})
	return synthK5, synthK3
}

func randCircuit(rng *rand.Rand, n int) circuit.Circuit {
	c := make(circuit.Circuit, n)
	for i := range c {
		c[i] = gate.FromIndex(rng.Intn(gate.Count))
	}
	return c
}

func TestIdentitySynthesis(t *testing.T) {
	s, _ := fixtures(t)
	c, info, err := s.SynthesizeInfo(perm.Identity)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 0 || info.Cost != 0 || !info.Direct {
		t.Fatalf("identity: circuit %v, info %+v", c, info)
	}
}

func TestInvalidInput(t *testing.T) {
	s, _ := fixtures(t)
	if _, err := s.Synthesize(perm.Perm(0)); !errors.Is(err, ErrInvalidFunction) {
		t.Fatalf("invalid input error = %v", err)
	}
}

func TestSingleGates(t *testing.T) {
	s, _ := fixtures(t)
	for _, g := range gate.All() {
		c, err := s.Synthesize(g.Perm())
		if err != nil {
			t.Fatal(err)
		}
		if len(c) != 1 {
			t.Fatalf("gate %v synthesized as %v", g, c)
		}
		if c.Perm() != g.Perm() {
			t.Fatalf("gate %v synthesized incorrectly as %v", g, c)
		}
	}
}

// TestExhaustiveWithinHorizon reconstructs a minimal circuit for every
// stored representative of size 0..5 and checks both function and length
// — full coverage of the lookup branch of Algorithm 1, including all four
// (conjugate × first/last) translation cases.
func TestExhaustiveWithinHorizon(t *testing.T) {
	s, _ := fixtures(t)
	for size := 0; size <= s.K(); size++ {
		lvl := s.Result().Level(size)
		for i := 0; i < lvl.Len(); i++ {
			rep := lvl.At(i)
			c, info, err := s.SynthesizeInfo(rep)
			if err != nil {
				t.Fatalf("size %d rep %v: %v", size, rep, err)
			}
			if !info.Direct {
				t.Fatalf("size %d rep answered by MITM", size)
			}
			if len(c) != size {
				t.Fatalf("size %d rep %v got %d-gate circuit %v", size, rep, len(c), c)
			}
			if c.Perm() != rep {
				t.Fatalf("size %d rep %v: circuit %v computes %v", size, rep, c, c.Perm())
			}
		}
	}
}

// TestClassMembersWithinHorizon exercises the witness translation for
// non-canonical queries: random conjugates and inverses of stored
// representatives must synthesize at the same size.
func TestClassMembersWithinHorizon(t *testing.T) {
	s, _ := fixtures(t)
	rng := rand.New(rand.NewSource(1))
	for size := 1; size <= s.K(); size++ {
		lvl := s.Result().Level(size)
		for trial := 0; trial < 200; trial++ {
			rep := lvl.At(rng.Intn(lvl.Len()))
			member := perm.Conjugate(rep, canon.Shuffle(rng.Intn(canon.SigmaCount)))
			if rng.Intn(2) == 1 {
				member = member.Inverse()
			}
			c, err := s.Synthesize(member)
			if err != nil {
				t.Fatalf("size %d member %v: %v", size, member, err)
			}
			if len(c) != size || c.Perm() != member {
				t.Fatalf("size %d member %v: got %v (len %d)", size, member, c, len(c))
			}
		}
	}
}

// TestMITMMatchesGroundTruth validates the meet-in-the-middle branch
// against BFS ground truth: functions whose exact size (4 or 5) is known
// from the K=5 tables must come back at that size from a K=3 synthesizer,
// which can only reach them by splitting.
func TestMITMMatchesGroundTruth(t *testing.T) {
	s5, s3 := fixtures(t)
	rng := rand.New(rand.NewSource(2))
	for _, size := range []int{4, 5} {
		lvl := s5.Result().Level(size)
		for trial := 0; trial < 60; trial++ {
			rep := lvl.At(rng.Intn(lvl.Len()))
			member := perm.Conjugate(rep, canon.Shuffle(rng.Intn(canon.SigmaCount)))
			c, info, err := s3.SynthesizeInfo(member)
			if err != nil {
				t.Fatalf("size %d member: %v", size, err)
			}
			if info.Direct {
				t.Fatalf("size-%d function answered directly by K=3 synthesizer", size)
			}
			if len(c) != size || c.Perm() != member {
				t.Fatalf("size %d member %v: MITM got %v (len %d)", size, member, c, len(c))
			}
			if info.SplitPrefix != size-s3.K() {
				t.Fatalf("size %d: split prefix %d, want %d", size, info.SplitPrefix, size-s3.K())
			}
		}
	}
}

// TestRandomCircuitsUpperBound: for random m-gate circuits the optimal
// size is at most m, and the synthesized circuit must implement the same
// function.
func TestRandomCircuitsUpperBound(t *testing.T) {
	s, _ := fixtures(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		m := rng.Intn(9)
		c := randCircuit(rng, m)
		f := c.Perm()
		got, err := s.Synthesize(f)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if got.Perm() != f {
			t.Fatalf("synthesized circuit %v does not implement %v", got, f)
		}
		if len(got) > m {
			t.Fatalf("optimal size %d exceeds witness length %d for %v", len(got), m, c)
		}
	}
}

// TestEquivalenceInvariance: equivalent functions have equal size (paper
// §3.2), including through the MITM branch.
func TestEquivalenceInvariance(t *testing.T) {
	s, _ := fixtures(t)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		f := randCircuit(rng, 7).Perm()
		base, err := s.Size(f)
		if err != nil {
			t.Fatal(err)
		}
		if inv, _ := s.Size(f.Inverse()); inv != base {
			t.Fatalf("size(f⁻¹) = %d ≠ size(f) = %d", inv, base)
		}
		sigma := rng.Intn(canon.SigmaCount)
		if cj, _ := s.Size(perm.Conjugate(f, canon.Shuffle(sigma))); cj != base {
			t.Fatalf("size(conj) = %d ≠ size(f) = %d", cj, base)
		}
	}
}

// TestSizeAgainstUnreducedBFS compares the synthesizer against an
// independent ground truth: an unreduced (no symmetry) BFS table of all
// functions of size ≤ 4.
func TestSizeAgainstUnreducedBFS(t *testing.T) {
	s, _ := fixtures(t)
	plain, err := bfs.Search(bfs.GateAlphabet(), 4, &bfs.Options{NoReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for size := 0; size <= 4; size++ {
		lvl := plain.Level(size)
		for trial := 0; trial < 100; trial++ {
			f := lvl.At(rng.Intn(lvl.Len()))
			got, err := s.Size(f)
			if err != nil {
				t.Fatal(err)
			}
			if got != size {
				t.Fatalf("size(%v) = %d, want %d (unreduced BFS)", f, got, size)
			}
		}
	}
}

func TestBeyondHorizon(t *testing.T) {
	small, err := New(Config{K: 2, MaxSplit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if small.Horizon() != 3 {
		t.Fatalf("horizon = %d, want 3", small.Horizon())
	}
	hwb4, _ := perm.Parse("[0,2,4,12,8,5,9,11,1,6,10,13,3,14,7,15]") // size 11
	if _, err := small.Synthesize(hwb4); !errors.Is(err, ErrBeyondHorizon) {
		t.Fatalf("beyond-horizon error = %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{K: -3}); err == nil {
		t.Error("accepted negative K")
	}
	if _, err := FromResult(nil, 0); err == nil {
		t.Error("accepted nil result")
	}
	res, _ := bfs.Search(bfs.GateAlphabet(), 2, nil)
	if _, err := FromResult(res, 5); err == nil {
		t.Error("accepted MaxSplit beyond BFS horizon")
	}
}

// TestUnreducedSynthesizer runs the ablation configuration: full lists,
// no canonical reduction — results must agree with the reduced
// synthesizer.
func TestUnreducedSynthesizer(t *testing.T) {
	s, _ := fixtures(t)
	plain, err := bfs.Search(bfs.GateAlphabet(), 3, &bfs.Options{NoReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := FromResult(plain, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 60; trial++ {
		f := randCircuit(rng, 1+rng.Intn(6)).Perm()
		a, err := ps.Synthesize(f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Size(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != want || a.Perm() != f {
			t.Fatalf("unreduced synthesis of %v: got len %d (%v), want %d", f, len(a), a, want)
		}
	}
}

// TestWeightedQuantumCostSynthesis exercises the paper §5 gate-cost
// variant end to end.
func TestWeightedQuantumCostSynthesis(t *testing.T) {
	alpha, err := bfs.WeightedGateAlphabet(gate.Gate.QuantumCost)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := New(Config{K: 7, MaxSplit: 4, Alphabet: alpha})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		circ string
		cost int
	}{
		{"NOT(a)", 1},
		{"NOT(a) NOT(b)", 2},
		{"CNOT(a,b) CNOT(b,a) CNOT(a,b)", 3}, // SWAP: three 1-cost gates
		{"TOF(a,b,c)", 5},
		{"TOF(a,b,c) NOT(d) CNOT(a,b)", 7},
	}
	for _, c := range cases {
		f := circuit.MustParse(c.circ).Perm()
		got, info, err := ws.SynthesizeInfo(f)
		if err != nil {
			t.Fatalf("%s: %v", c.circ, err)
		}
		if info.Cost != c.cost {
			t.Errorf("quantum cost of %s = %d, want %d", c.circ, info.Cost, c.cost)
		}
		if got.Perm() != f {
			t.Errorf("weighted synthesis of %s computes the wrong function", c.circ)
		}
		if got.QuantumCost() != info.Cost {
			t.Errorf("synthesized circuit cost %d ≠ reported %d", got.QuantumCost(), info.Cost)
		}
	}
}

// TestDepthOptimalSynthesis exercises the layer-alphabet (depth) variant:
// the reported cost is the minimal depth, and the emitted circuit
// schedules to exactly that depth.
func TestDepthOptimalSynthesis(t *testing.T) {
	ds, err := New(Config{K: 2, MaxSplit: 2, Alphabet: bfs.LayerAlphabet()})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		circ  string
		depth int
	}{
		{"NOT(a) CNOT(b,c)", 1},
		{"NOT(a) CNOT(a,b)", 2},
		{"CNOT(a,b) CNOT(b,a) CNOT(a,b)", 3},
	}
	for _, c := range cases {
		f := circuit.MustParse(c.circ).Perm()
		got, info, err := ds.SynthesizeInfo(f)
		if err != nil {
			t.Fatalf("%s: %v", c.circ, err)
		}
		if info.Cost != c.depth {
			t.Errorf("depth of %s = %d, want %d", c.circ, info.Cost, c.depth)
		}
		if got.Perm() != f {
			t.Errorf("depth synthesis of %s computes the wrong function", c.circ)
		}
		if got.Depth() != info.Cost {
			t.Errorf("emitted circuit depth %d ≠ reported %d for %s", got.Depth(), info.Cost, c.circ)
		}
	}
}

// TestConcurrentQueries hammers one synthesizer from 16 goroutines (run
// with -race): the frozen table's lock-free read path and the immutable
// alphabet/canon tables must make every query independent.
func TestConcurrentQueries(t *testing.T) {
	s, _ := fixtures(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 20; trial++ {
				c := randCircuit(rng, 1+rng.Intn(8))
				got, err := s.Synthesize(c.Perm())
				if err != nil {
					errs <- err
					return
				}
				if got.Perm() != c.Perm() {
					errs <- errors.New("wrong function under concurrency")
					return
				}
				if len(got) > len(c) {
					errs <- errors.New("non-minimal result under concurrency")
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentQueriesWithParallelMITM layers the two levels of
// parallelism (run with -race): 16 concurrent queries, each of which
// fans its meet-in-the-middle scan out over its own worker pool.
func TestConcurrentQueriesWithParallelMITM(t *testing.T) {
	s, err := New(Config{K: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 8; trial++ {
				// Sizes 5–7 force the MITM branch at K = 4.
				c := randCircuit(rng, 5+rng.Intn(3))
				got, err := s.Synthesize(c.Perm())
				if err != nil {
					errs <- err
					return
				}
				if got.Perm() != c.Perm() || len(got) > len(c) {
					errs <- errors.New("bad parallel MITM result under concurrency")
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// oracleSynthesize is the sequential probe loop the chunked scan
// replaced, kept as the reference every scan driver must reproduce: the
// direct lookup, then each level's representatives in storage order,
// each expanded variant by variant until one's residue is in the table.
// Unit costs stop at the first hit; weighted costs keep the first
// cheapest residue of a level and scan on while a shorter total is
// possible.
func oracleSynthesize(s *Synthesizer, f perm.Perm) (circuit.Circuit, Info, error) {
	res := s.Result()
	sc := s.scratch()
	defer putScratch(sc)
	ctx := context.Background()
	if cost, ok := res.CostOf(f); ok {
		c, err := s.reconstruct(ctx, sc, f, -1, nil)
		return c, Info{Cost: cost, Direct: true}, err
	}
	var info Info
	unit := res.Alphabet.MaxCost() == 1
	best := split{total: -1}
	for i := 1; i <= s.MaxSplit(); i++ {
		if best.total >= 0 && i >= best.total {
			break
		}
		reps := res.Level(i)
		for n := 0; n < reps.Len(); n++ {
			q, residue, tried := oracleProbeClass(res, reps.At(n), f)
			info.Candidates += tried
			if q == 0 {
				continue
			}
			rc, _ := res.CostOf(residue)
			h := split{total: i + rc, level: i, prefix: q.Inverse(), residue: residue}
			if h.beats(best) {
				best = h
			}
			if unit {
				break
			}
		}
		if unit && best.total >= 0 {
			break
		}
	}
	if best.total < 0 {
		return nil, info, ErrBeyondHorizon
	}
	pc, err := s.reconstruct(ctx, sc, best.prefix, best.level, nil)
	if err != nil {
		return nil, info, err
	}
	rc, err := s.reconstruct(ctx, sc, best.residue, best.total-best.level, nil)
	if err != nil {
		return nil, info, err
	}
	info.Cost, info.SplitPrefix = best.total, best.level
	return append(pc, rc...), info, nil
}

// oracleProbeClass enumerates the variants q of rep and returns the
// first whose residue q ⋄ f is in the table (q = 0 if none), with that
// residue and the number of candidates tried. Unreduced tables store
// every function, so rep is its own only candidate.
func oracleProbeClass(res *bfs.Result, rep, f perm.Perm) (q, residue perm.Perm, tried int64) {
	if !res.Reduced {
		if r := rep.Then(f); res.Contains(r) {
			return rep, r, 1
		}
		return 0, 0, 1
	}
	canon.ForEachVariant(rep, func(v perm.Perm) bool {
		tried++
		if r := v.Then(f); res.Contains(r) {
			q, residue = v, r
			return false
		}
		return true
	})
	return q, residue, tried
}

// TestParallelMITMMatchesSequential pins the determinism rule: at
// Workers 1, 2 and 8 every query returns the sequential oracle's circuit
// and Info (cost, split prefix, direct flag, candidates). Each corpus
// only keeps specs whose scan reaches a level of at least
// parallelQueryThreshold representatives, so Workers > 1 runs the
// parallel driver there:
//   - gates: 8-gate specs on k = 4 tables that split at prefix 4
//     (6538 representatives);
//   - quantum cost: weighted specs costlier than 5, so the scan reaches
//     level 5 (622 representatives) and, weighted, scans each level
//     whole;
//   - unreduced: specs split at prefix ≥ 2 over unreduced k = 3 tables
//     (784 and 16204 functions).
func TestParallelMITMMatchesSequential(t *testing.T) {
	qc, err := bfs.WeightedGateAlphabet(gate.Gate.QuantumCost)
	if err != nil {
		t.Fatal(err)
	}
	short := testing.Short()
	draws := func(full, trimmed int) int {
		if short {
			return trimmed
		}
		return full
	}
	cases := []struct {
		name      string
		alphabet  *bfs.Alphabet
		k         int
		noReduce  bool
		gates     int
		draws     int
		keep      func(Info) bool
		wantSpecs int
	}{
		{"gates", bfs.GateAlphabet(), 4, false, 8, draws(300, 60), func(i Info) bool { return i.SplitPrefix == 4 }, draws(40, 4)},
		{"quantum-cost", qc, 6, false, 3, draws(80, 20), func(i Info) bool { return !i.Direct && i.Cost > 5 }, draws(25, 4)},
		{"unreduced", bfs.GateAlphabet(), 3, true, 6, draws(120, 30), func(i Info) bool { return i.SplitPrefix >= 2 }, draws(40, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := bfs.Search(tc.alphabet, tc.k, &bfs.Options{NoReduction: tc.noReduce})
			if err != nil {
				t.Fatal(err)
			}
			var synths []*Synthesizer
			for _, w := range []int{1, 2, 8} {
				s, err := FromResult(res, 0)
				if err != nil {
					t.Fatal(err)
				}
				s.SetWorkers(w)
				synths = append(synths, s)
			}
			rng := rand.New(rand.NewSource(11))
			checked := 0
			for trial := 0; trial < tc.draws; trial++ {
				f := randCircuit(rng, tc.gates).Perm()
				want, wantInfo, err := oracleSynthesize(synths[0], f)
				if err != nil || !tc.keep(wantInfo) {
					continue
				}
				checked++
				for _, s := range synths {
					got, info, err := s.SynthesizeInfo(f)
					if err != nil {
						t.Fatalf("workers=%d spec %v: %v", s.Workers(), f, err)
					}
					if info != wantInfo || got.String() != want.String() {
						t.Fatalf("workers=%d spec %v: got %v %+v, oracle %v %+v",
							s.Workers(), f, got, info, want, wantInfo)
					}
				}
			}
			if checked < tc.wantSpecs {
				t.Fatalf("only %d of %d draws reached a parallel level, want ≥ %d", checked, tc.draws, tc.wantSpecs)
			}
		})
	}
}

// countingBackend counts the LookupBatch calls a synthesizer makes.
type countingBackend struct {
	tables.Backend
	calls atomic.Int64
}

func (b *countingBackend) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	b.calls.Add(1)
	return b.Backend.LookupBatch(ctx, keys, vals, found)
}

// TestDirectProbeIsReconstructionStepZero: a direct query's probe of f's
// class is also its reconstruction's first step, so a cost-c answer
// takes max(c, 1) backend calls — one per stripped element, the first
// being the direct probe — not c + 1. The circuit stays byte-identical to
// the local synthesizer's and to the oracle's, which rebuilds from a
// fresh lookup of f's class. The corpus covers every cost of the k = 4
// tables, identity included.
func TestDirectProbeIsReconstructionStepZero(t *testing.T) {
	res, err := bfs.Search(bfs.GateAlphabet(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	local, err := FromResult(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := tables.NewLocal(res)
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingBackend{Backend: lb}
	s, err := FromBackend(counted, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	perCost := make([]int, res.MaxCost+1)
	for trial := 0; trial < 250; trial++ {
		f := randCircuit(rng, trial%(res.MaxCost+1)).Perm()
		before := counted.calls.Load()
		got, info, err := s.SynthesizeInfo(f)
		calls := counted.calls.Load() - before
		if err != nil || !info.Direct {
			t.Fatalf("spec %v: info %+v, err %v; want a direct answer", f, info, err)
		}
		if want := int64(max(info.Cost, 1)); calls != want {
			t.Fatalf("spec %v of cost %d: %d backend calls, want %d", f, info.Cost, calls, want)
		}
		want, wantInfo, err := local.SynthesizeInfo(f)
		if err != nil || wantInfo != info || want.String() != got.String() {
			t.Fatalf("spec %v: counted %v %+v, local %v %+v (err %v)", f, got, info, want, wantInfo, err)
		}
		oracle, _, err := oracleSynthesize(local, f)
		if err != nil || oracle.String() != got.String() {
			t.Fatalf("spec %v: counted %v, oracle %v (err %v)", f, got, oracle, err)
		}
		perCost[info.Cost]++
	}
	for c, n := range perCost {
		if n == 0 {
			t.Fatalf("no spec of cost %d in the corpus (per cost: %v)", c, perCost)
		}
	}
}

func TestInfoCandidates(t *testing.T) {
	_, s3 := fixtures(t)
	// A size-5 function forces a split with prefix 2: candidates must
	// cover at least all size-1 variants before hitting at size 2.
	s5, _ := fixtures(t)
	f := s5.Result().Level(5).At(0)
	_, info, err := s3.SynthesizeInfo(f)
	if err != nil {
		t.Fatal(err)
	}
	if info.Candidates <= 0 || info.Direct {
		t.Fatalf("info = %+v for a split query", info)
	}
}

func BenchmarkSynthesizeSize3Direct(b *testing.B) {
	s, _ := fixtures(b)
	reps := s.Result().Level(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Synthesize(reps.At(i % reps.Len())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthesizeSize5Direct(b *testing.B) {
	s, _ := fixtures(b)
	reps := s.Result().Level(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Synthesize(reps.At(i % reps.Len())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthesizeSize7MITM(b *testing.B) {
	s, _ := fixtures(b)
	rng := rand.New(rand.NewSource(7))
	// Pre-generate size-≤7 witnesses.
	fs := make([]perm.Perm, 32)
	for i := range fs {
		fs[i] = randCircuit(rng, 7).Perm()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Synthesize(fs[i%len(fs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// waitGoroutines fails t unless the goroutine count falls back to base:
// an aborted query must not leave scan workers behind.
func waitGoroutines(t *testing.T, base int, label string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after an aborted query, %d before", label, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// countdownCtx reports context.Canceled from its (n+1)-th Err call on.
// The scan checks Err once per chunk, so this aborts a query at a chosen
// chunk, independent of timing.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestContextCancellation covers the ctx-aware query path: an already-
// canceled context aborts a meet-in-the-middle query with ctx.Err()
// before any scanning, while direct lookups still answer (they are
// microseconds and never block), and a context canceled in the middle
// of a parallel level stops every worker. Both scan drivers are
// exercised, and neither may leak a goroutine.
func TestContextCancellation(t *testing.T) {
	s5, s3 := fixtures(t)
	rng := rand.New(rand.NewSource(77))

	// A uniformly random 16-permutation is a.s. beyond the k = 3 direct
	// horizon, forcing the MITM loop where cancellation is checked.
	hard, err := perm.FromSlice(rng.Perm(16))
	if err != nil {
		t.Fatal(err)
	}
	if s5.Result().Contains(hard) {
		t.Skip("random function unexpectedly within direct horizon")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		s3.SetWorkers(workers)
		if _, _, err := s3.SynthesizeInfoCtx(ctx, hard); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		waitGoroutines(t, base, fmt.Sprintf("canceled, workers=%d", workers))

		// Levels 1–3 of the k = 5 tables are 462 one-representative
		// chunks; level 4 (6538 representatives) is scanned in parallel
		// at workers = 4. Cancel 100 chunks into it.
		s5.SetWorkers(workers)
		mid := &countdownCtx{Context: context.Background()}
		mid.n.Store(462 + 100)
		if _, _, err := s5.SynthesizeInfoCtx(mid, hard); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: mid-level err = %v, want context.Canceled", workers, err)
		}
		if mid.n.Load() > 0 {
			t.Fatalf("workers=%d: the query stopped before reaching level 4", workers)
		}
		waitGoroutines(t, base, fmt.Sprintf("canceled mid-level, workers=%d", workers))
	}
	s3.SetWorkers(0)
	s5.SetWorkers(0)

	// Direct lookups are answered even under a canceled context.
	easy := randCircuit(rng, 2).Perm()
	if _, _, err := s3.SynthesizeInfoCtx(ctx, easy); err != nil {
		t.Fatalf("direct lookup under canceled ctx: %v", err)
	}

	// A live context behaves exactly like the ctx-free API.
	c1, i1, err1 := s3.SynthesizeInfoCtx(context.Background(), hard)
	c2, i2, err2 := s3.SynthesizeInfo(hard)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("live-ctx divergence: %v vs %v", err1, err2)
	}
	if err1 == nil && (i1.Cost != i2.Cost || c1.Perm() != c2.Perm()) {
		t.Fatalf("live-ctx result differs: cost %d vs %d", i1.Cost, i2.Cost)
	}
}

// TestContextDeadlineMidScan arms a deadline that expires while the
// exhaustive (beyond-horizon) scan is running and verifies the query
// returns DeadlineExceeded rather than scanning to completion, for both
// worker counts, leaving no goroutine behind.
func TestContextDeadlineMidScan(t *testing.T) {
	s5, _ := fixtures(t)
	rng := rand.New(rand.NewSource(78))
	for _, workers := range []int{1, 4} {
		s5.SetWorkers(workers)
		base := runtime.NumGoroutine()
		sawTimeout := false
		for trial := 0; trial < 20 && !sawTimeout; trial++ {
			hard, err := perm.FromSlice(rng.Perm(16))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
			_, _, qerr := s5.SynthesizeInfoCtx(ctx, hard)
			cancel()
			if errors.Is(qerr, context.DeadlineExceeded) {
				sawTimeout = true
			}
		}
		if !sawTimeout {
			t.Fatalf("workers=%d: no query observed its deadline in 20 trials", workers)
		}
		waitGoroutines(t, base, fmt.Sprintf("deadline, workers=%d", workers))
	}
	s5.SetWorkers(0)
}
