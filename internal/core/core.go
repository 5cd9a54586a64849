// Package core implements the paper's primary contribution (Algorithm 1):
// synthesis of a provably minimal circuit for any 4-bit reversible
// function by search-and-lookup over precomputed canonical
// representatives.
//
// Construction runs the breadth-first search of Algorithm 2 (package bfs)
// up to depth k, producing the hash table H of canonical representatives
// of all classes of size ≤ k with one boundary gate each, plus the
// per-size representative lists Aᵢ.
//
// A query for f then proceeds exactly as in the paper:
//
//  1. If f's class is in H, a minimal circuit is reconstructed by
//     repeatedly translating the stored boundary gate back through the
//     canonicalization witness (σ, inverted) and stripping it.
//  2. Otherwise f = p ⋄ s for a prefix p of some minimal size i and a
//     suffix s of size ≤ k. All candidate prefixes of size i = 1, 2, …
//     are enumerated as the ≤48 wire-relabeling/inversion variants of the
//     stored representatives of size i; the first i for which some
//     residue p⁻¹ ⋄ f lands in H yields a minimal circuit (for the unit
//     cost metric — weighted metrics keep scanning until no shorter total
//     is possible).
//
// A Synthesizer is immutable after construction and safe for concurrent
// use.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bfs"
	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/tables"
)

// ErrBeyondHorizon reports that the function's minimal cost exceeds the
// synthesizer's guaranteed search horizon.
var ErrBeyondHorizon = errors.New("core: function size exceeds search horizon")

// ErrInvalidFunction reports that the queried word is not a permutation.
var ErrInvalidFunction = errors.New("core: not a valid 4-bit reversible function")

// Config configures New.
type Config struct {
	// K is the BFS depth: every function of size ≤ K is answered by a
	// single lookup-and-reconstruct. Memory grows with the number of
	// classes of size ≤ K (paper Table 4): K = 5 needs ~10⁵ entries,
	// K = 6 ~1.6×10⁶, K = 7 ~2.1×10⁷. The paper runs K = 9 on a 64 GB
	// machine; K defaults to 6.
	K int
	// MaxSplit bounds the prefix sizes tried by the meet-in-the-middle
	// stage; the unit-cost synthesis horizon is K + MaxSplit. MaxSplit
	// cannot exceed K (prefixes are enumerated from the stored lists) and
	// defaults to K.
	MaxSplit int
	// Alphabet selects the building blocks; nil means the paper's 32-gate
	// library with unit costs. Weighted or layer alphabets turn the same
	// machinery into the paper §5 gate-cost or depth-optimal variants.
	Alphabet *bfs.Alphabet
	// Progress is forwarded to the BFS.
	Progress func(level, newReps int)
	// Workers is the parallelism for both the precomputation BFS and the
	// meet-in-the-middle query stage. Zero (or negative) means
	// runtime.GOMAXPROCS(0); 1 reproduces the original sequential
	// behaviour exactly.
	Workers int
}

// DefaultK is the default BFS depth.
const DefaultK = 6

// Synthesizer answers minimal-circuit queries. Create with New,
// FromResult, or — for tables served by another process or machine —
// FromBackend.
type Synthesizer struct {
	// backend is the table source every query reads through; meta is its
	// pre-validated geometry and alphabet the building-block set the
	// tables were built over (verified against meta's fingerprint).
	backend  tables.Backend
	meta     tables.Meta
	alphabet *bfs.Alphabet
	// bounded is the backend's cost-horizon routing refinement, when it
	// has one (a tablenet.Federation does). Probes whose useful-cost
	// bound is known — every scan batch, every reconstruction step —
	// take it, so a federation answers them from the single shallowest
	// authoritative tier instead of escalating through the chain.
	bounded tables.BoundedLookuper
	// res short-circuits to the in-process tables when the backend is
	// Localized: the meet-in-the-middle scan and reconstruction keep the
	// original zero-indirection probe loop on this path. nil for remote
	// backends, which take the batched path instead.
	res      *bfs.Result
	maxSplit int
	// workers is the meet-in-the-middle fan-out; ≤ 0 resolves to
	// runtime.GOMAXPROCS(0) at query time. Remote-backend scans are
	// sequential per query (concurrency comes from cross-query fan-out
	// and the router's per-shard parallelism), so workers only affects
	// the local path.
	workers int
	// batchKeys overrides backendBatchKeys for the remote scan when
	// non-zero (see SetBatchKeys).
	batchKeys int
}

// New precomputes the search tables per cfg and returns a ready
// synthesizer.
func New(cfg Config) (*Synthesizer, error) {
	if cfg.K == 0 {
		cfg.K = DefaultK
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("core: K = %d, want ≥ 1", cfg.K)
	}
	alphabet := cfg.Alphabet
	if alphabet == nil {
		alphabet = bfs.GateAlphabet()
	}
	res, err := bfs.Search(alphabet, cfg.K, &bfs.Options{
		// Restricted-architecture alphabets (paper §5) are not closed
		// under wire relabeling and therefore search unreduced.
		NoReduction: !alphabet.Relabelable(),
		Progress:    cfg.Progress,
		Workers:     cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	s, err := FromResult(res, cfg.MaxSplit)
	if err != nil {
		return nil, err
	}
	s.workers = cfg.Workers
	return s, nil
}

// FromResult wraps an existing BFS result (reduced or not) as a
// synthesizer; maxSplit defaults to the BFS horizon and cannot exceed it.
func FromResult(res *bfs.Result, maxSplit int) (*Synthesizer, error) {
	if res == nil {
		return nil, fmt.Errorf("core: nil BFS result")
	}
	b, err := tables.NewLocal(res)
	if err != nil {
		return nil, err
	}
	return FromBackend(b, res.Alphabet, maxSplit)
}

// FromBackend programs a synthesizer against a table backend — the seam
// that lets the same query engine run over in-process tables
// (tables.Local, where it keeps the original probe loop), a single
// remote shard server, or a shard-by-key router. alphabet is the
// building-block set the tables were built over (nil: the 32-gate
// library); it must match the backend's fingerprint — the alphabet is
// code, only its fingerprint travels with the tables.
//
// Against a non-local backend the meet-in-the-middle scan batches: each
// round trip fetches a chunk of level representatives and resolves every
// candidate residue of the chunk in one LookupBatch, so the per-key
// network cost is amortized about a thousand-fold (backendBatchKeys).
// Scan order (and therefore the returned circuit) is identical to the
// sequential local scan, which is what makes shard deployments
// byte-for-byte verifiable against a single host.
func FromBackend(b tables.Backend, alphabet *bfs.Alphabet, maxSplit int) (*Synthesizer, error) {
	if b == nil {
		return nil, fmt.Errorf("core: nil table backend")
	}
	if alphabet == nil {
		alphabet = bfs.GateAlphabet()
	}
	meta := b.Meta()
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	if want := tables.FingerprintOf(alphabet); meta.Fingerprint != want {
		return nil, fmt.Errorf("core: backend tables were built over a different alphabet (backend %+v, given %+v)", meta.Fingerprint, want)
	}
	if maxSplit == 0 {
		maxSplit = meta.K
	}
	if maxSplit < 0 || maxSplit > meta.K {
		return nil, fmt.Errorf("core: MaxSplit = %d out of range [0,%d]", maxSplit, meta.K)
	}
	s := &Synthesizer{backend: b, meta: meta, alphabet: alphabet, maxSplit: maxSplit}
	if l, ok := b.(tables.Localized); ok {
		s.res = l.Local()
	}
	s.bounded, _ = b.(tables.BoundedLookuper)
	return s, nil
}

// K returns the BFS depth.
func (s *Synthesizer) K() int { return s.meta.K }

// MaxSplit returns the meet-in-the-middle prefix bound.
func (s *Synthesizer) MaxSplit() int { return s.maxSplit }

// SetWorkers sets the meet-in-the-middle query parallelism (0 or
// negative: runtime.GOMAXPROCS(0)). Call before sharing the synthesizer
// across goroutines; queries themselves are always safe concurrently.
func (s *Synthesizer) SetWorkers(n int) { s.workers = n }

// Workers returns the resolved query parallelism.
func (s *Synthesizer) Workers() int {
	if s.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.workers
}

// Horizon returns the cost up to which synthesis is guaranteed: K +
// MaxSplit for unit-cost alphabets; for weighted alphabets boundary
// effects subtract MaxCost − 1.
func (s *Synthesizer) Horizon() int {
	h := s.meta.K + s.maxSplit - (s.alphabet.MaxCost() - 1)
	// A backend that advertises its own synthesis horizon
	// (tables.Meta.Horizon) caps the guarantee: a tiered federation, for
	// instance, reports its top tier's bound, and a "beyond horizon"
	// outcome attributed to that backend is final — this synthesizer
	// scans the backend once and never re-scans per tier; escalation
	// between tiers already happened inside the backend's LookupBatch.
	if s.meta.Horizon != 0 && s.meta.Horizon < h {
		h = s.meta.Horizon
	}
	return h
}

// Result exposes the underlying BFS tables (read-only). It is nil when
// the synthesizer queries a remote backend — the tables live in another
// process; use Backend and Meta then.
func (s *Synthesizer) Result() *bfs.Result { return s.res }

// Backend exposes the table backend the synthesizer reads through.
func (s *Synthesizer) Backend() tables.Backend { return s.backend }

// Meta returns the table geometry/metadata.
func (s *Synthesizer) Meta() tables.Meta { return s.meta }

// Alphabet returns the building-block set the tables were built over.
func (s *Synthesizer) Alphabet() *bfs.Alphabet { return s.alphabet }

// Info reports how a query was answered.
type Info struct {
	// Cost is the minimal cost (gate count for the unit metric) of the
	// synthesized circuit.
	Cost int
	// Direct reports that the function was within the BFS horizon and
	// answered by pure lookup (Algorithm 1's first branch).
	Direct bool
	// SplitPrefix is the prefix cost chosen by the meet-in-the-middle
	// stage (0 when Direct).
	SplitPrefix int
	// Candidates counts composition+canonicalization+probe iterations
	// spent in the meet-in-the-middle loop.
	Candidates int64
}

// Synthesize returns a minimal circuit for f.
func (s *Synthesizer) Synthesize(f perm.Perm) (circuit.Circuit, error) {
	c, _, err := s.SynthesizeInfo(f)
	return c, err
}

// Size returns the minimal number of cost units (gates, for the unit
// metric) required to implement f — the paper's "size of a reversible
// function".
func (s *Synthesizer) Size(f perm.Perm) (int, error) {
	_, info, err := s.SynthesizeInfo(f)
	if err != nil {
		return 0, err
	}
	return info.Cost, nil
}

// SynthesizeInfo is Synthesize with query diagnostics.
func (s *Synthesizer) SynthesizeInfo(f perm.Perm) (circuit.Circuit, Info, error) {
	return s.SynthesizeInfoCtx(context.Background(), f)
}

// SynthesizeCtx is Synthesize with cancellation: the meet-in-the-middle
// scan aborts early (returning ctx.Err()) once ctx is done. Direct
// lookups are microseconds and complete regardless.
func (s *Synthesizer) SynthesizeCtx(ctx context.Context, f perm.Perm) (circuit.Circuit, error) {
	c, _, err := s.SynthesizeInfoCtx(ctx, f)
	return c, err
}

// SizeCtx is Size with cancellation.
func (s *Synthesizer) SizeCtx(ctx context.Context, f perm.Perm) (int, error) {
	_, info, err := s.SynthesizeInfoCtx(ctx, f)
	if err != nil {
		return 0, err
	}
	return info.Cost, nil
}

// SynthesizeInfoCtx is SynthesizeInfo with cancellation. A long-running
// scan checks ctx every few hundred representatives, so cancellation
// latency is well under a millisecond; the error returned on abort is
// ctx.Err() (wrapped), testable with errors.Is(err, context.Canceled)
// or context.DeadlineExceeded.
func (s *Synthesizer) SynthesizeInfoCtx(ctx context.Context, f perm.Perm) (circuit.Circuit, Info, error) {
	if !f.IsValid() {
		return nil, Info{}, ErrInvalidFunction
	}
	if s.res == nil {
		// The tables live behind a (possibly remote) backend: take the
		// batched scan path.
		return s.synthesizeBackend(ctx, f)
	}
	// Algorithm 1, first branch: f is within the BFS horizon.
	if s.res.Contains(f) {
		c, err := s.reconstruct(ctx, f, -1)
		if err != nil {
			return nil, Info{}, err
		}
		return c, Info{Cost: s.costOf(c), Direct: true}, nil
	}
	// Meet in the middle: try prefix costs in increasing order. Each
	// size-i representative list is scanned by up to Workers() goroutines
	// with early cancellation on the first hit for unit-cost alphabets
	// (any hit at the first hitting prefix size is provably minimal:
	// smaller prefix sizes having missed bounds every residue cost).
	var info Info
	bestTotal := -1
	var bestPrefix, bestResidue perm.Perm
	bestSplit := 0
	unit := s.res.Alphabet.MaxCost() == 1
	workers := s.Workers()
	for i := 1; i <= s.maxSplit; i++ {
		if bestTotal >= 0 && i >= bestTotal {
			break // any further split costs at least i ≥ bestTotal
		}
		if err := ctx.Err(); err != nil {
			return nil, info, fmt.Errorf("core: query aborted: %w", err)
		}
		reps := s.res.Level(i)
		var lh levelHit
		var err error
		if workers > 1 && reps.Len() >= parallelQueryThreshold {
			lh, err = s.scanLevelParallel(ctx, reps, f, unit, workers)
		} else {
			lh, err = s.scanLevel(ctx, reps, f, unit)
		}
		info.Candidates += lh.tried
		if err != nil {
			return nil, info, err
		}
		if lh.found {
			total := i + lh.residueCost
			if bestTotal < 0 || total < bestTotal {
				bestTotal, bestPrefix, bestResidue, bestSplit = total, lh.q.Inverse(), lh.residue, i
			}
			if unit {
				break
			}
		}
	}
	if bestTotal < 0 {
		return nil, info, fmt.Errorf("%w (horizon %d)", ErrBeyondHorizon, s.Horizon())
	}
	pc, err := s.reconstruct(ctx, bestPrefix, bestSplit)
	if err != nil {
		return nil, info, err
	}
	rc, err := s.reconstruct(ctx, bestResidue, bestTotal-bestSplit)
	if err != nil {
		return nil, info, err
	}
	out := append(pc, rc...)
	info.Cost = bestTotal
	info.SplitPrefix = bestSplit
	return out, info, nil
}

// parallelQueryThreshold is the minimum representative-list length worth
// fanning out over goroutines; smaller levels (sizes 1–3 have at most a
// few hundred classes) are scanned inline to keep short queries at
// microsecond latency.
const parallelQueryThreshold = 512

// levelHit is the outcome of scanning one prefix-size level: the best
// (minimum residue cost) candidate prefix inverse q found, its residue,
// and the number of probe iterations spent.
type levelHit struct {
	found       bool
	q, residue  perm.Perm
	residueCost int
	tried       int64
}

// ctxCheckStride is how many representatives a sequential scan probes
// between context checks: frequent enough for sub-millisecond
// cancellation latency, rare enough that the check (a mutex-guarded Err
// on derived contexts) stays off the per-probe hot path.
const ctxCheckStride = 256

// scanLevel scans a representative list sequentially, in the original
// implementation's order: first hit wins for unit costs, minimum residue
// cost over the whole level otherwise. The LevelView indirection serves
// both backends — in-heap level slices and the slot index of a
// memory-mapped frozen table.
func (s *Synthesizer) scanLevel(ctx context.Context, reps bfs.LevelView, f perm.Perm, unit bool) (levelHit, error) {
	var lh levelHit
	for n := 0; n < reps.Len(); n++ {
		if n%ctxCheckStride == 0 && ctx.Err() != nil {
			return lh, fmt.Errorf("core: query aborted: %w", ctx.Err())
		}
		q, residue, tried := s.probeClass(reps.At(n), f)
		lh.tried += tried
		if q == 0 {
			continue
		}
		rc, ok := s.res.CostOf(residue)
		if !ok {
			return lh, fmt.Errorf("core: residue vanished from table (corrupt state)")
		}
		if !lh.found || rc < lh.residueCost {
			lh.found, lh.q, lh.residue, lh.residueCost = true, q, residue, rc
		}
		if unit {
			break // first hit is provably minimal for unit costs
		}
	}
	return lh, nil
}

// scanLevelParallel fans the level scan out over a worker pool. Workers
// claim fixed-size chunks of the representative list through an atomic
// cursor (probing is lock-free against the frozen table); for unit-cost
// alphabets the first hit raises a stop flag that cancels the remaining
// workers mid-chunk, and context cancellation raises the same flag at
// chunk granularity. For weighted alphabets every chunk is scanned and
// the minimum-residue-cost hit is kept.
func (s *Synthesizer) scanLevelParallel(ctx context.Context, reps bfs.LevelView, f perm.Perm, unit bool, workers int) (levelHit, error) {
	var (
		cursor  atomic.Int64
		stop    atomic.Bool
		tried   atomic.Int64
		mu      sync.Mutex
		best    levelHit
		scanErr error
		wg      sync.WaitGroup
	)
	n := reps.Len()
	chunk := max(n/(workers*8), 64)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local int64
			defer func() { tried.Add(local) }()
			for {
				if stop.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					mu.Lock()
					if scanErr == nil {
						scanErr = fmt.Errorf("core: query aborted: %w", err)
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+chunk, n); i++ {
					if stop.Load() {
						return
					}
					q, residue, t := s.probeClass(reps.At(i), f)
					local += t
					if q == 0 {
						continue
					}
					rc, ok := s.res.CostOf(residue)
					mu.Lock()
					if !ok {
						scanErr = fmt.Errorf("core: residue vanished from table (corrupt state)")
						stop.Store(true)
					} else if !best.found || rc < best.residueCost {
						best.found, best.q, best.residue, best.residueCost = true, q, residue, rc
					}
					mu.Unlock()
					if unit {
						stop.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	best.tried = tried.Load()
	return best, scanErr
}

// probeClass enumerates the variants q of rep (all functions of rep's
// size) and returns the first with residue q ⋄ f inside the table,
// along with that residue and the number of candidates tried. It returns
// q = 0 if no variant hits.
//
// Writing the minimal circuit of f as p then s with p of rep's size, the
// residue of the candidate prefix p = q⁻¹ is s = p⁻¹ ⋄ f = q ⋄ f.
func (s *Synthesizer) probeClass(rep, f perm.Perm) (q, residue perm.Perm, tried int64) {
	if !s.res.Reduced {
		// Unreduced tables store every function directly; rep is itself
		// the only candidate (the paper's "store full lists" variant).
		tried = 1
		r := rep.Then(f)
		if s.res.Contains(r) {
			return rep, r, tried
		}
		return 0, 0, tried
	}
	canon.ForEachVariant(rep, func(v perm.Perm) bool {
		tried++
		r := v.Then(f)
		if s.res.Contains(r) {
			q, residue = v, r
			return false
		}
		return true
	})
	return q, residue, tried
}

// costOf sums the element costs a circuit's gates map to; for unit-cost
// alphabets this is just the element count, but reconstruct emits gates,
// so recompute from gate count only when the alphabet is the plain gate
// set.
func (s *Synthesizer) costOf(c circuit.Circuit) int {
	if cost, ok := s.res.CostOf(c.Perm()); ok {
		return cost
	}
	return len(c)
}

// lookupRaw probes one canonical key through whichever table path is
// live: the in-process result, or the backend as a batch of one (remote
// reconstruction is a dependent chain, so singles are unavoidable there
// — at most ~2·K per query, dwarfed by the batched scan). bound is the
// caller's cost-horizon promise: when it knows the key is only useful
// if its cost is ≤ bound, a bound-aware backend (tables.BoundedLookuper
// — a federation) answers from the single shallowest tier covering the
// bound. bound < 0 means "no promise": the plain tiered LookupBatch.
func (s *Synthesizer) lookupRaw(ctx context.Context, key uint64, bound int) (uint16, bool, error) {
	if s.res != nil {
		v, ok := s.res.LookupRaw(key)
		return v, ok, nil
	}
	keys := [1]uint64{key}
	var vals [1]uint16
	var found [1]bool
	var err error
	if s.bounded != nil && bound >= 0 {
		err = s.bounded.LookupBatchBounded(ctx, keys[:], vals[:], found[:], bound)
	} else {
		err = s.backend.LookupBatch(ctx, keys[:], vals[:], found[:])
	}
	if err != nil {
		return 0, false, err
	}
	return vals[0], found[0], nil
}

// reconstruct builds a minimal circuit for a function whose class is in
// the table, by stripping one stored boundary element per step (paper
// Algorithm 1's recursive branch, iterative here). It reads through
// lookupRaw, so it serves local and remote backends alike.
//
// bound is the known cost of f (or -1 if unknown) and shrinks as
// elements are stripped — each remainder costs at least one less than
// the last — so against a federation every step of an easy function's
// reconstruction resolves inside the shallowest tier that holds it;
// even a hard function's chain walks down into cheaper tiers as it
// unwinds.
func (s *Synthesizer) reconstruct(ctx context.Context, f perm.Perm, bound int) (circuit.Circuit, error) {
	var front, back circuit.Circuit // back is collected in reverse
	cur := f
	for steps := 0; ; steps++ {
		if steps > 64 {
			return nil, fmt.Errorf("core: reconstruction did not terminate (corrupt table)")
		}
		if cur == perm.Identity {
			break
		}
		key := cur
		var sigma int
		var inverted bool
		if s.meta.Reduced {
			key, sigma, inverted = canon.Canonical(cur)
		}
		raw, ok, err := s.lookupRaw(ctx, uint64(key), bound)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: function %v not in table", ErrBeyondHorizon, f)
		}
		v := bfs.UnpackValue(raw)
		if v.IsIdentity {
			return nil, fmt.Errorf("core: non-identity function %v stored as identity", cur)
		}
		// The stored value names cur's true cost; the remainder after
		// stripping one boundary element costs at least one less.
		bound = v.Cost - 1
		// Translate the boundary element of the representative's circuit
		// back to cur's circuit: rep = conj(base, σ) with base = cur or
		// cur⁻¹, so cur's circuit is the σ⁻¹-conjugate of rep's —
		// reversed when base was the inverse, which also swaps the
		// first/last role of the boundary element.
		ei := v.Elem
		isFirst := v.First
		if s.meta.Reduced {
			ei = s.alphabet.ConjugateElement(ei, canon.InverseSigma(sigma))
			isFirst = v.First != inverted
		}
		e := s.alphabet.Element(ei)
		if isFirst {
			front = append(front, e.Gates...)
			cur = e.P.Then(cur) // strip λ from the front: rest = λ⁻¹ ⋄ cur
		} else {
			for j := len(e.Gates) - 1; j >= 0; j-- {
				back = append(back, e.Gates[j])
			}
			cur = cur.Then(e.P) // strip λ from the back: rest = cur ⋄ λ⁻¹
		}
	}
	out := make(circuit.Circuit, 0, len(front)+len(back))
	out = append(out, front...)
	for j := len(back) - 1; j >= 0; j-- {
		out = append(out, back[j])
	}
	return out, nil
}

// backendBatchKeys is the candidate-batch target of the remote scan: the
// number of canonical residue keys resolved per backend round trip (an
// 8 KiB request). It is sized against speculation, not round trips:
// every key of the chunk holding the scan's first hit is expanded,
// canonicalized and fetched, but only the keys up to the hit are
// committed. A loopback round trip costs a few µs, less than the wasted
// keys of a large chunk; on perfbench's fleet-mix (k = 6, 2-vCPU host)
// going from 8192 to 1024 cut the keys the shard clients resolve by a
// third for the same committed scan. A slow cross-host network shifts
// the balance back toward larger batches.
const backendBatchKeys = 1024

// SetBatchKeys overrides the candidate-batch target of the remote
// meet-in-the-middle scan (0 restores the default). Smaller batches
// trade round-trip amortization for less speculative candidate
// expansion; tests use tiny batches to force many chunks through the
// pipelined scan. Call before sharing the synthesizer across
// goroutines. It has no effect on local backends.
func (s *Synthesizer) SetBatchKeys(n int) {
	if n < 0 {
		n = 0
	}
	s.batchKeys = n
}

// backendCand pairs one candidate prefix variant with its residue,
// index-aligned with the key batch sent to the backend. rep is the
// chunk-local index of the representative the variant came from: the
// hit scan commits to the FIRST hitting variant of each representative
// and skips the rest, exactly as the local probeClass stops at its
// first Contains hit — the invariant that keeps routed answers
// byte-identical to single-host serving for weighted alphabets too.
type backendCand struct {
	q, residue perm.Perm
	rep        int
}

// backendScratch is the pooled per-query workspace of the batched scan;
// one struct holds every buffer so a remote query allocates nothing on
// the steady-state path (mirroring the router's lookupScratch pattern).
// Two representative buffers double-buffer the pipelined level scan:
// while chunk i (in one buffer) is being expanded and looked up, the
// prefetch of chunk i+1 fills the other.
type backendScratch struct {
	repBufs [2][]uint64
	keys    []uint64
	cands   []backendCand
	vals    []uint16
	found   []bool
}

func newBackendScratch(batch int) *backendScratch {
	return &backendScratch{
		repBufs: [2][]uint64{make([]uint64, batch), make([]uint64, batch)},
		keys:    make([]uint64, 0, batch),
		cands:   make([]backendCand, 0, batch),
		vals:    make([]uint16, batch),
		found:   make([]bool, batch),
	}
}

var backendScratchPool = sync.Pool{New: func() any {
	return newBackendScratch(backendBatchKeys)
}}

// levelFetch is one in-flight LevelKeys prefetch: the chunk coordinates
// it was launched for, the double buffer it fills, a completion
// channel, and a cancel releasing its fetch context. The error is only
// consulted when the chunk is actually consumed — a speculative
// prefetch the scan turned away from (a hit changed the bound) must
// not fail the query. cancel lets an abandoning scan interrupt the
// fetch instead of waiting out a stalled shard's I/O deadline.
type levelFetch struct {
	level, lo int
	buf       []uint64
	err       error
	done      chan struct{}
	cancel    context.CancelFunc
}

// discard abandons a prefetch whose result will not be used: interrupt
// its I/O and wait for the goroutine to release the shared buffer.
func (f *levelFetch) discard() {
	f.cancel()
	<-f.done
}

// synthesizeBackend answers a query against a non-local backend. Same
// algorithm as the local path — direct probe, then meet-in-the-middle
// over increasing prefix sizes — but restructured around batches: each
// iteration fetches a chunk of level representatives (one LevelKeys
// call), expands every candidate residue of the chunk, canonicalizes
// them query-side, and resolves the whole batch in one LookupBatch. Hits
// are taken in scan order, so results are identical to the sequential
// local scan.
//
// The two fetches are pipelined: the LevelKeys fetch of chunk i+1 is
// launched (into the scratch's other buffer) before chunk i's candidate
// expansion and LookupBatch run, so on a network backend the level
// iteration rides for free under the lookup round trip. Only the
// fetches overlap — chunks are still consumed and committed strictly in
// scan order, which is what preserves the byte-identical-to-local
// guarantee. A prefetch is speculative (it assumes the current chunk
// produces no scan-stopping hit); when the scan turns elsewhere its
// result, and any error it produced, are discarded.
func (s *Synthesizer) synthesizeBackend(ctx context.Context, f perm.Perm) (circuit.Circuit, Info, error) {
	var info Info
	// Algorithm 1, first branch: f is within the BFS horizon.
	key := f
	if s.meta.Reduced {
		key = canon.Rep(f)
	}
	// The direct probe is unbounded — the function's cost is exactly the
	// unknown — so a federation runs its tiered escalation here; it is
	// the one probe per query where escalation earns its keep. The hit
	// then reveals the cost, and the whole reconstruction chain is
	// bounded by it: an easy function never leaves the shallow tier.
	raw, ok, err := s.lookupRaw(ctx, uint64(key), -1)
	if err != nil {
		return nil, info, err
	}
	if ok {
		c, err := s.reconstruct(ctx, f, bfs.UnpackValue(raw).Cost)
		if err != nil {
			return nil, info, err
		}
		return c, Info{Cost: bfs.UnpackValue(raw).Cost, Direct: true}, nil
	}

	unit := s.alphabet.MaxCost() == 1
	bestTotal := -1
	var bestPrefix, bestResidue perm.Perm
	bestSplit := 0
	// Chunk the level scan so a full candidate expansion (≤ 48 variants
	// per representative when reduced) fills one lookup batch.
	variants := 48
	if !s.meta.Reduced {
		variants = 1
	}
	batch := backendBatchKeys
	if s.batchKeys != 0 {
		batch = s.batchKeys
	}
	repChunk := max(batch/variants, 1)
	// One chunk expands to at most repChunk·variants candidates — more
	// than batch when batch < variants — so the scratch must hold that,
	// not the nominal batch size.
	need := max(batch, repChunk*variants)
	var sc *backendScratch
	if need == backendBatchKeys {
		sc = backendScratchPool.Get().(*backendScratch)
		defer backendScratchPool.Put(sc)
	} else {
		sc = newBackendScratch(need) // custom size: bypass the pool
	}
	vals, found := sc.vals, sc.found

	// nextChunk names the chunk the scan will consume after (level, lo)
	// assuming the current chunk does not change the bound — the
	// prefetch target. Mirrors the loop bounds below exactly.
	counts := s.meta.LevelCounts
	nextChunk := func(level, lo int) (nl, nlo int, ok bool) {
		if lo+repChunk < counts[level] {
			return level, lo + repChunk, true
		}
		for j := level + 1; j <= s.maxSplit; j++ {
			if bestTotal >= 0 && j >= bestTotal {
				return 0, 0, false
			}
			if counts[j] > 0 {
				return j, 0, true
			}
		}
		return 0, 0, false
	}
	var pending *levelFetch
	// An outstanding prefetch writes into one of the pooled buffers:
	// never return (or reuse) the scratch until it has finished — and
	// interrupt it rather than wait, so a stalled shard cannot hold a
	// finished query (or an error return) hostage to a speculative
	// fetch whose result is already moot.
	defer func() {
		if pending != nil {
			pending.discard()
		}
	}()
	chunkNo := 0 // alternates the double buffer

scan:
	for i := 1; i <= s.maxSplit; i++ {
		if bestTotal >= 0 && i >= bestTotal {
			break // any further split costs at least i ≥ bestTotal
		}
		n := counts[i]
		for lo := 0; lo < n; lo += repChunk {
			if err := ctx.Err(); err != nil {
				return nil, info, fmt.Errorf("core: query aborted: %w", err)
			}
			m := min(repChunk, n-lo)
			var chunk []uint64
			if pending != nil && pending.level == i && pending.lo == lo {
				<-pending.done
				pending.cancel() // release the fetch context
				if pending.err != nil {
					err := pending.err
					pending = nil
					return nil, info, err
				}
				chunk = pending.buf
				pending = nil
			} else {
				if pending != nil {
					// Stale speculative prefetch (a weighted-alphabet hit
					// moved the bound): interrupt it so its buffer is
					// free, then drop it — result and error both.
					pending.discard()
					pending = nil
				}
				buf := sc.repBufs[chunkNo&1][:m]
				if err := s.backend.LevelKeys(ctx, i, lo, buf); err != nil {
					return nil, info, err
				}
				chunk = buf
			}
			chunkNo++
			// Launch the next chunk's LevelKeys before this chunk's
			// expansion and LookupBatch: on a remote backend the two
			// round trips overlap.
			if nl, nlo, ok := nextChunk(i, lo); ok {
				nm := min(repChunk, counts[nl]-nlo)
				fctx, cancel := context.WithCancel(ctx)
				pf := &levelFetch{
					level: nl, lo: nlo,
					buf:    sc.repBufs[chunkNo&1][:nm],
					done:   make(chan struct{}),
					cancel: cancel,
				}
				go func() {
					pf.err = s.backend.LevelKeys(fctx, pf.level, pf.lo, pf.buf)
					close(pf.done)
				}()
				pending = pf
			}
			keys, cands := sc.keys[:0], sc.cands[:0]
			for ri, rk := range chunk {
				rep := perm.Perm(rk)
				if !s.meta.Reduced {
					r := rep.Then(f)
					keys = append(keys, uint64(r))
					cands = append(cands, backendCand{q: rep, residue: r, rep: ri})
					continue
				}
				canon.ForEachVariant(rep, func(v perm.Perm) bool {
					r := v.Then(f)
					keys = append(keys, uint64(canon.Rep(r)))
					cands = append(cands, backendCand{q: v, residue: r, rep: ri})
					return true
				})
			}
			sc.keys, sc.cands = keys, cands
			// Scan batches are bounded by the full table depth: that is no
			// relaxation (every stored class costs ≤ K) but it routes a
			// federation straight to its one authoritative tier — a scan
			// probes each candidate exactly once instead of walking misses
			// through the whole tier chain. The bound must NOT be tightened
			// to bestTotal−i−1: dropping a representative's first hitting
			// variant would let a later variant commit instead, breaking
			// byte-identity with the local scan for weighted alphabets.
			var lerr error
			if s.bounded != nil {
				lerr = s.bounded.LookupBatchBounded(ctx, keys, vals[:len(keys)], found[:len(keys)], s.meta.K)
			} else {
				lerr = s.backend.LookupBatch(ctx, keys, vals[:len(keys)], found[:len(keys)])
			}
			if lerr != nil {
				return nil, info, lerr
			}
			hitRep := -1
			for j := range keys {
				if cands[j].rep == hitRep {
					// The local probeClass stops probing a representative at
					// its first hitting variant; replicate that by skipping
					// the rest of a committed representative's candidates —
					// they were sent (batched speculatively) but must not
					// influence the answer. Candidate accounting matches the
					// local scan for the same reason.
					continue
				}
				info.Candidates++
				if !found[j] {
					continue
				}
				hitRep = cands[j].rep
				total := i + bfs.UnpackValue(vals[j]).Cost
				if bestTotal < 0 || total < bestTotal {
					bestTotal = total
					bestPrefix = cands[j].q.Inverse()
					bestResidue = cands[j].residue
					bestSplit = i
				}
				if unit {
					// First hit in scan order at the first hitting prefix
					// size is provably minimal for unit costs — exactly the
					// sequential local scan's break.
					break scan
				}
			}
		}
	}
	if bestTotal < 0 {
		return nil, info, fmt.Errorf("%w (horizon %d)", ErrBeyondHorizon, s.Horizon())
	}
	pc, err := s.reconstruct(ctx, bestPrefix, bestSplit)
	if err != nil {
		return nil, info, err
	}
	rc, err := s.reconstruct(ctx, bestResidue, bestTotal-bestSplit)
	if err != nil {
		return nil, info, err
	}
	out := append(pc, rc...)
	info.Cost = bestTotal
	info.SplitPrefix = bestSplit
	return out, info, nil
}
