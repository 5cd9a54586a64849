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
// Every query reads the tables through one tables.Backend — in-process,
// a remote shard server, a router or a federation alike — and runs the
// same chunked scan: a chunk of level representatives is expanded into
// candidate residues, canonicalized query-side and resolved in one
// LookupBatch, and hits commit in scan order. Large levels fan their
// chunks out over Workers() goroutines and still commit in chunk order,
// so a query's circuit is identical for every backend and every worker
// count.
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
	// runtime.GOMAXPROCS(0). Queries answer identically for every value.
	// The parallel BFS may store different (equally minimal) boundary
	// gates than the sequential one, so only Workers = 1 reproduces the
	// sequential build's tables exactly.
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
	// res is the in-process tables when the backend is tables.Localized,
	// nil otherwise. Queries never read its tables — they go through
	// backend — but Result() exposes them, and its presence picks the
	// one-representative chunk of the sequential scan (no round trip to
	// amortize).
	res      *bfs.Result
	maxSplit int
	// workers is the meet-in-the-middle fan-out of levels of at least
	// parallelQueryThreshold representatives; ≤ 0 resolves to
	// runtime.GOMAXPROCS(0) at query time. It never changes an answer.
	workers int
	// batchKeys overrides backendBatchKeys for the sequential remote scan
	// when non-zero (see SetBatchKeys).
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
// (tables.Local), a single remote shard server, or a shard-by-key
// router. alphabet is the building-block set the tables were built over
// (nil: the 32-gate library); it must match the backend's fingerprint —
// the alphabet is code, only its fingerprint travels with the tables.
//
// The meet-in-the-middle scan batches: each chunk of level
// representatives is fetched with one LevelKeys call and every candidate
// residue of the chunk resolved in one LookupBatch. Against a remote
// backend a chunk fills backendBatchKeys keys, amortizing the per-key
// network cost about a thousand-fold; in process a chunk is one
// representative. Scan order, and therefore the returned circuit, is the
// same for every backend, which is what makes shard deployments
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
// negative: runtime.GOMAXPROCS(0)); answers are identical for every
// value. Call before sharing the synthesizer across goroutines; queries
// themselves are always safe concurrently.
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

// SynthesizeInfoCtx is SynthesizeInfo with cancellation. The scan checks
// ctx before every chunk, so cancellation latency is one chunk's work
// (microseconds in process, one round trip remotely); the error returned
// on abort is ctx.Err() (wrapped), testable with errors.Is(err,
// context.Canceled) or context.DeadlineExceeded.
func (s *Synthesizer) SynthesizeInfoCtx(ctx context.Context, f perm.Perm) (circuit.Circuit, Info, error) {
	if !f.IsValid() {
		return nil, Info{}, ErrInvalidFunction
	}
	sc := s.scratch()
	defer putScratch(sc)
	var info Info
	// Algorithm 1, first branch: f is within the BFS horizon.
	head := s.canonical(f)
	// The direct probe is unbounded — the function's cost is exactly the
	// unknown — so a federation runs its tiered escalation here; it is
	// the one probe per query where escalation earns its keep. The hit
	// then reveals the cost, and the rest of the reconstruction chain is
	// bounded by it: an easy function never leaves the shallow tier. The
	// hit is also the chain's step 0 — a bounded probe of the same key
	// would resolve in the same tier — so it is not looked up again.
	raw, ok, err := s.lookupRaw(ctx, sc, uint64(head.key), -1)
	if err != nil {
		return nil, info, err
	}
	if ok {
		head.raw = raw
		cost := bfs.UnpackValue(raw).Cost
		c, err := s.reconstruct(ctx, sc, f, cost, &head)
		if err != nil {
			return nil, info, err
		}
		return c, Info{Cost: cost, Direct: true}, nil
	}

	// Meet in the middle: try prefix costs in increasing order. For unit
	// costs the first hit in scan order is provably minimal (smaller
	// prefix sizes having missed bounds every residue cost); weighted
	// alphabets keep scanning while a shorter total is still possible.
	unit := s.alphabet.MaxCost() == 1
	workers := s.Workers()
	best := split{total: -1}
	for i := 1; i <= s.maxSplit; i++ {
		if best.total >= 0 && i >= best.total {
			break // any further split costs at least i ≥ best.total
		}
		var lh split
		var cands int64
		if workers > 1 && s.meta.LevelCounts[i] >= parallelQueryThreshold {
			lh, cands, err = s.scanParallel(ctx, f, i, unit, workers)
		} else {
			lh, cands, err = s.scanSequential(ctx, sc, f, i, unit)
		}
		info.Candidates += cands
		if err != nil {
			return nil, info, err
		}
		if lh.beats(best) {
			best = lh
		}
		if unit && best.total >= 0 {
			break
		}
	}
	if best.total < 0 {
		return nil, info, fmt.Errorf("%w (horizon %d)", ErrBeyondHorizon, s.Horizon())
	}
	pc, err := s.reconstruct(ctx, sc, best.prefix, best.level, nil)
	if err != nil {
		return nil, info, err
	}
	rc, err := s.reconstruct(ctx, sc, best.residue, best.total-best.level, nil)
	if err != nil {
		return nil, info, err
	}
	out := append(pc, rc...)
	info.Cost = best.total
	info.SplitPrefix = best.level
	return out, info, nil
}

// split is a meet-in-the-middle answer f = prefix ⋄ residue, the prefix
// of cost level; total is the split's cost, or -1 for no hit.
type split struct {
	total, level    int
	prefix, residue perm.Perm
}

// beats reports whether a is strictly cheaper than b. Every scan folds
// its hits in scan order with this rule, so of equally cheap splits the
// first one scanned wins.
func (a split) beats(b split) bool {
	return a.total >= 0 && (b.total < 0 || a.total < b.total)
}

// parallelQueryThreshold is the minimum representative-list length worth
// fanning out over goroutines; smaller levels (sizes 1–3 have at most a
// few hundred classes) are scanned inline to keep short queries at
// microsecond latency.
const parallelQueryThreshold = 512

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

// SetBatchKeys overrides the candidate-batch target of the sequential
// meet-in-the-middle scan over a remote backend (0 restores the
// default). Smaller batches trade round-trip amortization for less
// speculative candidate expansion; tests use tiny batches to force many
// chunks through the scan. Call before sharing the synthesizer across
// goroutines. It has no effect on local backends, which scan one
// representative per chunk, nor on parallel level scans, whose chunks
// are always one default batch.
func (s *Synthesizer) SetBatchKeys(n int) {
	if n < 0 {
		n = 0
	}
	s.batchKeys = n
}

// variants is how many candidate prefixes one representative expands to
// at most: its ≤ 48 wire-relabeling/inversion variants, or just itself
// in unreduced tables.
func (s *Synthesizer) variants() int {
	if s.meta.Reduced {
		return 48
	}
	return 1
}

// seqChunkReps is the number of representatives one chunk of the
// sequential scan expands. An in-process backend has no round trip to
// amortize, so it takes one representative at a time and expands no
// representative past the hitting one; a remote backend fills a batch.
func (s *Synthesizer) seqChunkReps() int {
	if s.res != nil {
		return 1
	}
	batch := backendBatchKeys
	if s.batchKeys != 0 {
		batch = s.batchKeys
	}
	return max(batch/s.variants(), 1)
}

// backendCand pairs one candidate prefix variant with its residue,
// index-aligned with the key batch sent to the backend. rep is the
// chunk-local index of the representative the variant came from: a
// chunk commits to the FIRST hitting variant of each representative and
// skips the rest, so neither the chunk size nor the batching changes
// which circuit comes back — for weighted alphabets too.
type backendCand struct {
	q, residue perm.Perm
	rep        int
}

// backendScratch is the pooled per-query workspace: the buffers of one
// scan chunk, which lookupRaw also borrows as its batch of one. One
// struct holds every buffer, so a query allocates nothing on the
// steady-state path (mirroring the router's lookupScratch pattern).
type backendScratch struct {
	reps  []uint64
	keys  []uint64
	cands []backendCand
	vals  []uint16
	found []bool
}

func newBackendScratch(batch int) *backendScratch {
	return &backendScratch{
		reps:  make([]uint64, batch),
		keys:  make([]uint64, 0, batch),
		cands: make([]backendCand, 0, batch),
		vals:  make([]uint16, batch),
		found: make([]bool, batch),
	}
}

// pooledScratch is a default-size backendScratch whose buffers live in
// the same allocation, so a pool miss costs one allocation, not six.
type pooledScratch struct {
	backendScratch
	repsBuf, keysBuf [backendBatchKeys]uint64
	candsBuf         [backendBatchKeys]backendCand
	valsBuf          [backendBatchKeys]uint16
	foundBuf         [backendBatchKeys]bool
}

var backendScratchPool = sync.Pool{New: func() any {
	p := new(pooledScratch)
	p.backendScratch = backendScratch{
		reps:  p.repsBuf[:],
		keys:  p.keysBuf[:0],
		cands: p.candsBuf[:0],
		vals:  p.valsBuf[:],
		found: p.foundBuf[:],
	}
	return &p.backendScratch
}}

// scratch returns a workspace holding one chunk of the sequential scan:
// pooled at the default batch size, allocated for a larger SetBatchKeys
// override. One chunk expands to at most seqChunkReps·variants
// candidates — more than the batch when the batch is below one
// representative's expansion.
func (s *Synthesizer) scratch() *backendScratch {
	if need := s.seqChunkReps() * s.variants(); need > backendBatchKeys {
		return newBackendScratch(need)
	}
	return backendScratchPool.Get().(*backendScratch)
}

// putScratch returns a pooled workspace; custom-sized ones are dropped.
func putScratch(sc *backendScratch) {
	if len(sc.vals) == backendBatchKeys {
		backendScratchPool.Put(sc)
	}
}

// scanChunk is one step of Algorithm 1's scan: it reads representatives
// [lo, lo+m) of a level, expands each into its candidate prefixes p =
// q⁻¹ and residues q ⋄ f (canonicalized query-side), resolves every
// residue in one LookupBatch, and returns the chunk's first cheapest
// split in scan order — for unit costs simply its first hit — together
// with the number of candidates it commits. Both scan drivers are built
// from it, which is what makes their answers identical.
func (s *Synthesizer) scanChunk(ctx context.Context, sc *backendScratch, f perm.Perm, level, lo, m int, unit bool) (best split, cands int64, err error) {
	best.total = -1
	if err := ctx.Err(); err != nil {
		return best, 0, fmt.Errorf("core: query aborted: %w", err)
	}
	reps := sc.reps[:m]
	if err := s.backend.LevelKeys(ctx, level, lo, reps); err != nil {
		return best, 0, err
	}
	keys, cs := sc.keys[:0], sc.cands[:0]
	for ri, rk := range reps {
		rep := perm.Perm(rk)
		if !s.meta.Reduced {
			r := rep.Then(f)
			keys = append(keys, uint64(r))
			cs = append(cs, backendCand{q: rep, residue: r, rep: ri})
			continue
		}
		canon.ForEachVariant(rep, func(v perm.Perm) bool {
			r := v.Then(f)
			keys = append(keys, uint64(canon.Rep(r)))
			cs = append(cs, backendCand{q: v, residue: r, rep: ri})
			return true
		})
	}
	sc.keys, sc.cands = keys, cs
	vals, found := sc.vals[:len(keys)], sc.found[:len(keys)]
	// Scan batches are bounded by the full table depth: that is no
	// relaxation (every stored class costs ≤ K) but it routes a
	// federation straight to its one authoritative tier — a scan probes
	// each candidate exactly once instead of walking misses through the
	// whole tier chain. The bound must NOT be tightened to the best total
	// so far: dropping a representative's first hitting variant would let
	// a later variant commit instead, changing the answer for weighted
	// alphabets.
	if s.bounded != nil {
		err = s.bounded.LookupBatchBounded(ctx, keys, vals, found, s.meta.K)
	} else {
		err = s.backend.LookupBatch(ctx, keys, vals, found)
	}
	if err != nil {
		return best, 0, err
	}
	hitRep := -1
	for j := range keys {
		if cs[j].rep == hitRep {
			// A representative's candidates after its first hitting
			// variant were expanded and sent, but commit nothing.
			continue
		}
		cands++
		if !found[j] {
			continue
		}
		hitRep = cs[j].rep
		h := split{
			total:   level + bfs.UnpackValue(vals[j]).Cost,
			level:   level,
			prefix:  cs[j].q.Inverse(),
			residue: cs[j].residue,
		}
		if h.beats(best) {
			best = h
		}
		if unit {
			break
		}
	}
	return best, cands, nil
}

// scanSequential scans one level chunk by chunk on the calling
// goroutine, returning its first cheapest split and the candidates
// committed.
func (s *Synthesizer) scanSequential(ctx context.Context, sc *backendScratch, f perm.Perm, level int, unit bool) (best split, cands int64, err error) {
	best.total = -1
	n, step := s.meta.LevelCounts[level], s.seqChunkReps()
	for lo := 0; lo < n; lo += step {
		h, c, err := s.scanChunk(ctx, sc, f, level, lo, min(step, n-lo), unit)
		cands += c
		if err != nil {
			return best, cands, err
		}
		if h.beats(best) {
			best = h
		}
		if unit && best.total >= 0 {
			break
		}
	}
	return best, cands, nil
}

// scanParallel is scanSequential fanned out over workers, with the same
// answer. Workers claim chunk indices in ascending order from an atomic
// cursor; a unit-cost hit or a failure at chunk c stops all claims past
// c, while every lower chunk — already claimed — still finishes. The
// outcomes then commit in chunk order: the cheapest split with the
// lowest chunk index wins (exactly the sequential strict-< fold), the
// candidates of chunks up to the committed unit hit are counted, and a
// failure is reported only if no earlier chunk holds that hit.
func (s *Synthesizer) scanParallel(ctx context.Context, f perm.Perm, level int, unit bool, workers int) (split, int64, error) {
	n := s.meta.LevelCounts[level]
	step := backendBatchKeys / s.variants()
	chunks := (n + step - 1) / step
	counts := make([]int32, chunks) // candidates committed per chunk
	var (
		cursor, limit atomic.Int64 // next chunk to claim; claims stop at limit
		mu            sync.Mutex
		best          = split{total: -1}
		bestChunk     int
		firstErr      error
		errChunk      = chunks
		wg            sync.WaitGroup
	)
	limit.Store(int64(chunks))
	// lower stops claims past chunk c.
	lower := func(c int) {
		for {
			l := limit.Load()
			if int64(c+1) >= l || limit.CompareAndSwap(l, int64(c+1)) {
				return
			}
		}
	}
	work := func() {
		sc := backendScratchPool.Get().(*backendScratch)
		defer backendScratchPool.Put(sc)
		for {
			c := int(cursor.Add(1) - 1)
			if int64(c) >= limit.Load() {
				return
			}
			lo := c * step
			h, k, err := s.scanChunk(ctx, sc, f, level, lo, min(step, n-lo), unit)
			counts[c] = int32(k)
			if err == nil && h.total < 0 {
				continue
			}
			mu.Lock()
			if err != nil {
				if c < errChunk {
					firstErr, errChunk = err, c
				}
			} else if h.beats(best) || h.total == best.total && c < bestChunk {
				best, bestChunk = h, c
			}
			mu.Unlock()
			if err != nil || unit {
				lower(c)
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	sum := func(n int) (cands int64) {
		for _, k := range counts[:n] {
			cands += int64(k)
		}
		return cands
	}
	committed := chunks // the chunks whose candidates count
	if unit && best.total >= 0 {
		committed = bestChunk + 1
	}
	if errChunk < committed {
		return split{total: -1}, sum(errChunk), firstErr
	}
	return best, sum(committed), nil
}

// lookupRaw probes one canonical key through the backend as a batch of
// one, in the query's pooled scratch: the buffers escape through the
// Backend interface call, so a batch of one on the stack would cost
// three allocations per lookup. (Reconstruction is a dependent chain,
// so singles are unavoidable — at most ~2·K per query, dwarfed by the
// batched scan.) It serves the direct probe, whose hit is also the
// reconstruction's step 0, and every later step. bound is the caller's
// cost-horizon promise: when it knows the key is only useful if its
// cost is ≤ bound, a bound-aware backend (tables.BoundedLookuper — a
// federation) answers from the single shallowest tier covering the
// bound. bound < 0 means "no promise": the plain tiered LookupBatch.
func (s *Synthesizer) lookupRaw(ctx context.Context, sc *backendScratch, key uint64, bound int) (uint16, bool, error) {
	keys, vals, found := sc.keys[:1], sc.vals[:1], sc.found[:1]
	keys[0] = key
	var err error
	if s.bounded != nil && bound >= 0 {
		err = s.bounded.LookupBatchBounded(ctx, keys, vals, found, bound)
	} else {
		err = s.backend.LookupBatch(ctx, keys, vals, found)
	}
	if err != nil {
		return 0, false, err
	}
	return vals[0], found[0], nil
}

// classHit is one resolved reconstruction step: the stored key of a
// function's class with the canonicalization witness (σ, inverted) that
// maps the function onto it, and — once looked up — its packed value.
type classHit struct {
	key      perm.Perm
	sigma    int
	inverted bool
	raw      uint16
}

// canonical returns f's table key and witness; unreduced tables store
// every function as itself.
func (s *Synthesizer) canonical(f perm.Perm) classHit {
	if !s.meta.Reduced {
		return classHit{key: f}
	}
	key, sigma, inverted := canon.Canonical(f)
	return classHit{key: key, sigma: sigma, inverted: inverted}
}

// reconstruct builds a minimal circuit for a function whose class is in
// the table, by stripping one stored boundary element per step (paper
// Algorithm 1's recursive branch, iterative here). It reads through
// lookupRaw, one key at a time, in the query's scratch. head, when not
// nil, is step 0 already resolved — the direct probe's hit on f's own
// class — so the chain starts at step 1.
//
// bound is the known cost of f (or -1 if unknown) and shrinks as
// elements are stripped — each remainder costs at least one less than
// the last — so against a federation every step of an easy function's
// reconstruction resolves inside the shallowest tier that holds it;
// even a hard function's chain walks down into cheaper tiers as it
// unwinds.
func (s *Synthesizer) reconstruct(ctx context.Context, sc *backendScratch, f perm.Perm, bound int, head *classHit) (circuit.Circuit, error) {
	var front, back circuit.Circuit // back is collected in reverse
	cur := f
	for steps := 0; ; steps++ {
		if steps > 64 {
			return nil, fmt.Errorf("core: reconstruction did not terminate (corrupt table)")
		}
		if cur == perm.Identity {
			break
		}
		var hit classHit
		if steps == 0 && head != nil {
			hit = *head
		} else {
			hit = s.canonical(cur)
			raw, ok, err := s.lookupRaw(ctx, sc, uint64(hit.key), bound)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("%w: function %v not in table", ErrBeyondHorizon, f)
			}
			hit.raw = raw
		}
		v := bfs.UnpackValue(hit.raw)
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
			ei = s.alphabet.ConjugateElement(ei, canon.InverseSigma(hit.sigma))
			isFirst = v.First != hit.inverted
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
