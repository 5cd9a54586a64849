package tablenet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hashtab"
	"repro/internal/tables"
)

// Router composes a fleet of shard backends into one tables.Backend by
// partitioning the canonical-representative key space on the high bits
// of the Wang hash — the same bits the in-process sharded hash table
// routes by, so the partition is uniform for exactly the same reason the
// shard locks were. Each LookupBatch is split by key owner and fanned
// out to the owning ranges concurrently, then scattered back in place;
// a batch therefore costs one round trip regardless of range count.
//
// Every shard serves the same store (the v2 table file is cheap to
// replicate; it is the HOT set that doesn't fit one host), so the
// routing's effect is page-cache partitioning: a range's replicas only
// ever probe their hash range, and their mmap'd resident sets converge
// to ~1/N of the table. Level-range reads are not keyed, so they
// round-robin across all replicas with failover — any replica can serve
// them.
//
// Each hash range may be served by several replicas. Because every
// request is an idempotent read of an immutable table generation, a
// sub-batch that fails on one replica with a transport-class error
// (see retryable) fails over to a sibling replica instead of failing
// the query. A per-replica health tracker (healthTracker) orders the
// failover healthy-first and ejects replicas that fail repeatedly, so
// steady-state traffic does not keep paying a dead replica's timeout;
// a background prober re-admits replicas as they recover.
type Router struct {
	groups [][]tables.Backend
	health [][]*healthTracker
	addrs  [][]string
	meta   tables.Meta
	opts   RouterOptions
	// split records that at least one replica owns less than the full
	// hash space: level iteration must then fan out sparse per-range
	// reads and merge them by global position instead of asking any one
	// replica for the dense range.
	split bool

	rr            atomic.Uint64   // level-read rotation over all replicas
	grpRR         []atomic.Uint64 // per-range replica rotation for lookups
	drainRerouted atomic.Uint64   // sub-batches steered away from draining replicas

	stop     chan struct{}
	stopOnce sync.Once
	probeWG  sync.WaitGroup
}

// RouterOptions tunes the router's health tracking. The zero value
// picks the defaults.
type RouterOptions struct {
	// EjectAfter is the consecutive-failure count that ejects a replica
	// (default DefaultEjectAfter).
	EjectAfter int
	// EjectBase is the first ejection window; each consecutive ejection
	// doubles it up to EjectMax (defaults DefaultEjectBase /
	// DefaultEjectMax).
	EjectBase time.Duration
	EjectMax  time.Duration
	// ProbeInterval is the background re-admission prober's period; it
	// pings non-healthy network replicas so recovery is noticed without
	// spending query traffic on trials. 0 means DefaultProbeInterval;
	// negative disables the prober (recovery then rides on half-open
	// trial requests alone — the mode unit tests use).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each background probe and each Check probe
	// (default DefaultProbeTimeout).
	ProbeTimeout time.Duration
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.EjectAfter <= 0 {
		o.EjectAfter = DefaultEjectAfter
	}
	if o.EjectBase <= 0 {
		o.EjectBase = DefaultEjectBase
	}
	if o.EjectMax <= 0 {
		o.EjectMax = DefaultEjectMax
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = DefaultProbeInterval
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = DefaultProbeTimeout
	}
	return o
}

// ShardOf returns the owning hash range of a table key among n ranges:
// a range partition of the high 32 Wang-hash bits, so any range count
// (not just powers of two) splits the space evenly.
func ShardOf(key uint64, n int) int {
	h := hashtab.Hash64Shift(key)
	return int(uint64(uint32(h>>32)) * uint64(n) >> 32)
}

// NewRouter builds a router with one replica per hash range — the
// unreplicated fleet shape earlier revisions exposed directly.
func NewRouter(shards []tables.Backend) (*Router, error) {
	groups := make([][]tables.Backend, len(shards))
	for i, sh := range shards {
		groups[i] = []tables.Backend{sh}
	}
	return NewReplicatedRouter(groups, RouterOptions{})
}

// NewReplicatedRouter builds a router over groups[range][replica]. All
// backends must serve the same logical table set (same horizon,
// reduction, entries, level counts, and alphabet fingerprint) — a
// mixed-generation fleet would answer queries inconsistently, so it is
// rejected here, at wiring time. A replica that reports an owned key
// range (tables.RangeOwner — split stores and their network clients do)
// must cover the hash range it is wired into, or the wiring is refused
// with ErrOwnership: a split file mounted at the wrong fleet position
// would otherwise answer not-found for keys the fleet holds.
func NewReplicatedRouter(groups [][]tables.Backend, opts RouterOptions) (*Router, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("tablenet: router needs at least one hash range")
	}
	for g, reps := range groups {
		if len(reps) == 0 {
			return nil, fmt.Errorf("tablenet: hash range %d has no replicas", g)
		}
	}
	opts = opts.withDefaults()
	meta := groups[0][0].Meta()
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	r := &Router{
		groups: groups,
		health: make([][]*healthTracker, len(groups)),
		addrs:  make([][]string, len(groups)),
		opts:   opts,
		grpRR:  make([]atomic.Uint64, len(groups)),
		stop:   make(chan struct{}),
	}
	flat := 0
	for g, reps := range groups {
		r.health[g] = make([]*healthTracker, len(reps))
		r.addrs[g] = make([]string, len(reps))
		wiredLo, wiredHi := tables.RangeOf(g, len(groups))
		for i, b := range reps {
			if g+i > 0 && !meta.Compatible(b.Meta()) {
				return nil, fmt.Errorf("tablenet: range %d replica %d serves a different table set than range 0 replica 0", g, i)
			}
			r.health[g][i] = newHealthTracker(opts.EjectAfter, opts.EjectBase, opts.EjectMax)
			r.addrs[g][i] = backendAddr(b, flat)
			if ro, ok := b.(tables.RangeOwner); ok {
				olo, ohi := ro.OwnedRange()
				if olo > wiredLo || ohi < wiredHi {
					return nil, fmt.Errorf("%w: range %d replica %s owns [%#x, %#x), wired for [%#x, %#x)", ErrOwnership, g, r.addrs[g][i], olo, ohi, wiredLo, wiredHi)
				}
				if olo != 0 || ohi != tables.RangeSpace {
					r.split = true
				}
			}
			flat++
		}
	}
	m := meta
	m.LevelCounts = append([]int(nil), meta.LevelCounts...)
	m.Source = fmt.Sprintf("router(%d)", len(groups))
	if flat > len(groups) {
		m.Source = fmt.Sprintf("router(%d x%d)", len(groups), flat)
	}
	r.meta = m
	if opts.ProbeInterval > 0 && flat > len(groups) {
		r.probeWG.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// backendAddr names a backend for statuses and errors.
func backendAddr(b tables.Backend, i int) string {
	if a, ok := b.(interface{ Addr() string }); ok {
		return a.Addr()
	}
	return fmt.Sprintf("local[%d]", i)
}

// Meta returns the (shared) table metadata.
func (r *Router) Meta() tables.Meta { return r.meta }

// lookupScratch is pooled per-call partition workspace.
type lookupScratch struct {
	idx  [][]int // per-range indices into the caller's batch
	keys []uint64
	vals []uint16
	ok   []bool
}

var lookupPool = sync.Pool{New: func() any { return new(lookupScratch) }}

// LookupBatch partitions the batch by key owner and resolves every
// sub-batch concurrently against its range's replicas. Results land
// exactly where a single backend would have put them, so callers cannot
// tell a router from a table. The first sub-batch to fail terminally
// cancels its siblings — once the batch's outcome is decided, the
// remaining sub-lookups are wasted wire traffic.
//
// A batch whose keys all fall in one range — every batch of one, so
// every direct probe and reconstruction step — runs inline on the
// caller's goroutine, straight into the caller's slices: no scratch,
// goroutine or cancel context.
func (r *Router) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	if len(vals) != len(keys) || len(found) != len(keys) {
		return fmt.Errorf("tablenet: LookupBatch slice lengths differ (%d/%d/%d)", len(keys), len(vals), len(found))
	}
	n := len(r.groups)
	if n == 1 && len(r.groups[0]) == 1 {
		return r.groups[0][0].LookupBatch(ctx, keys, vals, found)
	}
	if len(keys) == 0 {
		return nil
	}
	if g, ok := r.singleRange(keys); ok {
		return r.groupLookup(ctx, g, keys, vals, found)
	}
	return r.fanOut(ctx, keys, vals, found)
}

// fanOut resolves a batch spanning several hash ranges: one goroutine
// per non-empty range, each on its own window of pooled scratch, the
// first terminal failure cancelling the rest. It is a separate function
// so that its cancel context, which the goroutines capture, does not
// move the single-range path's ctx to the heap.
func (r *Router) fanOut(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	n := len(r.groups)
	sc := lookupPool.Get().(*lookupScratch)
	defer lookupPool.Put(sc)
	if len(sc.idx) < n {
		sc.idx = make([][]int, n)
	}
	idx := sc.idx[:n]
	for g := range idx {
		idx[g] = idx[g][:0]
	}
	for i, k := range keys {
		g := ShardOf(k, n)
		idx[g] = append(idx[g], i)
	}
	if cap(sc.keys) < len(keys) {
		sc.keys = make([]uint64, len(keys))
		sc.vals = make([]uint16, len(keys))
		sc.ok = make([]bool, len(keys))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Slice the shared scratch into disjoint per-range windows laid out
	// in range order, so the concurrent sub-lookups never overlap.
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	off := 0
	for g := 0; g < n; g++ {
		ids := idx[g]
		if len(ids) == 0 {
			continue
		}
		subKeys := sc.keys[off : off+len(ids)]
		subVals := sc.vals[off : off+len(ids)]
		subOK := sc.ok[off : off+len(ids)]
		off += len(ids)
		for j, i := range ids {
			subKeys[j] = keys[i]
		}
		wg.Add(1)
		go func(g int, ids []int, subKeys []uint64, subVals []uint16, subOK []bool) {
			defer wg.Done()
			if err := r.groupLookup(ctx, g, subKeys, subVals, subOK); err != nil {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
			for j, i := range ids {
				vals[i] = subVals[j]
				found[i] = subOK[j]
			}
		}(g, ids, subKeys, subVals, subOK)
	}
	wg.Wait()
	return firstErr
}

// singleRange reports the one hash range owning every key of a
// non-empty batch, if there is one.
func (r *Router) singleRange(keys []uint64) (int, bool) {
	n := len(r.groups)
	g := ShardOf(keys[0], n)
	for _, k := range keys[1:] {
		if ShardOf(k, n) != g {
			return 0, false
		}
	}
	return g, true
}

// groupLookup resolves one range's sub-batch, failing over across the
// range's replicas on transport-class errors. Replica order is
// healthy-first (rotated per range so load spreads), then half-open
// trials, then ejected replicas as a last resort — a batch prefers a
// known-good replica but never fails while any replica can answer.
func (r *Router) groupLookup(ctx context.Context, g int, keys []uint64, vals []uint16, found []bool) error {
	reps := r.groups[g]
	if len(reps) == 1 {
		return r.tryReplica(ctx, g, 0, keys, vals, found)
	}
	order, trials := r.replicaOrder(g)
	var errs []error
	for _, i := range order {
		if cerr := ctx.Err(); cerr != nil {
			r.releaseTrials(g, trials)
			return cerr
		}
		delete(trials, i)
		err := r.tryReplica(ctx, g, i, keys, vals, found)
		if err == nil {
			r.releaseTrials(g, trials)
			return nil
		}
		if ctx.Err() != nil || !retryable(err) {
			r.releaseTrials(g, trials)
			return err
		}
		errs = append(errs, err)
	}
	return fmt.Errorf("tablenet: range %d: all %d replicas failed: %w", g, len(reps), errors.Join(errs...))
}

// tryReplica runs one replica attempt and feeds its outcome to the
// health tracker. Outcomes under a dead ctx are not attributed to the
// replica — a cancelled batch says nothing about replica health.
func (r *Router) tryReplica(ctx context.Context, g, i int, keys []uint64, vals []uint16, found []bool) error {
	err := r.groups[g][i].LookupBatch(ctx, keys, vals, found)
	if ctx.Err() == nil {
		r.health[g][i].observe(err == nil || !retryable(err), time.Now())
	}
	if err != nil {
		return fmt.Errorf("%s: %w", r.addrs[g][i], err)
	}
	return nil
}

// drainReporter is implemented by backends that track their shard's
// announced drain state (network clients do).
type drainReporter interface{ Draining() bool }

func isDraining(b tables.Backend) bool {
	d, ok := b.(drainReporter)
	return ok && d.Draining()
}

// replicaOrder returns range g's replicas in failover order: healthy
// non-draining first (rotated), then admitted half-open trials, then
// draining replicas (they still answer — in-flight work finishes during
// a drain — but new sub-batches should land on siblings), then ejected
// replicas as a last resort. trials holds the indices this caller was
// admitted for — any it does not actually attempt must be released.
func (r *Router) replicaOrder(g int) (order []int, trials map[int]struct{}) {
	reps := r.groups[g]
	n := len(reps)
	start := int(r.grpRR[g].Add(1)-1) % n
	now := time.Now()
	order = make([]int, 0, n)
	var trialL, drainL, rest []int
	for s := 0; s < n; s++ {
		i := (start + s) % n
		ok, trial := r.health[g][i].allow(now)
		switch {
		case ok && trial:
			if trials == nil {
				trials = make(map[int]struct{})
			}
			trials[i] = struct{}{}
			trialL = append(trialL, i)
		case ok && isDraining(reps[i]):
			drainL = append(drainL, i)
		case ok:
			order = append(order, i)
		default:
			rest = append(rest, i)
		}
	}
	if len(drainL) > 0 && len(order) > 0 {
		// A draining replica was demoted behind a live sibling: this
		// sub-batch was rerouted by the drain, not by a fault.
		r.drainRerouted.Add(1)
	}
	order = append(order, trialL...)
	order = append(order, drainL...)
	return append(order, rest...), trials
}

// releaseTrials reopens half-open trial slots this caller claimed but
// never used.
func (r *Router) releaseTrials(g int, trials map[int]struct{}) {
	for i := range trials {
		r.health[g][i].release()
	}
}

// LevelKeys serves a level-range read. In a fleet of full-store
// replicas the request is not keyed (every replica holds the full level
// index), so it forwards to one replica, round-robin over the whole
// fleet, with failover. In a split fleet no single replica holds the
// dense range: the read fans out one sparse request per hash range —
// each filtered to that range's interval, so even a full-store replica
// wired into the topology contributes exactly its range's slice — and
// the (global position, key) pairs merge back in place, with a coverage
// check that every slot was filled exactly once.
//
// The rotation is health- and drain-aware — ejected and draining
// replicas sort last, so steady-state level reads never pay a dead
// replica's retry cycle — and half-open trials admit one probe read when
// an ejection window expires. A request fails only when every replica
// does, and the error then names each failing replica.
func (r *Router) LevelKeys(ctx context.Context, c, lo int, out []uint64) error {
	if r.split {
		return r.levelKeysSparse(ctx, c, lo, out)
	}
	type ref struct{ g, i int }
	var flat []ref
	for g, reps := range r.groups {
		for i := range reps {
			flat = append(flat, ref{g, i})
		}
	}
	n := len(flat)
	start := int(r.rr.Add(1)-1) % n
	now := time.Now()
	order := make([]ref, 0, n)
	var trialL, drainL, rest []ref
	trials := make(map[ref]struct{})
	for step := 0; step < n; step++ {
		f := flat[(start+step)%n]
		ok, trial := r.health[f.g][f.i].allow(now)
		switch {
		case ok && trial:
			trials[f] = struct{}{}
			trialL = append(trialL, f)
		case ok && isDraining(r.groups[f.g][f.i]):
			drainL = append(drainL, f)
		case ok:
			order = append(order, f)
		default:
			rest = append(rest, f)
		}
	}
	order = append(order, trialL...)
	order = append(order, drainL...)
	releaseTrials := func() {
		for f := range trials {
			r.health[f.g][f.i].release()
		}
	}
	var errs []error
	for _, f := range append(order, rest...) {
		if cerr := ctx.Err(); cerr != nil {
			releaseTrials()
			return cerr
		}
		delete(trials, f)
		err := r.groups[f.g][f.i].LevelKeys(ctx, c, lo, out)
		if ctx.Err() == nil {
			r.health[f.g][f.i].observe(err == nil || !retryable(err), time.Now())
		}
		if err == nil {
			releaseTrials()
			return nil
		}
		if ctx.Err() != nil || !retryable(err) {
			releaseTrials()
			return err
		}
		errs = append(errs, fmt.Errorf("%s: %w", r.addrs[f.g][f.i], err))
	}
	return fmt.Errorf("tablenet: all %d replicas failed level read: %w", n, errors.Join(errs...))
}

// levelKeysSparse is the split-fleet level read: one sparse request per
// hash range, concurrently, each filtered to the range's own interval;
// the returned (global position, key) pairs scatter into out. Ranges
// partition the level by key hash, so the position sets are disjoint —
// the concurrent scatters never touch the same slot — and their union
// must be exactly the requested window, which the fill count verifies.
func (r *Router) levelKeysSparse(ctx context.Context, c, lo int, out []uint64) error {
	if c < 0 || c > r.meta.K {
		return fmt.Errorf("tablenet: level %d outside horizon %d", c, r.meta.K)
	}
	count := r.meta.LevelCounts[c]
	if lo < 0 || lo+len(out) > count {
		return fmt.Errorf("tablenet: level %d range [%d, %d) outside [0, %d)", c, lo, lo+len(out), count)
	}
	L := len(out)
	if L == 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	filled := make([]bool, L)
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	var total atomic.Int64
	for g := range r.groups {
		glo, ghi := tables.RangeOf(g, len(r.groups))
		wg.Add(1)
		go func(g int, glo, ghi uint64) {
			defer wg.Done()
			pos := make([]uint32, L)
			keys := make([]uint64, L)
			cnt, err := r.groupSparseLevel(ctx, g, c, lo, L, glo, ghi, pos, keys)
			if err != nil {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
			for j := 0; j < cnt; j++ {
				p := int(pos[j])
				if p >= L || filled[p] {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("%w: range %d returned level position %d outside or colliding in window %d", ErrProtocol, g, p, L)
						cancel()
					})
					return
				}
				out[p] = keys[j]
				filled[p] = true
			}
			total.Add(int64(cnt))
		}(g, glo, ghi)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if got := int(total.Load()); got != L {
		return fmt.Errorf("%w: split level read covered %d of %d positions", ErrProtocol, got, L)
	}
	return nil
}

// groupSparseLevel resolves one range's sparse level read with the same
// replica failover discipline as groupLookup.
func (r *Router) groupSparseLevel(ctx context.Context, g, c, lo, n int, filterLo, filterHi uint64, pos []uint32, keys []uint64) (int, error) {
	order, trials := r.replicaOrder(g)
	var errs []error
	for _, i := range order {
		if cerr := ctx.Err(); cerr != nil {
			r.releaseTrials(g, trials)
			return 0, cerr
		}
		delete(trials, i)
		cnt, err := tables.SparseLevelKeys(ctx, r.groups[g][i], c, lo, n, filterLo, filterHi, pos, keys)
		if ctx.Err() == nil {
			r.health[g][i].observe(err == nil || !retryable(err), time.Now())
		}
		if err == nil {
			r.releaseTrials(g, trials)
			return cnt, nil
		}
		if ctx.Err() != nil || !retryable(err) {
			r.releaseTrials(g, trials)
			return 0, err
		}
		errs = append(errs, fmt.Errorf("%s: %w", r.addrs[g][i], err))
	}
	return 0, fmt.Errorf("tablenet: range %d: all %d replicas failed sparse level read: %w", g, len(r.groups[g]), errors.Join(errs...))
}

// DrainRerouted counts sub-batches (lookup or level) that were steered
// away from a draining replica to a live sibling.
func (r *Router) DrainRerouted() uint64 { return r.drainRerouted.Load() }

// OwnershipMismatches sums, over every replica client, the reconnects
// refused because a shard's advertised key range no longer matched the
// range pinned at first handshake.
func (r *Router) OwnershipMismatches() uint64 {
	var n uint64
	for _, reps := range r.groups {
		for _, b := range reps {
			if om, ok := b.(interface{ OwnershipMismatches() uint64 }); ok {
				n += om.OwnershipMismatches()
			}
		}
	}
	return n
}

// ShardResidency is one replica's mapped-store page residency — the
// mincore stats its server reports — labeled for metrics export.
type ShardResidency struct {
	Addr          string
	Range         int
	ResidentBytes uint64
	MappedBytes   uint64
}

// Residency collects each replica's store residency: one ServerStats
// probe per network replica (bounded by ProbeTimeout, concurrently), a
// direct read for in-process backends. Replicas that cannot report — no
// mapped store, or unreachable right now — are omitted rather than
// reported as zero, so a scrape distinguishes "cold" from "unknown".
func (r *Router) Residency(ctx context.Context) []ShardResidency {
	type statser interface {
		ServerStats(context.Context) (Stats, error)
	}
	var mu sync.Mutex
	var out []ShardResidency
	var wg sync.WaitGroup
	for g, reps := range r.groups {
		for i, b := range reps {
			ss, ok := b.(statser)
			if !ok {
				if rr, ok := b.(tables.ResidencyReporter); ok {
					if res, mapped, ok := rr.Residency(); ok {
						out = append(out, ShardResidency{Addr: r.addrs[g][i], Range: g,
							ResidentBytes: uint64(res), MappedBytes: uint64(mapped)})
					}
				}
				continue
			}
			wg.Add(1)
			go func(addr string, g int, ss statser) {
				defer wg.Done()
				sctx, cancel := context.WithTimeout(ctx, r.opts.ProbeTimeout)
				defer cancel()
				st, err := ss.ServerStats(sctx)
				if err != nil || st.MappedBytes == 0 {
					return
				}
				mu.Lock()
				out = append(out, ShardResidency{Addr: addr, Range: g,
					ResidentBytes: st.ResidentBytes, MappedBytes: st.MappedBytes})
				mu.Unlock()
			}(r.addrs[g][i], g, ss)
		}
	}
	wg.Wait()
	return out
}

// pinger is the probe interface network clients implement; in-process
// backends are trivially reachable and are not probed.
type pinger interface {
	Ping(context.Context) error
}

// probeLoop is the background re-admission prober: it pings every
// non-healthy network replica each interval and feeds the outcome to
// the health tracker, so a recovered replica rejoins within about one
// probe interval without a query paying for the discovery, and a
// still-dark replica keeps extending its ejection window instead of
// re-entering rotation.
func (r *Router) probeLoop() {
	defer r.probeWG.Done()
	t := time.NewTicker(r.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probeOnce()
		}
	}
}

// probeOnce pings every currently non-healthy network replica.
func (r *Router) probeOnce() {
	for g, reps := range r.groups {
		for i, b := range reps {
			h := r.health[g][i]
			if h.state.Load() == stateHealthy {
				continue
			}
			p, ok := b.(pinger)
			if !ok {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), r.opts.ProbeTimeout)
			err := p.Ping(ctx)
			cancel()
			h.observe(err == nil, time.Now())
		}
	}
}

// ShardStatus is one replica's health probe outcome.
type ShardStatus struct {
	// Addr names the replica (its dial address, or "local[i]" for
	// in-process backends).
	Addr string
	// Range is the hash-range index the replica serves.
	Range int
	// State is the health tracker's view: "healthy", "ejected", or
	// "half-open".
	State string
	// Draining reports the shard's announced drain state: still
	// answering, but routing steers new work to siblings.
	Draining bool
	// Err is nil for a reachable replica.
	Err error
}

// Check probes every replica for reachability (Ping for network
// replicas, each bounded by ProbeTimeout; in-process backends are
// trivially healthy) and annotates each with its tracker state.
// Statuses are in range-major replica order.
func (r *Router) Check(ctx context.Context) []ShardStatus {
	out := make([]ShardStatus, 0, r.Shards())
	var wg sync.WaitGroup
	for g, reps := range r.groups {
		for i, b := range reps {
			out = append(out, ShardStatus{
				Addr:     r.addrs[g][i],
				Range:    g,
				State:    r.health[g][i].stateName(),
				Draining: isDraining(b),
			})
			p, ok := b.(pinger)
			if !ok {
				continue
			}
			wg.Add(1)
			go func(st *ShardStatus, ping func(context.Context) error) {
				defer wg.Done()
				pctx, cancel := context.WithTimeout(ctx, r.opts.ProbeTimeout)
				defer cancel()
				st.Err = ping(pctx)
			}(&out[len(out)-1], p.Ping)
		}
	}
	wg.Wait()
	return out
}

// FleetHealth is the router's availability summary, the /healthz
// contract: Degraded means some replica is unreachable but every hash
// range still has at least one live replica (the fleet answers every
// query, with reduced headroom); DownRanges lists ranges with no
// reachable replica at all (keyed lookups over those ranges fail).
type FleetHealth struct {
	Replicas   []ShardStatus
	Degraded   bool
	DownRanges []int
}

// Down reports whether any hash range is completely unreachable.
func (f FleetHealth) Down() bool { return len(f.DownRanges) > 0 }

// Health probes the fleet (Check) and folds the statuses into the
// degraded-vs-down summary.
func (r *Router) Health(ctx context.Context) FleetHealth {
	f := FleetHealth{Replicas: r.Check(ctx)}
	perRange := make([]int, len(r.groups)) // reachable replicas per range
	for _, st := range f.Replicas {
		if st.Err != nil {
			f.Degraded = true
		} else {
			perRange[st.Range]++
		}
	}
	for g, live := range perRange {
		if live == 0 {
			f.DownRanges = append(f.DownRanges, g)
		}
	}
	return f
}

// HealthStats snapshots every replica's tracker — the traffic-driven
// view (no probe I/O), the one /stats embeds.
func (r *Router) HealthStats() []tables.Health {
	var out []tables.Health
	for g, reps := range r.groups {
		for i := range reps {
			h := r.health[g][i]
			out = append(out, tables.Health{
				Addr:                r.addrs[g][i],
				Range:               g,
				State:               h.stateName(),
				ConsecutiveFailures: h.consec.Load(),
				Ejections:           h.ejections.Load(),
			})
		}
	}
	return out
}

// CacheStats aggregates the tiered-cache and wire counters of every
// replica backend that maintains them (network clients do; in-process
// backends contribute nothing) — one snapshot for the whole client
// pool, the number a router daemon's /stats reports.
func (r *Router) CacheStats() tables.CacheStats {
	var st tables.CacheStats
	for _, reps := range r.groups {
		for _, b := range reps {
			if cs, ok := b.(tables.CacheStatser); ok {
				st.Add(cs.CacheStats())
			}
		}
	}
	return st
}

// Shards returns the total replica count across all hash ranges.
func (r *Router) Shards() int {
	n := 0
	for _, reps := range r.groups {
		n += len(reps)
	}
	return n
}

// Ranges returns the number of hash ranges.
func (r *Router) Ranges() int { return len(r.groups) }

// Close stops the prober and closes every replica backend.
func (r *Router) Close() error {
	r.stopOnce.Do(func() { close(r.stop) })
	r.probeWG.Wait()
	var errs []error
	for _, reps := range r.groups {
		for _, b := range reps {
			if err := b.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}
