package tablenet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/tables"
)

// ErrSwapClosed reports a query or swap against a closed SwapBackend.
var ErrSwapClosed = fmt.Errorf("tablenet: swap backend closed")

// epoch is one installed router generation. refs starts at 1 — the
// "installed" reference, held until the epoch is swapped out or the
// backend closes — and each in-flight query holds one more, so the
// router closes exactly when the epoch is both superseded and drained of
// queries.
type epoch struct {
	r    *Router
	gen  uint64
	refs atomic.Int64
}

// acquire takes a query reference; it fails (instead of resurrecting a
// closing router) when the epoch already drained to zero.
func (e *epoch) acquire() bool {
	for {
		n := e.refs.Load()
		if n <= 0 {
			return false
		}
		if e.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops one reference; the last one out closes the router.
func (e *epoch) release() {
	if e.refs.Add(-1) == 0 {
		e.r.Close()
	}
}

// SwapBackend is a tables.Backend whose router can be replaced
// atomically while queries are in flight — the seam live topology
// reloads swap through. A query acquires the current epoch for its whole
// batch, so it finishes on the topology it started on; the superseded
// router closes only when its last in-flight query releases it. Swaps
// are generation-stamped and meta-checked: a topology whose fleet serves
// a different table set is refused, because cached results and in-flight
// queries assume one immutable table generation.
type SwapBackend struct {
	cur  atomic.Pointer[epoch]
	meta tables.Meta

	// drainBase and ownBase carry the retired epochs' counters forward,
	// so the exported totals stay monotonic across swaps even though each
	// router keeps its own.
	drainBase atomic.Uint64
	ownBase   atomic.Uint64

	mu     sync.Mutex // serializes Swap and Close
	closed bool
}

// NewSwapBackend installs r as generation gen.
func NewSwapBackend(r *Router, gen uint64) *SwapBackend {
	s := &SwapBackend{meta: r.Meta()}
	e := &epoch{r: r, gen: gen}
	e.refs.Store(1)
	s.cur.Store(e)
	return s
}

// current acquires the live epoch for one query. The load-then-acquire
// loop is what makes a concurrent swap safe: an epoch that drained
// between the load and the acquire is simply retried against the new
// pointer.
func (s *SwapBackend) current() (*epoch, error) {
	for {
		e := s.cur.Load()
		if e == nil {
			return nil, ErrSwapClosed
		}
		if e.acquire() {
			return e, nil
		}
	}
}

// Swap installs r as generation gen and schedules the previous router to
// close once its in-flight queries drain. gen must be strictly newer
// than the installed generation (stale topology redeliveries are
// no-ops, reported as errors so the caller can log them), and r must
// serve the same table set as the epoch it replaces. On error r is NOT
// closed — it still belongs to the caller.
func (s *SwapBackend) Swap(r *Router, gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	if s.closed || old == nil {
		return ErrSwapClosed
	}
	if gen <= old.gen {
		return fmt.Errorf("tablenet: topology generation %d is not newer than installed %d", gen, old.gen)
	}
	if !s.meta.Compatible(r.Meta()) {
		return fmt.Errorf("%w: generation %d fleet serves a different table set", ErrProtocol, gen)
	}
	e := &epoch{r: r, gen: gen}
	e.refs.Store(1)
	s.cur.Store(e)
	// Fold the outgoing epoch's counters into the carried bases. Queries
	// still in flight on it can increment after this snapshot — a small
	// undercount, never a reset, which is the property metrics need.
	s.drainBase.Add(old.r.DrainRerouted())
	s.ownBase.Add(old.r.OwnershipMismatches())
	old.release()
	return nil
}

// Generation returns the installed topology generation (0 when closed).
func (s *SwapBackend) Generation() uint64 {
	if e := s.cur.Load(); e != nil {
		return e.gen
	}
	return 0
}

// Meta returns the table metadata every installed epoch must share.
func (s *SwapBackend) Meta() tables.Meta { return s.meta }

// LookupBatch resolves the batch against the epoch current at entry; a
// swap mid-batch does not reroute it.
func (s *SwapBackend) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	e, err := s.current()
	if err != nil {
		return err
	}
	defer e.release()
	return e.r.LookupBatch(ctx, keys, vals, found)
}

// LevelKeys resolves the read against the epoch current at entry.
func (s *SwapBackend) LevelKeys(ctx context.Context, c, lo int, out []uint64) error {
	e, err := s.current()
	if err != nil {
		return err
	}
	defer e.release()
	return e.r.LevelKeys(ctx, c, lo, out)
}

// withCurrent reads the current epoch's router through f, holding the
// epoch for the call; a closed backend reads the zero value.
func withCurrent[T any](s *SwapBackend, f func(*Router) T) T {
	e, err := s.current()
	if err != nil {
		var zero T
		return zero
	}
	defer e.release()
	return f(e.r)
}

// Health probes the current fleet (see Router.Health).
func (s *SwapBackend) Health(ctx context.Context) FleetHealth {
	return withCurrent(s, func(r *Router) FleetHealth { return r.Health(ctx) })
}

// HealthStats snapshots the current fleet's per-replica trackers.
func (s *SwapBackend) HealthStats() []tables.Health { return withCurrent(s, (*Router).HealthStats) }

// CacheStats aggregates the current fleet's client-side cache counters.
func (s *SwapBackend) CacheStats() tables.CacheStats { return withCurrent(s, (*Router).CacheStats) }

// DrainRerouted counts drain-rerouted reads across every epoch this
// backend has installed: retired routers' counts are folded into a
// carried base at swap time, so the total is monotonic.
func (s *SwapBackend) DrainRerouted() uint64 {
	return s.drainBase.Load() + withCurrent(s, (*Router).DrainRerouted)
}

// OwnershipMismatches sums refused reconnects across every installed
// epoch, monotonic the same way DrainRerouted is.
func (s *SwapBackend) OwnershipMismatches() uint64 {
	return s.ownBase.Load() + withCurrent(s, (*Router).OwnershipMismatches)
}

// Check probes the current fleet's replicas (see Router.Check).
func (s *SwapBackend) Check(ctx context.Context) []ShardStatus {
	return withCurrent(s, func(r *Router) []ShardStatus { return r.Check(ctx) })
}

// Residency collects the current fleet's per-replica store residency
// (see Router.Residency).
func (s *SwapBackend) Residency(ctx context.Context) []ShardResidency {
	return withCurrent(s, func(r *Router) []ShardResidency { return r.Residency(ctx) })
}

// Shards returns the current fleet's replica count.
func (s *SwapBackend) Shards() int { return withCurrent(s, (*Router).Shards) }

// Ranges returns the current fleet's hash-range count.
func (s *SwapBackend) Ranges() int { return withCurrent(s, (*Router).Ranges) }

// Close retires the backend: new queries fail with ErrSwapClosed and the
// installed router closes as soon as its in-flight queries drain (a
// query that already acquired the epoch finishes normally). Idempotent.
func (s *SwapBackend) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if old := s.cur.Swap(nil); old != nil {
		old.release()
	}
	return nil
}
