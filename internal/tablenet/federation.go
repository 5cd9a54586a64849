package tablenet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/tables"
)

// ErrTierMismatch is returned by NewFederation when the offered tiers do
// not form one consistent table family: different alphabet fingerprints
// or reductions, duplicate depths, or level prefixes that disagree. A
// federation over mismatched tiers could answer the same query two
// different ways depending on where it happened to resolve, so the
// wiring is refused typed, at construction time.
var ErrTierMismatch = errors.New("tablenet: incompatible federation tiers")

// Federation fronts an ordered list of per-k fleets as one
// tables.Backend. It has one routing rule for every read: the read goes
// to the shallowest tier whose depth covers what the caller needs, and
// fails over to a deeper tier only when that tier errors. The need of
// LookupBatchBounded is its bound, of LevelKeys(c) the level c, and of
// an unbounded LookupBatch the top tier's K: with the cost unknown only
// the top tier's miss is authoritative. So each key is probed on
// exactly one tier.
//
// The tiers do not filter traffic by cost: the cost distribution of
// 4-bit functions is top-heavy (paper Table 3: random functions average
// 11.94 gates), and in perfbench's fleet-mix, 95% of direct probes
// missed a k=3 tier when it was probed first. What the shallow tiers
// serve is the work that needs only their depth: the cheap
// reconstruction steps (each stripped element lowers the bound) and
// the level reads of a scan, dense and cached on a small store where a
// split top tier would fan them out as sparse, uncached requests.
//
// Routing by depth preserves byte-identical answers because every tier
// is built from the same alphabet under the same reduction: BFS
// expansion is deterministic, so a shallow table's level lists and
// packed values are exact prefixes of a deeper table's. NewFederation
// validates exactly that (fingerprint, reduction, level-count prefix
// agreement) and refuses mismatched tiers with ErrTierMismatch. Meta()
// is the top tier's geometry, so a query engine driving a federation
// plans scans exactly as it would against the deepest fleet alone — a
// federated answer is bit-for-bit the big-k answer.
//
// A lower tier's outage degrades, not fails: its reads fail over to
// the next deeper tier (counted in TierErrors), so the federation
// collapses to big-k-only serving when a small fleet dies. The top
// tier's outage fails every read that needs more than the lower tiers'
// depths, unbounded lookups included.
type Federation struct {
	tiers []*fedTier
	meta  tables.Meta
}

// fedTier is one member fleet plus its routing counters.
type fedTier struct {
	b       tables.Backend
	meta    tables.Meta
	horizon int

	probes     atomic.Uint64
	hits       atomic.Uint64
	levelReads atomic.Uint64
	tierErrors atomic.Uint64
}

// NewFederation builds a federation over the given fleets (each
// typically a *Router or *SwapBackend, but any tables.Backend serves).
// Tiers are ordered by table depth internally, so callers may pass them
// in any order; two tiers of equal depth are refused — routing by
// depth could not tell them apart. On success the federation owns
// the backends: Close closes them all.
func NewFederation(backends []tables.Backend) (*Federation, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("tablenet: federation needs at least one tier")
	}
	tiers := make([]*fedTier, len(backends))
	for i, b := range backends {
		if b == nil {
			return nil, fmt.Errorf("tablenet: federation tier %d is nil", i)
		}
		m := b.Meta()
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("tablenet: federation tier %d: %w", i, err)
		}
		tiers[i] = &fedTier{b: b, meta: m, horizon: m.NormHorizon()}
	}
	sort.SliceStable(tiers, func(i, j int) bool { return tiers[i].meta.K < tiers[j].meta.K })
	base := tiers[0].meta
	for i, t := range tiers[1:] {
		m := t.meta
		if m.Fingerprint != base.Fingerprint {
			return nil, fmt.Errorf("%w: tier k=%d built over a different alphabet than tier k=%d", ErrTierMismatch, m.K, base.K)
		}
		if m.Reduced != base.Reduced {
			return nil, fmt.Errorf("%w: tier k=%d reduction %v, tier k=%d reduction %v", ErrTierMismatch, m.K, m.Reduced, base.K, base.Reduced)
		}
		if m.K == tiers[i].meta.K {
			return nil, fmt.Errorf("%w: two tiers of depth k=%d", ErrTierMismatch, m.K)
		}
		// BFS determinism: a shallower table's levels must be exact
		// prefixes of every deeper table's. A disagreeing count means the
		// tiers did not come from the same build family, and answers
		// routed to different tiers would not be byte-identical.
		for c, n := range tiers[i].meta.LevelCounts {
			if m.LevelCounts[c] != n {
				return nil, fmt.Errorf("%w: level %d holds %d representatives at k=%d but %d at k=%d", ErrTierMismatch, c, tiers[i].meta.LevelCounts[c], tiers[i].meta.K, m.LevelCounts[c], m.K)
			}
		}
	}
	top := tiers[len(tiers)-1].meta
	meta := top
	meta.LevelCounts = append([]int(nil), top.LevelCounts...)
	meta.Source = fmt.Sprintf("federation(%d)", len(tiers))
	return &Federation{tiers: tiers, meta: meta}, nil
}

// Meta returns the top tier's table geometry: the federation answers
// exactly what its deepest fleet answers; the shallower tiers serve
// the reads that need only their depth.
func (f *Federation) Meta() tables.Meta { return f.meta }

// LookupBatch implements tables.Backend. With no cost bound only the
// top tier is authoritative, so the batch is routed as a bounded one
// at the top tier's depth.
func (f *Federation) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	return f.LookupBatchBounded(ctx, keys, vals, found, f.meta.K)
}

// LookupBatchBounded implements tables.BoundedLookuper: the caller only
// needs keys of minimal cost ≤ bound, so the whole batch goes to the
// shallowest tier whose depth covers the bound. That tier is
// authoritative for every answer the caller can use, so its miss is
// final and each key is probed on one tier.
func (f *Federation) LookupBatchBounded(ctx context.Context, keys []uint64, vals []uint16, found []bool, bound int) error {
	if len(vals) != len(keys) || len(found) != len(keys) {
		return fmt.Errorf("tablenet: LookupBatchBounded slice lengths differ (%d/%d/%d)", len(keys), len(vals), len(found))
	}
	return f.route(ctx, min(bound, f.meta.K), func(t *fedTier) error {
		t.probes.Add(uint64(len(keys)))
		if err := t.b.LookupBatch(ctx, keys, vals, found); err != nil {
			return err
		}
		t.hits.Add(countFound(found))
		return nil
	})
}

func countFound(found []bool) uint64 {
	n := uint64(0)
	for _, ok := range found {
		if ok {
			n++
		}
	}
	return n
}

// LevelKeys implements tables.Backend: level c is read from the
// shallowest tier that holds it. Its copy is byte-identical to every
// deeper tier's, and a small tier serves it as one dense, cached read
// where a split top tier would fan it out as sparse, uncached requests.
func (f *Federation) LevelKeys(ctx context.Context, c, lo int, out []uint64) error {
	if c < 0 || c > f.meta.K {
		return fmt.Errorf("tablenet: level %d outside horizon %d", c, f.meta.K)
	}
	return f.route(ctx, c, func(t *fedTier) error {
		t.levelReads.Add(1)
		return t.b.LevelKeys(ctx, c, lo, out)
	})
}

// route is the federation's one routing rule: read runs on the
// shallowest tier whose depth covers need (need ≤ the top tier's K),
// and fails over to the next deeper tier only when it errors (counted
// in TierErrors). The read fails when every covering tier failed.
func (f *Federation) route(ctx context.Context, need int, read func(t *fedTier) error) error {
	var errs []error
	for _, t := range f.tiers {
		if t.meta.K < need {
			continue
		}
		err := read(t)
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		t.tierErrors.Add(1)
		errs = append(errs, fmt.Errorf("tier k=%d: %w", t.meta.K, err))
	}
	return fmt.Errorf("tablenet: read needing depth %d failed on every covering tier: %w", need, errors.Join(errs...))
}

// TierStats snapshots each tier's routing counters, shallowest first —
// the /stats and /metrics view of which reads each tier served.
func (f *Federation) TierStats() []tables.TierStats {
	out := make([]tables.TierStats, len(f.tiers))
	for i, t := range f.tiers {
		out[i] = tables.TierStats{
			K:          t.meta.K,
			Horizon:    t.horizon,
			Source:     t.meta.Source,
			Probes:     t.probes.Load(),
			Hits:       t.hits.Load(),
			LevelReads: t.levelReads.Load(),
			TierErrors: t.tierErrors.Load(),
		}
		if cs, ok := t.b.(tables.CacheStatser); ok {
			c := cs.CacheStats()
			out[i].Cache = &c
		}
	}
	return out
}

// CacheStats aggregates every tier's client-cache counters (the
// CacheStatser view a federated daemon's /stats embeds).
func (f *Federation) CacheStats() tables.CacheStats {
	var st tables.CacheStats
	for _, t := range f.tiers {
		if cs, ok := t.b.(tables.CacheStatser); ok {
			st.Add(cs.CacheStats())
		}
	}
	return st
}

// HealthStats concatenates the per-replica trackers of every tier that
// keeps them, shallowest tier first.
func (f *Federation) HealthStats() []tables.Health {
	var out []tables.Health
	for _, t := range f.tiers {
		if hs, ok := t.b.(tables.HealthStatser); ok {
			out = append(out, hs.HealthStats()...)
		}
	}
	return out
}

// Check probes every tier that supports probing and concatenates the
// statuses (shallowest tier first); tiers without a Check are assumed
// reachable — they are in-process.
func (f *Federation) Check(ctx context.Context) []ShardStatus {
	var out []ShardStatus
	for _, t := range f.tiers {
		if c, ok := t.b.(interface {
			Check(ctx context.Context) []ShardStatus
		}); ok {
			out = append(out, c.Check(ctx)...)
		}
	}
	return out
}

// Health folds tier health into the federation's /healthz contract: the
// federation is Down only when the TOP tier is down — it alone answers
// every query, so with it reachable the federation still serves
// everything (slower). Any lower-tier outage, and any tier's own
// degradation, surfaces as Degraded.
func (f *Federation) Health(ctx context.Context) FleetHealth {
	var out FleetHealth
	for i, t := range f.tiers {
		h, ok := t.b.(interface {
			Health(ctx context.Context) FleetHealth
		})
		if !ok {
			continue
		}
		th := h.Health(ctx)
		out.Replicas = append(out.Replicas, th.Replicas...)
		if th.Degraded {
			out.Degraded = true
		}
		if th.Down() {
			if i == len(f.tiers)-1 {
				out.DownRanges = append(out.DownRanges, th.DownRanges...)
			} else {
				out.Degraded = true
			}
		}
	}
	return out
}

// DrainRerouted sums the tiers' drain-reroute counters.
func (f *Federation) DrainRerouted() uint64 {
	var n uint64
	for _, t := range f.tiers {
		if d, ok := t.b.(interface{ DrainRerouted() uint64 }); ok {
			n += d.DrainRerouted()
		}
	}
	return n
}

// OwnershipMismatches sums the tiers' ownership-refusal counters.
func (f *Federation) OwnershipMismatches() uint64 {
	var n uint64
	for _, t := range f.tiers {
		if o, ok := t.b.(interface{ OwnershipMismatches() uint64 }); ok {
			n += o.OwnershipMismatches()
		}
	}
	return n
}

// Residency concatenates per-replica store residency across tiers.
func (f *Federation) Residency(ctx context.Context) []ShardResidency {
	var out []ShardResidency
	for _, t := range f.tiers {
		if r, ok := t.b.(interface {
			Residency(ctx context.Context) []ShardResidency
		}); ok {
			out = append(out, r.Residency(ctx)...)
		}
	}
	return out
}

// Tiers returns the number of tiers.
func (f *Federation) Tiers() int { return len(f.tiers) }

// TierForCost implements tables.TierResolver: the index of the
// shallowest tier whose synthesis horizon covers cost, or the deepest
// tier for costs beyond every horizon. It picks tiers by horizon; the
// federation routes reads by depth K, so this is not the tier any read
// goes to. It is kept only for perfbench's TierResolver assertion.
func (f *Federation) TierForCost(cost int) int {
	for i, t := range f.tiers {
		if cost <= t.horizon {
			return i
		}
	}
	return len(f.tiers) - 1
}

// Close closes every tier.
func (f *Federation) Close() error {
	var errs []error
	for _, t := range f.tiers {
		if err := t.b.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

var (
	_ tables.Backend         = (*Federation)(nil)
	_ tables.BoundedLookuper = (*Federation)(nil)
	_ tables.CacheStatser    = (*Federation)(nil)
	_ tables.HealthStatser   = (*Federation)(nil)
	_ tables.TierStatser     = (*Federation)(nil)
)
