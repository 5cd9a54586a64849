package tablenet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
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
// tables.Backend, exploiting the paper's central empirical fact: the
// cost distribution of 4-bit reversible functions is overwhelmingly
// bottom-heavy, so the vast majority of probes resolve inside a small-k
// table that is a few MB and permanently cache-hot. LookupBatch probes
// the shallowest tier first and escalates only the keys it does not
// hold — keys whose cost exceeds that tier's depth — to the next deeper
// tier, so the big-k fleet only ever sees the rare hard traffic.
//
// Escalation preserves byte-identical answers because every tier is
// built from the same alphabet under the same reduction: BFS expansion
// is deterministic, so a shallow table's level lists and packed values
// are exact prefixes of a deeper table's. NewFederation validates
// exactly that (fingerprint, reduction, level-count prefix agreement)
// and refuses mismatched tiers with ErrTierMismatch. Meta() is the top
// tier's geometry, so a query engine driving a federation plans scans
// exactly as it would against the deepest fleet alone — a federated
// answer is bit-for-bit the big-k answer, just cheaper to produce.
//
// Tier outages degrade, not fail: a lower tier whose probe errors has
// its whole sub-batch escalated to the next tier (counted in
// TierErrors), so the federation collapses gracefully to big-k-only
// serving when a small fleet dies. Only the top tier's failure fails a
// query — it is the only tier whose miss is authoritative.
type Federation struct {
	tiers []*fedTier
	meta  tables.Meta
}

// fedTier is one member fleet plus its routing counters.
type fedTier struct {
	b       tables.Backend
	meta    tables.Meta
	horizon int

	probes      atomic.Uint64
	hits        atomic.Uint64
	escalations atomic.Uint64
	levelReads  atomic.Uint64
	tierErrors  atomic.Uint64
}

// NewFederation builds a federation over the given fleets (each
// typically a *Router or *SwapBackend, but any tables.Backend serves).
// Tiers are ordered by table depth internally, so callers may pass them
// in any order; two tiers of equal depth are refused — there is no
// meaningful escalation between them. On success the federation owns
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
		// tiers did not come from the same build family, and escalated
		// answers would not be byte-identical.
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
// exactly what its deepest fleet answers, the shallower tiers are pure
// acceleration.
func (f *Federation) Meta() tables.Meta { return f.meta }

// fedScratch is the pooled per-call escalation workspace.
type fedScratch struct {
	idx   []int
	keys  []uint64
	vals  []uint16
	found []bool
}

var fedPool = sync.Pool{New: func() any { return new(fedScratch) }}

func (sc *fedScratch) grow(n int) {
	if cap(sc.keys) < n {
		sc.idx = make([]int, n)
		sc.keys = make([]uint64, n)
		sc.vals = make([]uint16, n)
		sc.found = make([]bool, n)
	}
}

// LookupBatch implements tables.Backend. The whole batch probes the
// shallowest tier in place; only the keys that tier does not hold are
// gathered and escalated, tier by tier, until the top tier's answer —
// found or not — is final. A non-top tier that fails outright (its
// whole fleet unreachable) escalates its entire sub-batch instead of
// failing the query.
func (f *Federation) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	if len(vals) != len(keys) || len(found) != len(keys) {
		return fmt.Errorf("tablenet: LookupBatch slice lengths differ (%d/%d/%d)", len(keys), len(vals), len(found))
	}
	if len(f.tiers) == 1 {
		t := f.tiers[0]
		t.probes.Add(uint64(len(keys)))
		err := t.b.LookupBatch(ctx, keys, vals, found)
		if err == nil {
			t.hits.Add(countFound(found))
		}
		return err
	}
	if len(keys) == 0 {
		return nil
	}
	sc := fedPool.Get().(*fedScratch)
	defer fedPool.Put(sc)
	sc.grow(len(keys))

	// Tier 0 probes straight into the caller's slices — the common case
	// (everything resolves shallow) finishes with zero scatter work.
	t0 := f.tiers[0]
	t0.probes.Add(uint64(len(keys)))
	missIdx := sc.idx[:0]
	if err := t0.b.LookupBatch(ctx, keys, vals, found); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		t0.tierErrors.Add(1)
		for i := range keys {
			missIdx = append(missIdx, i)
		}
	} else {
		for i, ok := range found {
			if !ok {
				missIdx = append(missIdx, i)
			}
		}
		t0.hits.Add(uint64(len(keys) - len(missIdx)))
	}

	for ti := 1; ti < len(f.tiers) && len(missIdx) > 0; ti++ {
		f.tiers[ti-1].escalations.Add(uint64(len(missIdx)))
		t := f.tiers[ti]
		t.probes.Add(uint64(len(missIdx)))
		subKeys := sc.keys[:len(missIdx)]
		subVals := sc.vals[:len(missIdx)]
		subFound := sc.found[:len(missIdx)]
		for j, i := range missIdx {
			subKeys[j] = keys[i]
		}
		if err := t.b.LookupBatch(ctx, subKeys, subVals, subFound); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			t.tierErrors.Add(1)
			if ti == len(f.tiers)-1 {
				// The top tier is the only authoritative one; with it
				// gone the remaining keys are unanswerable.
				return err
			}
			continue // whole sub-batch escalates to the next tier
		}
		hits := uint64(0)
		next := missIdx[:0]
		for j, i := range missIdx {
			vals[i], found[i] = subVals[j], subFound[j]
			if subFound[j] {
				hits++
			} else {
				next = append(next, i)
			}
		}
		t.hits.Add(hits)
		missIdx = next
	}
	return nil
}

// LookupBatchBounded implements tables.BoundedLookuper — the
// cost-horizon routing path. The caller has promised it only needs keys
// present with minimal cost ≤ bound, so the whole batch goes straight
// to the shallowest tier whose depth covers the bound: that tier is
// authoritative for everything the caller can use, so a miss there is
// final — no escalation, and no key is ever probed twice. This is what
// keeps a federated meet-in-the-middle scan at exactly one probe per
// candidate (the scan's residue bound picks the tier) instead of
// walking every key through the tier chain. If the chosen tier errors
// the batch fails over to the next deeper tier (counted in TierErrors);
// the query fails only when every covering tier is unreachable.
func (f *Federation) LookupBatchBounded(ctx context.Context, keys []uint64, vals []uint16, found []bool, bound int) error {
	if len(vals) != len(keys) || len(found) != len(keys) {
		return fmt.Errorf("tablenet: LookupBatchBounded slice lengths differ (%d/%d/%d)", len(keys), len(vals), len(found))
	}
	start := len(f.tiers) - 1
	if bound >= 0 {
		for i, t := range f.tiers {
			if t.meta.K >= bound {
				start = i
				break
			}
		}
	}
	var errs []error
	for ti := start; ti < len(f.tiers); ti++ {
		t := f.tiers[ti]
		t.probes.Add(uint64(len(keys)))
		err := t.b.LookupBatch(ctx, keys, vals, found)
		if err == nil {
			t.hits.Add(countFound(found))
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		t.tierErrors.Add(1)
		errs = append(errs, fmt.Errorf("tier k=%d: %w", t.meta.K, err))
	}
	return fmt.Errorf("tablenet: bounded lookup (bound %d) failed on every covering tier: %w", bound, errors.Join(errs...))
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

// LevelKeys implements tables.Backend: level c is served by the
// shallowest tier that holds it — its copy is byte-identical to every
// deeper tier's (BFS determinism) and far more likely page-cache-hot —
// failing over to deeper tiers if the preferred one errors.
func (f *Federation) LevelKeys(ctx context.Context, c, lo int, out []uint64) error {
	if c < 0 || c > f.meta.K {
		return fmt.Errorf("tablenet: level %d outside horizon %d", c, f.meta.K)
	}
	var errs []error
	for _, t := range f.tiers {
		if c > t.meta.K {
			continue
		}
		t.levelReads.Add(1)
		err := t.b.LevelKeys(ctx, c, lo, out)
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		t.tierErrors.Add(1)
		errs = append(errs, fmt.Errorf("tier k=%d: %w", t.meta.K, err))
	}
	return fmt.Errorf("tablenet: level %d unreadable on every holding tier: %w", c, errors.Join(errs...))
}

// TierStats snapshots each tier's routing counters, shallowest first —
// the /stats and /metrics view of how much traffic escapes each tier.
func (f *Federation) TierStats() []tables.TierStats {
	out := make([]tables.TierStats, len(f.tiers))
	for i, t := range f.tiers {
		out[i] = tables.TierStats{
			K:           t.meta.K,
			Horizon:     t.horizon,
			Source:      t.meta.Source,
			Probes:      t.probes.Load(),
			Hits:        t.hits.Load(),
			Escalations: t.escalations.Load(),
			LevelReads:  t.levelReads.Load(),
			TierErrors:  t.tierErrors.Load(),
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
// shallowest tier whose cost horizon covers cost — the tier
// LookupBatchBounded routes a bound-cost probe to first and, when the
// tiers are healthy, the one that answers it. Costs beyond every
// horizon report the deepest tier (answering them exhausted the whole
// escalation chain). It is kept only for perfbench's TierResolver
// assertion.
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
