// Package tables defines the backend-neutral read interface over the
// paper's precomputed search tables — the seam that separates the query
// engine (package core) from where the tables physically live.
//
// The paper's workflow is precompute-once/query-many: the breadth-first
// search tables are built on one big machine (§3.1) and every synthesis
// query afterwards only *reads* them — canonical-representative cost
// lookups plus per-level iteration over the representative lists. Those
// two read operations, batched, plus the metadata needed to interpret
// them are exactly what Backend captures. Everything else follows from
// implementations:
//
//   - Local wraps an in-process bfs.Result (on the heap or
//     memory-mapped off a tablesio v2 store) — the single-host case.
//   - tablenet.Client speaks the same interface over a wire protocol to
//     a shard server exporting its mapped store.
//   - tablenet.Router partitions the key space by the same high
//     Wang-hash bits the sharded hash table already uses and fans each
//     batch out across N shard backends.
//
// Both operations are batch-shaped on purpose: a network backend
// amortizes its round trips over hundreds of keys per call. Core reads
// every backend, Local included, through these two calls only; against
// Local it simply asks for smaller batches (one representative's
// candidates), since there is no round trip to amortize.
package tables

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/bfs"
)

// Fingerprint summarizes an alphabet for compatibility checking: tables
// must never be interpreted against a different building-block set than
// the one that produced them. It is the same fingerprint tablesio
// persists in store headers and tablenet carries in its handshake.
type Fingerprint struct {
	Elements uint32
	MaxCost  uint32
	XorPerms uint64
	SumCosts uint64
}

// FingerprintOf computes an alphabet's fingerprint.
func FingerprintOf(a *bfs.Alphabet) Fingerprint {
	fp := Fingerprint{Elements: uint32(a.Len()), MaxCost: uint32(a.MaxCost())}
	for i := 0; i < a.Len(); i++ {
		e := a.Element(i)
		fp.XorPerms ^= uint64(e.P) * uint64(i+1)
		fp.SumCosts += uint64(e.Cost)
	}
	return fp
}

// Meta describes a table set: the geometry a query engine needs before
// it can issue reads. It is constant over a backend's lifetime.
type Meta struct {
	// K is the search horizon: every class with minimal cost ≤ K is
	// present.
	K int
	// Reduced records whether the canonical (÷48) symmetry reduction was
	// applied; reduced tables are keyed by class representatives.
	Reduced bool
	// Entries is the total number of stored representatives (identity
	// included).
	Entries int
	// LevelCounts[c] is the number of representatives with minimal cost
	// exactly c; len(LevelCounts) == K+1. These are the per-level
	// iteration bounds for LevelKeys.
	LevelCounts []int
	// Fingerprint identifies the alphabet the tables were built over.
	Fingerprint Fingerprint
	// Horizon is the maximum circuit cost the meet-in-the-middle engine
	// can synthesize from these tables: K + maxSplit − (alphabet
	// MaxCost − 1), where maxSplit ≤ K. A cost above Horizon is not
	// "missing", it is *unanswerable* at this depth — the signal a
	// federation uses to escalate to a deeper tier, and the fact a
	// "beyond horizon" error from a tier-attributed backend is final
	// (core never re-scans). Zero means "unadvertised" (a pre-horizon
	// store or hello); NormHorizon normalizes that to the conservative
	// floor K. Advisory: Compatible ignores it, so mixed-age fleets
	// where only some members advertise a horizon still interoperate.
	Horizon int
	// Source describes where the tables live, for stats/logs: "local",
	// "tablenet(addr)", "router(n)", "federation(n)".
	Source string
}

// NormHorizon returns the advertised horizon, defaulting an unadvertised
// (zero) value to K — always answerable, never over-promising.
func (m Meta) NormHorizon() int {
	if m.Horizon == 0 {
		return m.K
	}
	return m.Horizon
}

// Validate checks Meta's internal consistency; backends return validated
// metadata, and consumers of untrusted backends (network handshakes)
// re-check.
func (m Meta) Validate() error {
	if m.K < 0 || m.K > bfs.MaxPackedCost {
		return fmt.Errorf("tables: horizon %d outside [0, %d]", m.K, bfs.MaxPackedCost)
	}
	if len(m.LevelCounts) != m.K+1 {
		return fmt.Errorf("tables: %d level counts for horizon %d", len(m.LevelCounts), m.K)
	}
	total := 0
	for c, n := range m.LevelCounts {
		if n < 0 {
			return fmt.Errorf("tables: negative count at level %d", c)
		}
		total += n
	}
	if total != m.Entries {
		return fmt.Errorf("tables: level counts sum to %d, meta declares %d entries", total, m.Entries)
	}
	if m.Entries < 1 {
		return fmt.Errorf("tables: table declares no entries")
	}
	if m.Horizon != 0 && (m.Horizon < m.K || m.Horizon > 2*m.K) {
		return fmt.Errorf("tables: synthesis horizon %d outside [%d, %d]", m.Horizon, m.K, 2*m.K)
	}
	return nil
}

// Compatible reports whether two metadata blocks describe the same
// logical table set — the check a router runs across its shards and a
// client runs when a reconnect lands on a restarted server.
func (m Meta) Compatible(o Meta) bool {
	if m.K != o.K || m.Reduced != o.Reduced || m.Entries != o.Entries || m.Fingerprint != o.Fingerprint {
		return false
	}
	for c, n := range m.LevelCounts {
		if o.LevelCounts[c] != n {
			return false
		}
	}
	return true
}

// Backend is the read interface of a search-table set. Implementations
// must be safe for concurrent use by any number of goroutines.
//
// Keys are the raw packed-permutation words stored in the table: for a
// reduced table set the caller canonicalizes (canon.Rep) before looking
// up, exactly as it would against a local hash table — canonicalization
// is query-side CPU, the backend only answers membership and packed
// values. Values are the cost-packed uint16 words bfs.UnpackValue
// decodes.
type Backend interface {
	// Meta returns the table metadata (constant, pre-validated).
	Meta() Meta
	// LookupBatch probes every keys[i], writing the packed value into
	// vals[i] and presence into found[i]. The three slices must have
	// equal length; missing keys leave vals[i] unspecified. A batch is
	// one round trip for a network backend, so callers amortize: the
	// meet-in-the-middle scan batches a whole chunk of candidate
	// residues per call.
	LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error
	// LevelKeys fills out with the representative words of cost level c,
	// index range [lo, lo+len(out)) in the level's storage order. The
	// range must lie within Meta().LevelCounts[c].
	LevelKeys(ctx context.Context, c, lo int, out []uint64) error
	// Close releases the backend's resources (connections, mappings).
	Close() error
}

// BoundedLookuper is the optional Backend refinement behind
// cost-horizon routing. LookupBatchBounded is LookupBatch for callers
// that only need to distinguish "present with minimal cost ≤ bound"
// from "not": a key whose cost exceeds bound MAY be reported absent.
// The relaxation is what a Federation needs to route the whole batch
// to the single shallowest tier whose depth covers the bound — that
// tier is authoritative for every cost ≤ its K, so there is nothing to
// escalate and nothing is probed twice. The meet-in-the-middle scan
// always knows such a bound (the residue cost it is scanning for), as
// does reconstruction (each step strips one element, so the remainder
// costs one less than the last).
type BoundedLookuper interface {
	LookupBatchBounded(ctx context.Context, keys []uint64, vals []uint16, found []bool, bound int) error
}

// Localized is implemented by backends that can expose their tables as
// an in-process bfs.Result. Core's queries never read through it; it
// only backs core.Synthesizer.Result(), for callers that save or report
// on the in-process tables, and tells core there is no round trip to
// batch for.
type Localized interface {
	Local() *bfs.Result
}

// CacheStats are the read-path cache counters of a caching backend
// (tablenet.Client's tiered caches, or a Router's aggregate over its
// shard clients). Everything a backend fetches is immutable — frozen
// tables never change under a fingerprint — so cache entries are valid
// for the backend's lifetime and the hit counters measure pure wire
// savings.
type CacheStats struct {
	// KeyHits/KeyMisses count canonical-key probes answered by the
	// hot-key cache vs sent over the wire.
	KeyHits   uint64 `json:"key_hits"`
	KeyMisses uint64 `json:"key_misses"`
	// LevelHits/LevelMisses count level-key blocks served from the
	// immutable level-chunk cache vs fetched.
	LevelHits   uint64 `json:"level_hits"`
	LevelMisses uint64 `json:"level_misses"`
	// Coalesced counts fetches that piggybacked on an identical
	// in-flight miss instead of issuing their own round trip.
	Coalesced uint64 `json:"coalesced"`
	// CacheBytes is the memory currently held by the caches.
	CacheBytes int64 `json:"cache_bytes"`
	// WireBytesRead/WireBytesWritten count protocol bytes actually moved
	// — the denominator the cache counters are saving against.
	WireBytesRead    uint64 `json:"wire_bytes_read"`
	WireBytesWritten uint64 `json:"wire_bytes_written"`
	// WireRetries counts request attempts re-sent after a retryable
	// transport failure — the fleet-instability signal.
	WireRetries uint64 `json:"wire_retries"`
	// AdmissionRejects is always 0: the hot-key cache inserts every
	// fetched result and has no admission filter. The field remains
	// while perfbench still reports it as client.admission_rejects.
	AdmissionRejects uint64 `json:"admission_rejects"`
}

// Add accumulates o into s (the router's shard-aggregation helper).
func (s *CacheStats) Add(o CacheStats) {
	s.KeyHits += o.KeyHits
	s.KeyMisses += o.KeyMisses
	s.LevelHits += o.LevelHits
	s.LevelMisses += o.LevelMisses
	s.Coalesced += o.Coalesced
	s.CacheBytes += o.CacheBytes
	s.WireBytesRead += o.WireBytesRead
	s.WireBytesWritten += o.WireBytesWritten
	s.WireRetries += o.WireRetries
	s.AdmissionRejects += o.AdmissionRejects
}

// KeyHitRatio is the hot-key tier's hit fraction (0 when unprobed).
// Ratios are derived at read time, never stored: Add aggregates raw
// counters and the ratio of a sum stays meaningful.
func (s CacheStats) KeyHitRatio() float64 {
	if t := s.KeyHits + s.KeyMisses; t > 0 {
		return float64(s.KeyHits) / float64(t)
	}
	return 0
}

// LevelHitRatio is the level-block tier's hit fraction (0 when unprobed).
func (s CacheStats) LevelHitRatio() float64 {
	if t := s.LevelHits + s.LevelMisses; t > 0 {
		return float64(s.LevelHits) / float64(t)
	}
	return 0
}

// MarshalJSON emits the counters plus the derived per-tier hit ratios,
// so /stats consumers get dashboard-ready signals without re-deriving.
func (s CacheStats) MarshalJSON() ([]byte, error) {
	type raw CacheStats // shed methods: avoid recursive marshal
	return json.Marshal(struct {
		raw
		KeyHitRatio   float64 `json:"key_hit_ratio"`
		LevelHitRatio float64 `json:"level_hit_ratio"`
	}{raw(s), s.KeyHitRatio(), s.LevelHitRatio()})
}

// CacheStatser is implemented by backends that maintain read caches;
// service.Stats and the revserve /stats endpoint surface the counters
// of a backend that provides them.
type CacheStatser interface {
	CacheStats() CacheStats
}

// Health is one replica's availability snapshot as its router's health
// tracker sees it — traffic-driven state, no probe I/O. A replica is
// "healthy" while requests succeed, "ejected" after enough consecutive
// failures (traffic routes around it until its ejection window
// expires), and "half-open" while a single trial request decides
// between re-admission and a longer ejection.
type Health struct {
	// Addr names the replica (dial address, or "local[i]" for an
	// in-process backend); Range is the hash-range index it serves.
	Addr  string `json:"addr"`
	Range int    `json:"range"`
	// State is "healthy", "ejected", or "half-open".
	State string `json:"state"`
	// ConsecutiveFailures is the current unbroken failure run (zeroed
	// by any success); Ejections counts how many times the replica has
	// been ejected over its lifetime.
	ConsecutiveFailures uint64 `json:"consecutive_failures"`
	Ejections           uint64 `json:"ejections"`
}

// HealthStatser is implemented by backends that track per-replica
// health (tablenet.Router); service.Stats and the revserve /stats
// endpoint surface the fleet view of a backend that provides it.
type HealthStatser interface {
	HealthStats() []Health
}

// TierStats is one tier's routing counters inside a federation: how
// much traffic the tier absorbed vs passed upward. Hits/Escalations
// partition Probes for every tier below the top (the top tier never
// escalates — its misses are authoritative).
type TierStats struct {
	// K and Horizon describe the tier's tables; Source names its fleet.
	K       int    `json:"k"`
	Horizon int    `json:"horizon"`
	Source  string `json:"source"`
	// Probes counts keys offered to this tier; Hits the keys it
	// answered; Escalations the keys passed to the next deeper tier
	// (not found here, or the tier's probe failed outright).
	Probes      uint64 `json:"probes"`
	Hits        uint64 `json:"hits"`
	Escalations uint64 `json:"escalations"`
	// LevelReads counts LevelKeys calls routed to this tier (the
	// federation serves level c from the shallowest tier holding it).
	LevelReads uint64 `json:"level_reads"`
	// TierErrors counts probe calls that failed and were failed over to
	// the next tier wholesale — the tier-outage signal.
	TierErrors uint64 `json:"tier_errors"`
	// Cache is the tier's aggregated client-cache view, when its fleet
	// keeps caches.
	Cache *CacheStats `json:"cache,omitempty"`
}

// TierStatser is implemented by tiered backends (tablenet.Federation);
// service.Stats and /stats+/metrics surface per-tier routing counters
// of a backend that provides them.
type TierStatser interface {
	TierStats() []TierStats
}

// TierResolver is implemented by tiered backends that can statically
// map a minimal cost to the tier that answers it. The service layer
// uses it to weight result-cache retention: an answer that had to come
// from a deep (expensive) tier is worth keeping longer than one any
// tier could have produced.
type TierResolver interface {
	// TierForCost returns the index (0 = shallowest) of the tier whose
	// cost horizon covers the given minimal cost — the tier a direct
	// lookup of that cost is answered by. Costs beyond every horizon
	// return the deepest tier: resolving them consumed the whole
	// escalation chain.
	TierForCost(cost int) int
}

// Local is the in-process Backend over a bfs.Result (on the heap or
// memory-mapped). It is the reference implementation the network stack
// is tested against, and the backend every shard server exports.
type Local struct {
	res  *bfs.Result
	meta Meta
}

// NewLocal wraps res as a Backend. The result must stay valid (and
// unclosed) for the backend's lifetime; Close on the backend does not
// release it — the result's owner does, mirroring service.Config.Tables
// ownership.
func NewLocal(res *bfs.Result) (*Local, error) {
	if res == nil {
		return nil, fmt.Errorf("tables: nil result")
	}
	counts := make([]int, res.MaxCost+1)
	for c := range counts {
		counts[c] = res.LevelLen(c)
	}
	// The synthesis horizon of a full-depth MITM engine over these
	// tables: both scan halves reach depth K, overlapping by the
	// costliest single gate (2K − (maxGateCost−1)), never below K.
	horizon := 2*res.MaxCost - (res.Alphabet.MaxCost() - 1)
	if horizon < res.MaxCost {
		horizon = res.MaxCost
	}
	m := Meta{
		K:           res.MaxCost,
		Reduced:     res.Reduced,
		Entries:     res.TotalStored(),
		LevelCounts: counts,
		Fingerprint: FingerprintOf(res.Alphabet),
		Horizon:     horizon,
		Source:      "local",
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Local{res: res, meta: m}, nil
}

// Local exposes the wrapped result (see Localized).
func (b *Local) Local() *bfs.Result { return b.res }

// Meta returns the table metadata.
func (b *Local) Meta() Meta { return b.meta }

// LookupBatch probes the in-process table; it never fails except on
// malformed arguments.
func (b *Local) LookupBatch(_ context.Context, keys []uint64, vals []uint16, found []bool) error {
	if len(vals) != len(keys) || len(found) != len(keys) {
		return fmt.Errorf("tables: LookupBatch slice lengths differ (%d/%d/%d)", len(keys), len(vals), len(found))
	}
	for i, k := range keys {
		vals[i], found[i] = b.res.LookupRaw(k)
	}
	return nil
}

// LevelKeys copies a slice of cost level c's representative words.
func (b *Local) LevelKeys(_ context.Context, c, lo int, out []uint64) error {
	if c < 0 || c > b.meta.K {
		return fmt.Errorf("tables: level %d outside horizon %d", c, b.meta.K)
	}
	n := b.meta.LevelCounts[c]
	if lo < 0 || lo+len(out) > n {
		return fmt.Errorf("tables: level %d range [%d, %d) outside [0, %d)", c, lo, lo+len(out), n)
	}
	lv := b.res.Level(c)
	for i := range out {
		out[i] = uint64(lv.At(lo + i))
	}
	return nil
}

// Residency reports the page-cache residency of the backing store when
// the result is memory-mapped (ok is false otherwise).
func (b *Local) Residency() (resident, mapped int64, ok bool) {
	return b.res.Frozen.Residency()
}

// Close is a no-op: the wrapped result belongs to its owner.
func (b *Local) Close() error { return nil }
