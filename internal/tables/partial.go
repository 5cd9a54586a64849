package tables

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bfs"
	"repro/internal/hashtab"
)

// This file is the partitioned-store side of the fleet story: a shard
// that holds only one high-Wang-hash range of the tables, yet still
// composes into a router that answers byte-identically to a full local
// table. Three pieces make that safe:
//
//   - ranges are intervals over the high 32 hash bits, computed by the
//     same arithmetic the router partitions batches with (RangeOf), so
//     "the keys shard i stores" and "the keys the router sends to range
//     i" are the same set by construction;
//   - a Partial backend refuses — typed ErrNotOwned, never a silent
//     miss — any read outside its owned range, so a miswired fleet
//     fails loudly instead of synthesizing wrong circuits;
//   - level iteration, whose order the meet-in-the-middle scan depends
//     on, is preserved across the split by storing each local entry's
//     global level position (Split.GPos); shards answer sparse
//     (position, key) reads and the router merges them back into the
//     exact global order.

// RangeSpace is the size of the range coordinate space: ranges are
// half-open intervals [lo, hi) over the high 32 bits of the Wang hash,
// so the full key space is [0, RangeSpace).
const RangeSpace = uint64(1) << 32

// ErrNotOwned reports a read for a key or level range outside the
// owned split range of a partial table. It is a deterministic
// misconfiguration signal, not a transient failure: retrying cannot
// help, rewiring the fleet can.
var ErrNotOwned = errors.New("tables: read outside this shard's owned range")

// RangeOf returns the half-open interval [lo, hi) of high-hash values
// owned by range g of n equal ranges — exactly the keys the router's
// ShardOf assigns to group g, for any n ≥ 1.
func RangeOf(g, n int) (lo, hi uint64) {
	lo = (uint64(g)*RangeSpace + uint64(n) - 1) / uint64(n)
	hi = (uint64(g+1)*RangeSpace + uint64(n) - 1) / uint64(n)
	return lo, hi
}

// KeyInRange reports whether key's high hash falls inside [lo, hi).
func KeyInRange(key uint64, lo, hi uint64) bool {
	h := hashtab.Hash64Shift(key) >> 32
	return h >= lo && h < hi
}

// RangeOwner is implemented by backends that hold only part of the key
// space. The router verifies coverage against it; backends that do not
// implement it are full stores owning [0, RangeSpace).
type RangeOwner interface {
	// OwnedRange returns the half-open high-hash interval this backend
	// can answer for.
	OwnedRange() (lo, hi uint64)
}

// SparseLevels is the level-read shape of a partitioned fleet: instead
// of a dense slice of level c, the backend returns the (position, key)
// pairs it holds inside the global index window [lo, lo+n), further
// restricted to keys whose high hash lies in [filterLo, filterHi).
// Positions are relative to lo, strictly increasing, < n. The router
// fans one such request per range (filter = the range's interval) and
// merges the pairs back into the dense global order.
type SparseLevels interface {
	LevelKeysSparse(ctx context.Context, c, lo, n int, filterLo, filterHi uint64, pos []uint32, keys []uint64) (int, error)
}

// SparseLevelKeys answers a sparse level read against any backend: it
// delegates to SparseLevels when implemented, and otherwise synthesizes
// the pairs from a dense LevelKeys read plus the hash filter — so a
// full-store replica can serve inside a partitioned topology.
func SparseLevelKeys(ctx context.Context, b Backend, c, lo, n int, filterLo, filterHi uint64, pos []uint32, keys []uint64) (int, error) {
	if sp, ok := b.(SparseLevels); ok {
		return sp.LevelKeysSparse(ctx, c, lo, n, filterLo, filterHi, pos, keys)
	}
	if n < 0 || len(pos) < n || len(keys) < n {
		return 0, fmt.Errorf("tables: sparse level scratch smaller than window %d", n)
	}
	dense := make([]uint64, n)
	if err := b.LevelKeys(ctx, c, lo, dense); err != nil {
		return 0, err
	}
	count := 0
	for i, k := range dense {
		if KeyInRange(k, filterLo, filterHi) {
			pos[count] = uint32(i)
			keys[count] = k
			count++
		}
	}
	return count, nil
}

// ResidencyReporter is implemented by backends that can report the
// page-cache residency of their backing store (mmap-served tables);
// the per-range resident-bytes metric reads through it.
type ResidencyReporter interface {
	Residency() (resident, mapped int64, ok bool)
}

// Split describes which part of a table set a partial store holds and
// how its entries map back into the global level order. It is written
// into split v2 store headers by tablesio and validated on load.
type Split struct {
	// N is how many equal high-hash ranges the key space was split
	// into (a power of two); I is which range this store holds.
	N, I int
	// GlobalEntries/GlobalLevelCounts describe the FULL table set the
	// split was cut from — the Meta a partial shard advertises, so
	// compatibility checks span the whole fleet.
	GlobalEntries     int
	GlobalLevelCounts []int
	// gpos holds, grouped by level in local storage order, each local
	// entry's global position within its level; off[c] is level c's
	// start. Strictly increasing within a level.
	gpos []uint32
	off  []int
}

// NewSplit validates and assembles split metadata. localLevelCounts
// are the per-level entry counts actually present in this store; gpos
// is their concatenated global positions, level by level.
func NewSplit(n, i int, globalLevelCounts, localLevelCounts []int, gpos []uint32) (*Split, error) {
	if n < 1 || n&(n-1) != 0 || n > 1<<16 {
		return nil, fmt.Errorf("tables: split count %d is not a power of two in [1, 65536]", n)
	}
	if i < 0 || i >= n {
		return nil, fmt.Errorf("tables: split index %d outside [0, %d)", i, n)
	}
	if len(localLevelCounts) != len(globalLevelCounts) {
		return nil, fmt.Errorf("tables: split has %d local levels, %d global", len(localLevelCounts), len(globalLevelCounts))
	}
	globalTotal, localTotal := 0, 0
	s := &Split{N: n, I: i, GlobalLevelCounts: globalLevelCounts, gpos: gpos, off: make([]int, len(globalLevelCounts)+1)}
	for c, g := range globalLevelCounts {
		l := localLevelCounts[c]
		if g < 0 || l < 0 || l > g {
			return nil, fmt.Errorf("tables: split level %d holds %d of %d entries", c, l, g)
		}
		globalTotal += g
		s.off[c] = localTotal
		localTotal += l
	}
	s.off[len(globalLevelCounts)] = localTotal
	s.GlobalEntries = globalTotal
	if localTotal != len(gpos) {
		return nil, fmt.Errorf("tables: split has %d entries but %d global positions", localTotal, len(gpos))
	}
	for c := range globalLevelCounts {
		lv := gpos[s.off[c]:s.off[c+1]]
		for j, p := range lv {
			if int(p) >= globalLevelCounts[c] {
				return nil, fmt.Errorf("tables: split level %d position %d outside global count %d", c, p, globalLevelCounts[c])
			}
			if j > 0 && p <= lv[j-1] {
				return nil, fmt.Errorf("tables: split level %d positions not strictly increasing", c)
			}
		}
	}
	return s, nil
}

// Range returns the owned high-hash interval (exact multiples of
// RangeSpace/N, since N is a power of two).
func (s *Split) Range() (lo, hi uint64) { return RangeOf(s.I, s.N) }

// LocalLevelCounts returns the per-level entry counts present locally.
func (s *Split) LocalLevelCounts() []int {
	counts := make([]int, len(s.GlobalLevelCounts))
	for c := range counts {
		counts[c] = s.off[c+1] - s.off[c]
	}
	return counts
}

// GPos returns level c's global positions in local storage order.
func (s *Split) GPos(c int) []uint32 { return s.gpos[s.off[c]:s.off[c+1]] }

// Partial is the Backend a split-store shard exports: the owned range
// of the tables, with the global metadata. Reads outside the owned
// range fail with ErrNotOwned — a partial table never guesses.
//
// Partial deliberately does NOT implement Localized: handing callers of
// core's Result() a direct *bfs.Result view of a split table would turn
// out-of-range keys into silent misses. Partial tables are served
// through the router, which is what restores full coverage.
type Partial struct {
	res    *bfs.Result
	sp     *Split
	meta   Meta
	lo, hi uint64
}

// NewPartial wraps a split result (loaded from a split v2 store) as a
// Backend. The result must hold exactly the entries the split metadata
// declares; it stays owned by the caller, as with NewLocal.
func NewPartial(res *bfs.Result, sp *Split) (*Partial, error) {
	if res == nil || sp == nil {
		return nil, fmt.Errorf("tables: nil result or split metadata")
	}
	if res.MaxCost+1 != len(sp.GlobalLevelCounts) {
		return nil, fmt.Errorf("tables: split result horizon %d, metadata %d levels", res.MaxCost, len(sp.GlobalLevelCounts))
	}
	for c := 0; c <= res.MaxCost; c++ {
		if res.LevelLen(c) != sp.off[c+1]-sp.off[c] {
			return nil, fmt.Errorf("tables: split level %d has %d entries, metadata %d", c, res.LevelLen(c), sp.off[c+1]-sp.off[c])
		}
	}
	m := Meta{
		K:           res.MaxCost,
		Reduced:     res.Reduced,
		Entries:     sp.GlobalEntries,
		LevelCounts: sp.GlobalLevelCounts,
		Fingerprint: FingerprintOf(res.Alphabet),
		Source:      fmt.Sprintf("split(%d/%d)", sp.I, sp.N),
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	lo, hi := sp.Range()
	return &Partial{res: res, sp: sp, meta: m, lo: lo, hi: hi}, nil
}

// Meta returns the GLOBAL table metadata: a partial shard describes the
// table set it is a part of, so fleet-wide compatibility checks hold,
// and carries its partiality in OwnedRange.
func (b *Partial) Meta() Meta { return b.meta }

// OwnedRange returns the high-hash interval this shard answers for.
func (b *Partial) OwnedRange() (lo, hi uint64) { return b.lo, b.hi }

// Split exposes the split metadata.
func (b *Partial) Split() *Split { return b.sp }

// LookupBatch probes the local split; any key outside the owned range
// fails the whole batch with ErrNotOwned.
func (b *Partial) LookupBatch(_ context.Context, keys []uint64, vals []uint16, found []bool) error {
	if len(vals) != len(keys) || len(found) != len(keys) {
		return fmt.Errorf("tables: LookupBatch slice lengths differ (%d/%d/%d)", len(keys), len(vals), len(found))
	}
	for i, k := range keys {
		if !KeyInRange(k, b.lo, b.hi) {
			return fmt.Errorf("%w: key %#x hashes outside [%#x, %#x)", ErrNotOwned, k, b.lo, b.hi)
		}
		vals[i], found[i] = b.res.LookupRaw(k)
	}
	return nil
}

// LevelKeys cannot be answered densely by a partial shard — the global
// level order interleaves every shard's entries — so it always fails
// with ErrNotOwned. Use LevelKeysSparse.
func (b *Partial) LevelKeys(_ context.Context, c, lo int, out []uint64) error {
	return fmt.Errorf("%w: dense level read on a %d/%d split shard (use sparse reads)", ErrNotOwned, b.sp.I, b.sp.N)
}

// LevelKeysSparse returns the locally-held (position, key) pairs of
// level c inside the global window [lo, lo+n), filtered to
// [filterLo, filterHi). See SparseLevels.
func (b *Partial) LevelKeysSparse(_ context.Context, c, lo, n int, filterLo, filterHi uint64, pos []uint32, keys []uint64) (int, error) {
	if c < 0 || c > b.meta.K {
		return 0, fmt.Errorf("tables: level %d outside horizon %d", c, b.meta.K)
	}
	if lo < 0 || n < 0 || lo+n > b.meta.LevelCounts[c] {
		return 0, fmt.Errorf("tables: level %d window [%d, %d) outside [0, %d)", c, lo, lo+n, b.meta.LevelCounts[c])
	}
	gp := b.sp.GPos(c)
	start := sort.Search(len(gp), func(i int) bool { return int(gp[i]) >= lo })
	lv := b.res.Level(c)
	count := 0
	for j := start; j < len(gp) && int(gp[j]) < lo+n; j++ {
		k := uint64(lv.At(j))
		if !KeyInRange(k, filterLo, filterHi) {
			continue
		}
		if count >= len(pos) || count >= len(keys) {
			return 0, fmt.Errorf("tables: sparse level scratch overflow at %d pairs", count)
		}
		pos[count] = uint32(int(gp[j]) - lo)
		keys[count] = k
		count++
	}
	return count, nil
}

// Residency reports the page-cache residency of the backing store.
func (b *Partial) Residency() (resident, mapped int64, ok bool) {
	return b.res.Frozen.Residency()
}

// Close is a no-op: the wrapped result belongs to its owner.
func (b *Partial) Close() error { return nil }
