package hashtab

import (
	"fmt"
	"math/bits"
	"sync"
	"unsafe"
)

// FrozenTable is the immutable, flat-layout view of a table: every shard
// occupies the same power-of-two number of slots inside two contiguous
// arrays (keys, vals), so the whole probe structure is two allocations —
// or, on the serving path, two sections of a memory-mapped table file
// (tablesio format v2). Because the layout is position-determined by the
// Wang hash alone, a persisted FrozenTable needs no parsing and no
// rehashing to become servable: the mapped bytes ARE the table.
//
// The read path is the innermost operation of the meet-in-the-middle
// search, so Lookup probes through raw pointers (no per-probe bounds
// checks) with the shard and slot derived from one hash by shift/mask
// arithmetic only. The geometry is validated once at construction, which
// is what makes the unchecked arithmetic safe: shard index is hash >>
// shardShift < shardCount and slot index is masked, so every access
// stays inside the arrays for any key and any (even corrupt) cell
// contents. A probe visits at most slotsPerShard cells, so a full
// (corrupt) shard terminates instead of cycling.
//
// A FrozenTable may also hold a *split* of a table: only the shards of
// one contiguous high-hash range out of splitN equal ranges (the store
// partitioning unit of a fleet). The layout inside the held range is
// identical to the full table's — shard index is still derived from the
// hash alone, offset by the first owned shard — so a split table answers
// its range byte-identically to the full table and reports keys outside
// its range as absent (tables.Partial tells "not owned" apart).
//
// A FrozenTable is safe for concurrent use by any number of readers.
type FrozenTable struct {
	keys []uint64
	vals []uint16
	// keysPtr/valsPtr cache the backing-array base pointers; the slices
	// above keep the memory (or mapping owner) reachable.
	keysPtr unsafe.Pointer
	valsPtr unsafe.Pointer
	// shardShift is 64 − log2(splitN·shardCount): global shard index =
	// hash >> shardShift. For a full table splitN is 1 and shardBase 0.
	shardShift uint
	// slotLog is log2(slots per shard); slotMask = 1<<slotLog − 1.
	slotLog  uint
	slotMask uint64
	// shardBase is the first global shard this table holds; local shard
	// index = global − shardBase, valid in [0, shardCount).
	shardBase  uint64
	shardCount int
	count      int
	// lifeMu serializes the lifecycle surface (SetMapped/SetCloser/
	// Residency/Close): a stats scrape probing page residency must never
	// race the shutdown path unmapping the file. The query hot path
	// never touches these fields, so the mutex costs lookups nothing.
	lifeMu sync.Mutex
	closer func() error
	// mapped is the whole backing file mapping when the table is
	// memory-mapped (set by the loader via SetMapped), enabling
	// page-residency telemetry; nil for heap-backed tables.
	mapped []byte
}

// maxFrozenSlots bounds the total slot count so global slot numbers fit
// in uint32, the width of the persisted per-level slot index.
const maxFrozenSlots = int64(1) << 32

// minShardSlots is the smallest per-shard slot count; it keeps the mask
// arithmetic non-degenerate and matches the inner Table's minimum.
const minShardSlots = 16

// NewFrozen wraps pre-laid-out slot arrays as a frozen table. The slices
// must follow the canonical layout: shardCount uniform shards of
// len(keys)/shardCount slots each (both powers of two), key 0 marking
// empty slots, and every key placed on its linear-probe chain from slot
// Hash64Shift(key)&slotMask of shard Hash64Shift(key)>>shardShift.
// count is the number of non-empty slots. Only the geometry is validated
// here; the placement invariant is the writer's contract (tablesio
// verifies it when loading untrusted streams).
func NewFrozen(keys []uint64, vals []uint16, shardCount, count int) (*FrozenTable, error) {
	return NewFrozenSplit(keys, vals, shardCount, count, 1, 0)
}

// NewFrozenSplit wraps the slot arrays of one split of a table: range
// splitIdx of splitN equal high-hash ranges (splitN a power of two). The
// arrays hold only this range's shardCount shards; global shard index
// hash >> shardShift runs over splitN·shardCount conceptual shards, of
// which this table owns [splitIdx·shardCount, (splitIdx+1)·shardCount).
// NewFrozen is the splitN = 1 case.
func NewFrozenSplit(keys []uint64, vals []uint16, shardCount, count, splitN, splitIdx int) (*FrozenTable, error) {
	if len(keys) == 0 || len(keys) != len(vals) {
		return nil, fmt.Errorf("hashtab: frozen slot arrays have lengths %d/%d", len(keys), len(vals))
	}
	if splitN < 1 || splitN&(splitN-1) != 0 {
		return nil, fmt.Errorf("hashtab: split count %d is not a power of two", splitN)
	}
	if splitIdx < 0 || splitIdx >= splitN {
		return nil, fmt.Errorf("hashtab: split index %d out of range [0, %d)", splitIdx, splitN)
	}
	if shardCount < 1 || shardCount&(shardCount-1) != 0 || shardCount > 1<<16 ||
		int64(shardCount)*int64(splitN) > 1<<16 {
		return nil, fmt.Errorf("hashtab: %d shards × split %d is not a power of two in [1, 65536]", shardCount, splitN)
	}
	if int64(len(keys)) > maxFrozenSlots {
		return nil, fmt.Errorf("hashtab: %d slots exceed the uint32 slot-index space", len(keys))
	}
	perShard := len(keys) / shardCount
	if perShard*shardCount != len(keys) || perShard < minShardSlots || perShard&(perShard-1) != 0 {
		return nil, fmt.Errorf("hashtab: %d slots do not split into %d uniform power-of-two shards", len(keys), shardCount)
	}
	if count < 0 || count > len(keys) {
		return nil, fmt.Errorf("hashtab: frozen entry count %d out of range [0, %d]", count, len(keys))
	}
	slotLog := uint(bits.TrailingZeros(uint(perShard)))
	return &FrozenTable{
		keys:       keys,
		vals:       vals,
		keysPtr:    unsafe.Pointer(unsafe.SliceData(keys)),
		valsPtr:    unsafe.Pointer(unsafe.SliceData(vals)),
		shardShift: uint(64 - bits.TrailingZeros(uint(shardCount*splitN))),
		slotLog:    slotLog,
		slotMask:   uint64(perShard - 1),
		shardBase:  uint64(splitIdx) * uint64(shardCount),
		shardCount: shardCount,
		count:      count,
	}, nil
}

// FrozenSlotsPerShard returns the uniform per-shard slot count the
// frozen layout uses for a table whose fullest shard holds maxCount
// entries: the smallest power of two ≥ minShardSlots that keeps that
// shard at or under the build-phase load factor. Exported so an
// out-of-core builder that knows only per-shard entry counts can size a
// store identically to Compact without materializing the table.
func FrozenSlotsPerShard(maxCount int) int {
	perShard := minShardSlots
	for float64(maxCount) > maxLoadFactor*float64(perShard) {
		perShard <<= 1
	}
	return perShard
}

// PlaceScratch is PlaceShardCanonical's working memory: the home-slot
// histogram (one counter per slot, plus one) and the entries regrouped
// by home. The zero value is ready; the buffers grow to the largest
// shard placed and are reused by later calls.
type PlaceScratch struct {
	starts []uint32
	keys   []uint64
	vals   []uint16
}

// PlaceScratchOf makes placement scratch of caller-owned buffers: for
// shards of up to len(keys) entries (len(vals) ≥ len(keys)) in up to
// len(starts)-1 slots, PlaceShardCanonical allocates nothing.
func PlaceScratchOf(starts []uint32, keys []uint64, vals []uint16) PlaceScratch {
	return PlaceScratch{starts: starts, keys: keys, vals: vals}
}

// PlaceShardCanonical lays one shard's entries into the caller's zeroed
// slot arrays (len a power of two ≥ minShardSlots, strictly greater than
// len(ks)) in the canonical frozen order: entries sorted by (home slot,
// key) and then linear-probed. Linear probing fills the same SET of
// slots for any insertion order; fixing the order makes the assignment
// of keys to slots — and therefore the persisted bytes — a pure
// function of the entry set, which is what lets an out-of-core build
// and an in-memory Compact of the same table emit identical stores.
//
// The order is a counting sort by home slot; within a home, keys are
// insertion-sorted, which is cheap because the load factor keeps the
// average home to under one entry. Keys must be unique and nonzero; ks
// and vs are not modified.
func PlaceShardCanonical(ks []uint64, vs []uint16, slotKeys []uint64, slotVals []uint16, sc *PlaceScratch) {
	slots := len(slotKeys)
	mask := uint64(slots - 1)
	if cap(sc.starts) < slots+1 {
		sc.starts = make([]uint32, slots+1)
	}
	if cap(sc.keys) < len(ks) {
		sc.keys = make([]uint64, len(ks))
		sc.vals = make([]uint16, len(ks))
	}
	starts, gk, gv := sc.starts[:slots+1], sc.keys[:len(ks)], sc.vals[:len(ks)]
	clear(starts)
	for _, k := range ks {
		starts[Hash64Shift(k)&mask+1]++
	}
	for h := 1; h <= slots; h++ {
		starts[h] += starts[h-1]
	}
	// Scatter: afterwards starts[h] is the end of home h's bucket,
	// which is where home h+1's bucket begins.
	for i, k := range ks {
		h := Hash64Shift(k) & mask
		gk[starts[h]], gv[starts[h]] = k, vs[i]
		starts[h]++
	}
	// Probe in (home, key) order. Until the first wrap past the last
	// slot, the occupied slots form runs ending at the last placement,
	// so an entry's probe ends at max(home, last+1) without rescanning
	// its run. Once one entry wraps, all later ones do (their homes are
	// no smaller); they take the first free slots from 0 in order.
	next, wrap := uint64(0), uint64(0)
	lo := uint32(0)
	for h := uint64(0); h <= mask; h++ {
		hi := starts[h]
		bk, bv := gk[lo:hi], gv[lo:hi]
		lo = hi
		for a := 1; a < len(bk); a++ {
			k, v := bk[a], bv[a]
			b := a
			for ; b > 0 && bk[b-1] > k; b-- {
				bk[b], bv[b] = bk[b-1], bv[b-1]
			}
			bk[b], bv[b] = k, v
		}
		for e, k := range bk {
			j := max(h, next)
			if j <= mask {
				next = j + 1
			} else {
				for slotKeys[wrap] != 0 {
					wrap++
				}
				j = wrap
			}
			slotKeys[j], slotVals[j] = k, bv[e]
		}
	}
}

// Compact re-lays a sharded table into the frozen flat layout: one pass
// that sizes every shard to the same power of two (the smallest keeping
// the fullest shard at or under the build-phase load factor) and places
// each entry on its probe chain in the canonical (home slot, key) order,
// so the resulting arrays depend only on the stored entries, never on
// insertion history. This is the once-per-table cost the serving path
// pays so that queries — and the persisted v2 format — get the
// two-array layout; afterwards the sharded table can be dropped.
func Compact(t *ShardedTable) (*FrozenTable, error) {
	maxCount, total := 0, 0
	for i := range t.shards {
		n := t.shards[i].t.Len()
		total += n
		if n > maxCount {
			maxCount = n
		}
	}
	perShard := FrozenSlotsPerShard(maxCount)
	shardCount := len(t.shards)
	if int64(shardCount)*int64(perShard) > maxFrozenSlots {
		return nil, fmt.Errorf("hashtab: compact layout needs %d slots, over the uint32 slot-index space", int64(shardCount)*int64(perShard))
	}
	keys := make([]uint64, shardCount*perShard)
	vals := make([]uint16, shardCount*perShard)
	ft, err := NewFrozen(keys, vals, shardCount, total)
	if err != nil {
		return nil, err
	}
	eks := make([]uint64, 0, maxCount)
	evs := make([]uint16, 0, maxCount)
	var sc PlaceScratch
	for i := range t.shards {
		eks, evs = eks[:0], evs[:0]
		t.shards[i].t.ForEach(func(k uint64, v uint16) bool {
			eks = append(eks, k)
			evs = append(evs, v)
			return true
		})
		PlaceShardCanonical(eks, evs, keys[i*perShard:(i+1)*perShard], vals[i*perShard:(i+1)*perShard], &sc)
	}
	return ft, nil
}

// Lookup returns the value stored under key and whether it is present.
// Key 0 is never present. Lock-free and allocation-free.
func (t *FrozenTable) Lookup(key uint64) (uint16, bool) {
	if key == 0 {
		return 0, false
	}
	h := Hash64Shift(key)
	shard := (h >> t.shardShift) - t.shardBase
	if shard >= uint64(t.shardCount) {
		// Outside the owned split range (unsigned wrap catches below-base
		// too). For a full table this branch is dead: shard < shardCount
		// by construction.
		return 0, false
	}
	base := shard << t.slotLog
	mask := t.slotMask
	i := h & mask
	// Geometry proof for the unchecked loads: base ≤ (shardCount−1)<<slotLog
	// and i ≤ mask < 1<<slotLog, so base+i < shardCount<<slotLog = len(keys).
	for n := uint64(0); n <= mask; n++ {
		j := uintptr(base + i)
		k := *(*uint64)(unsafe.Add(t.keysPtr, j*8))
		if k == key {
			return *(*uint16)(unsafe.Add(t.valsPtr, j*2)), true
		}
		if k == 0 {
			return 0, false
		}
		i = (i + 1) & mask
	}
	return 0, false
}

// Contains reports whether key is present.
func (t *FrozenTable) Contains(key uint64) bool {
	_, ok := t.Lookup(key)
	return ok
}

// SlotOf returns the global slot number holding key, for building the
// persisted per-level slot index.
func (t *FrozenTable) SlotOf(key uint64) (uint32, bool) {
	if key == 0 {
		return 0, false
	}
	h := Hash64Shift(key)
	shard := (h >> t.shardShift) - t.shardBase
	if shard >= uint64(t.shardCount) {
		return 0, false
	}
	base := shard << t.slotLog
	mask := t.slotMask
	i := h & mask
	for n := uint64(0); n <= mask; n++ {
		j := base + i
		k := t.keys[j]
		if k == key {
			return uint32(j), true
		}
		if k == 0 {
			return 0, false
		}
		i = (i + 1) & mask
	}
	return 0, false
}

// KeyAt returns the key stored in a global slot (0 when empty). The slot
// is masked into range, so a corrupt persisted index cannot read outside
// the arrays.
func (t *FrozenTable) KeyAt(slot uint32) uint64 {
	return t.keys[uint64(slot)&uint64(len(t.keys)-1)]
}

// ValAt returns the value stored in a global slot.
func (t *FrozenTable) ValAt(slot uint32) uint16 {
	return t.vals[uint64(slot)&uint64(len(t.vals)-1)]
}

// Len returns the number of stored entries.
func (t *FrozenTable) Len() int { return t.count }

// Slots returns the total slot count (a power of two).
func (t *FrozenTable) Slots() int { return len(t.keys) }

// ShardCount returns the number of uniform shards this table holds
// (for a split table, the shards of its range only).
func (t *FrozenTable) ShardCount() int { return t.shardCount }

// SplitN returns how many equal high-hash ranges the full key space is
// divided into (1 for a full table) and which range this table holds.
func (t *FrozenTable) SplitN() (n, idx int) {
	n = (1 << (64 - t.shardShift)) / t.shardCount
	return n, int(t.shardBase) / t.shardCount
}

// SlotsPerShard returns the per-shard slot count.
func (t *FrozenTable) SlotsPerShard() int { return 1 << t.slotLog }

// LoadFactor returns entries/slots.
func (t *FrozenTable) LoadFactor() float64 { return float64(t.count) / float64(len(t.keys)) }

// MemoryBytes returns the footprint of the backing arrays (8-byte key +
// 2-byte value per slot). For a memory-mapped table this is the mapped
// size — file-backed, shared between processes, and evictable — not
// process heap; compare Table.MemoryBytes, which is always heap.
func (t *FrozenTable) MemoryBytes() int64 { return int64(len(t.keys)) * 10 }

// RawKeys exposes the backing key array for serialization. Callers must
// not mutate it.
func (t *FrozenTable) RawKeys() []uint64 { return t.keys }

// RawVals exposes the backing value array for serialization. Callers
// must not mutate it.
func (t *FrozenTable) RawVals() []uint16 { return t.vals }

// ForEach calls fn for every (key, value) pair in slot order, stopping
// early if fn returns false.
func (t *FrozenTable) ForEach(fn func(key uint64, val uint16) bool) {
	for i, k := range t.keys {
		if k != 0 {
			if !fn(k, t.vals[i]) {
				return
			}
		}
	}
}

// ComputeStats scans the table and returns probe-chain statistics,
// comparable with Table.ComputeStats.
func (t *FrozenTable) ComputeStats() Stats {
	s := Stats{
		Entries:     t.count,
		Slots:       len(t.keys),
		LoadFactor:  t.LoadFactor(),
		MemoryBytes: t.MemoryBytes(),
	}
	if t.count == 0 {
		return s
	}
	total := 0
	for j, k := range t.keys {
		if k == 0 {
			continue
		}
		h := Hash64Shift(k)
		home := h & t.slotMask
		dist := int((uint64(j) - home) & t.slotMask)
		chain := dist + 1
		total += chain
		if chain > s.MaxChain {
			s.MaxChain = chain
		}
	}
	s.AvgChain = float64(total) / float64(s.Entries)
	return s
}

// SetMapped records the backing file mapping of a memory-mapped table so
// Residency can report which fraction of it is page-cache resident.
func (t *FrozenTable) SetMapped(b []byte) {
	t.lifeMu.Lock()
	t.mapped = b
	t.lifeMu.Unlock()
}

// Residency reports the mmap page-residency of the table: how many of
// the mapped bytes are currently resident in the page cache (mincore),
// and the total mapped size. With mmap serving the resident set is
// workload-driven — the shard of the key space a process is routed makes
// up its hot pages — so this is the capacity-planning signal for how
// much of a table a host actually holds hot. ok is false when the table
// is not memory-mapped or the platform provides no residency syscall
// (the probe degrades to a graceful no-op there).
func (t *FrozenTable) Residency() (resident, mapped int64, ok bool) {
	// The probe runs under lifeMu so a concurrent Close cannot unmap the
	// region mid-mincore (and the address range cannot be recycled into
	// someone else's mapping under us).
	t.lifeMu.Lock()
	defer t.lifeMu.Unlock()
	if t.mapped == nil {
		return 0, 0, false
	}
	mapped = int64(len(t.mapped))
	resident, err := residentBytes(t.mapped)
	if err != nil {
		return 0, mapped, false
	}
	return resident, mapped, true
}

// SetCloser attaches a release hook (e.g. munmap of the backing file).
func (t *FrozenTable) SetCloser(fn func() error) {
	t.lifeMu.Lock()
	t.closer = fn
	t.lifeMu.Unlock()
}

// Close releases the backing resources, if any. The table must not be
// queried afterwards. Close is idempotent and safe against a concurrent
// Residency probe (the release runs under the lifecycle lock).
func (t *FrozenTable) Close() error {
	t.lifeMu.Lock()
	defer t.lifeMu.Unlock()
	if t.closer == nil {
		return nil
	}
	fn := t.closer
	t.closer = nil
	t.mapped = nil
	return fn()
}
