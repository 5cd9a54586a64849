package tablenet

import (
	"context"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/hashtab"
)

// This file is the client's tiered read path. It exists because of one
// property the whole system is built on: frozen tables are immutable.
// The handshake pins the client to a single table generation (a
// reconnect onto different tables fails loudly), so every byte fetched
// over the wire — a canonical key's packed value, its absence, a level
// key range — stays true for the client's lifetime and is cacheable
// forever. Three tiers exploit that:
//
//  1. A sharded hot-key cache (set-associative, lock-free reads) over
//     LookupBatch results. Partial hits split the batch: hit keys are
//     answered locally and only the misses travel.
//  2. An immutable level-block cache: LevelKeys ranges are fetched as
//     aligned blocks and kept, so repeated meet-in-the-middle scans stop
//     re-fetching the low-level key ranges entirely.
//  3. Singleflight coalescing: concurrent identical misses (the same
//     level block, or the same miss-key batch — e.g. many clients racing
//     the same specification) share one round trip.

// hotWays is the set associativity of the hot-key cache: victim
// selection is exact LRU within a 4-slot set, which captures the
// behaviour of a true list LRU at array-probe cost.
const hotWays = 4

// hotLocks is the number of write locks striped over the sets (reads
// never lock).
const hotLocks = 256

// hotKeyCache is a fixed-size set-associative cache over canonical
// table keys. Each set is one 64-byte, line-aligned hotSet, so a probe
// touches one cache line. Reads are lock-free, guarded by the set's
// sequence counter (a seqlock): a writer, holding the set's stripe
// lock, bumps seq to odd, rewrites one slot's key and word, and bumps it
// back to even; a reader accepts a slot only if it observed the same
// even seq before the key and after the word. Re-checking the key alone
// would not be enough — two back-to-back evictions can cycle a slot away
// from key K and back to K (ABA) around a preempted reader, which would
// otherwise pair K with the intervening entry's value — but every
// rewrite of any slot in the set advances seq, so the cycle cannot go
// unseen. A write elsewhere in the set also fails the read; a miss is
// always safe.
type hotKeyCache struct {
	mask  uint64 // set count - 1 (set count is a power of two)
	sets  []hotSet
	locks [hotLocks]sync.Mutex

	hits   atomic.Uint64
	misses atomic.Uint64
}

// hotSet is one cache line: hotWays keys (0 marks an empty slot), their
// words (hotFoundBit | packed uint16 value), the set's seqlock, and its
// recency order. lru lists the slot indices, 2 bits each, from most to
// least recently used, XORed with hotLRUZero so that a zeroed set needs
// no initialisation. It is a hint outside the seqlock: every update is
// one CAS from a valid order to a valid order, and a lost race only
// skips a refresh.
type hotSet struct {
	keys  [hotWays]atomic.Uint64
	words [hotWays]atomic.Uint32
	seq   atomic.Uint32
	lru   atomic.Uint32
	_     [8]byte
}

const (
	hotFoundBit = 1 << 16
	// hotLRUZero is the order a zero lru word stands for: slots 0, 1, 2,
	// 3 from most to least recent.
	hotLRUZero = 0 | 1<<2 | 2<<4 | 3<<6
)

// touch makes slot i the set's most recently used.
func (s *hotSet) touch(i uint32) {
	for {
		l := s.lru.Load()
		order := l ^ hotLRUZero
		if order&3 == i {
			return
		}
		j := uint32(1) // i's position in the order
		for order>>(2*j)&3 != i {
			j++
		}
		newer := order & (1<<(2*j) - 1)    // slots ahead of i
		older := order &^ (1<<(2*j+2) - 1) // slots behind i
		if s.lru.CompareAndSwap(l, (i|newer<<2|older)^hotLRUZero) {
			return
		}
	}
}

// newHotKeyCache sizes the cache for roughly capacity entries, rounded
// up to a power-of-two set count.
func newHotKeyCache(capacity int) *hotKeyCache {
	sets := 1
	for sets*hotWays < capacity {
		sets <<= 1
	}
	return &hotKeyCache{mask: uint64(sets - 1), sets: alignedSets(sets)}
}

// alignedSets allocates n sets starting on a 64-byte boundary, so every
// set occupies exactly one cache line.
func alignedSets(n int) []hotSet {
	buf := make([]hotSet, n+1)
	base := unsafe.Pointer(&buf[0])
	off := -uintptr(base) & (unsafe.Sizeof(hotSet{}) - 1)
	return unsafe.Slice((*hotSet)(unsafe.Add(base, off)), n)
}

// get probes the cache. ok reports a usable entry; found mirrors the
// backend's presence bit (negative results are cached too — a key's
// absence from an immutable table is as permanent as its value).
func (c *hotKeyCache) get(key uint64) (val uint16, found, ok bool) {
	s := &c.sets[hashtab.Hash64Shift(key)&c.mask]
	seq := s.seq.Load()
	if seq&1 != 0 {
		return 0, false, false // set mid-rewrite; a miss is always safe
	}
	for i := range s.keys {
		if s.keys[i].Load() != key {
			continue
		}
		w := s.words[i].Load()
		if s.seq.Load() != seq {
			return 0, false, false // torn by concurrent eviction(s)
		}
		s.touch(uint32(i))
		return uint16(w), w&hotFoundBit != 0, true
	}
	return 0, false, false
}

// put inserts one immutable result into an empty slot of the key's set,
// or else over its least-recently-used slot.
func (c *hotKeyCache) put(key uint64, val uint16, found bool) {
	if key == 0 {
		return // zero is the empty-slot sentinel (never a permutation)
	}
	set := hashtab.Hash64Shift(key) & c.mask
	s := &c.sets[set]
	lk := &c.locks[set&(hotLocks-1)]
	lk.Lock()
	victim := (s.lru.Load() ^ hotLRUZero) >> (2 * (hotWays - 1)) & 3
	for i := range s.keys {
		k := s.keys[i].Load()
		if k == key {
			lk.Unlock()
			return // immutable: already present with the same value
		}
		if k == 0 {
			victim = uint32(i)
			break
		}
	}
	w := uint32(val)
	if found {
		w |= hotFoundBit
	}
	seq := s.seq.Load()
	s.seq.Store(seq + 1) // odd: readers reject the set
	s.words[victim].Store(w)
	s.keys[victim].Store(key)
	s.seq.Store(seq + 2) // even again
	s.touch(victim)
	lk.Unlock()
}

// bytes is the cache's fixed memory footprint.
func (c *hotKeyCache) bytes() int64 { return int64(len(c.sets)) * int64(unsafe.Sizeof(hotSet{})) }

// levelBlockKeys is the granularity of the level cache: level ranges
// are fetched and kept as aligned blocks of this many keys (16 KiB on
// the wire). Meet-in-the-middle scans read levels sequentially from
// index zero, so one block fetch serves many consecutive chunk
// requests, and low levels — the hottest, scanned by every query that
// splits — fit in a handful of blocks.
const levelBlockKeys = 2048

// levelCache holds immutable level-key blocks behind atomic pointers:
// a block is fetched once (singleflight), published, and never changes.
// A byte budget bounds growth; once it is exhausted new blocks are
// still fetched and served but not retained — since scans touch low
// levels first, the retained set naturally converges to the hottest
// prefix of the key space.
type levelCache struct {
	budget int64
	bytes  atomic.Int64
	blocks [][]atomic.Pointer[[]uint64] // [level][blockIndex]

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64

	mu      sync.Mutex
	flights map[uint64]*blockFlight
}

// blockFlight is one in-flight block fetch; latecomers wait on done and
// read blk/err.
type blockFlight struct {
	done chan struct{}
	blk  *[]uint64
	err  error
}

func newLevelCache(levelCounts []int, budget int64) *levelCache {
	lc := &levelCache{
		budget:  budget,
		blocks:  make([][]atomic.Pointer[[]uint64], len(levelCounts)),
		flights: make(map[uint64]*blockFlight),
	}
	for c, n := range levelCounts {
		lc.blocks[c] = make([]atomic.Pointer[[]uint64], (n+levelBlockKeys-1)/levelBlockKeys)
	}
	return lc
}

func blockID(level, idx int) uint64 { return uint64(level)<<32 | uint64(idx) }

// block returns level c's idx-th key block, serving it from the cache
// when present and otherwise fetching it through fetch — exactly once
// per concurrent set of callers. blockN is the block's key count
// (shorter for the level's final block).
//
// The fetch runs detached from any single caller's context: a shared
// flight must not inherit one query's cancellation or deadline and
// poison every coalesced waiter with it. Each caller — the one that
// launched the flight included — waits under its own ctx; a caller
// whose ctx dies gets its own ctx error while the flight runs on (the
// wire layer's stall backstop bounds it) and still fills the cache.
func (lc *levelCache) block(ctx context.Context, c, idx, blockN int, fetch func(ctx context.Context, lo int, out []uint64) error) (*[]uint64, error) {
	if blk := lc.blocks[c][idx].Load(); blk != nil {
		lc.hits.Add(1)
		return blk, nil
	}
	lc.misses.Add(1)
	id := blockID(c, idx)
	lc.mu.Lock()
	fl, ok := lc.flights[id]
	if ok {
		lc.coalesced.Add(1)
	} else {
		// Double-check under the lock: the flight we would have joined
		// may have just completed and published.
		if blk := lc.blocks[c][idx].Load(); blk != nil {
			lc.mu.Unlock()
			return blk, nil
		}
		fl = &blockFlight{done: make(chan struct{})}
		lc.flights[id] = fl
	}
	lc.mu.Unlock()
	if !ok {
		go func(fctx context.Context) {
			buf := make([]uint64, blockN)
			fl.err = fetch(fctx, idx*levelBlockKeys, buf)
			if fl.err == nil {
				fl.blk = &buf
				// Retain only while the budget allows; an over-budget
				// block is still returned to every waiter of this flight.
				if sz := int64(blockN) * 8; lc.bytes.Add(sz) <= lc.budget {
					lc.blocks[c][idx].Store(fl.blk)
				} else {
					lc.bytes.Add(-sz)
				}
			}
			close(fl.done)
			lc.mu.Lock()
			delete(lc.flights, id)
			lc.mu.Unlock()
		}(context.WithoutCancel(ctx))
	}
	select {
	case <-fl.done:
		return fl.blk, fl.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// lookupFlight is one in-flight miss-batch fetch. keys is the flight's
// own copy; identical concurrent batches (compared by content, not just
// hash) wait on done and copy vals/found out.
type lookupFlight struct {
	keys  []uint64
	vals  []uint16
	found []bool
	err   error
	done  chan struct{}
}

// lookupFlights indexes in-flight miss batches by a content hash, with
// per-bucket lists so hash collisions degrade to extra comparisons,
// never wrong answers.
type lookupFlights struct {
	mu        sync.Mutex
	inflight  map[uint64][]*lookupFlight
	coalesced atomic.Uint64
}

func newLookupFlights() *lookupFlights {
	return &lookupFlights{inflight: make(map[uint64][]*lookupFlight)}
}

// hashKeys fingerprints a key batch (order-sensitive: batches coalesce
// only when byte-identical, which is what preserves response order).
func hashKeys(keys []uint64) uint64 {
	h := uint64(len(keys))
	for _, k := range keys {
		h = hashtab.Hash64Shift(h ^ k)
	}
	return h
}

func equalKeys(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, k := range a {
		if b[i] != k {
			return false
		}
	}
	return true
}

// do resolves one miss batch: if an identical batch is already in
// flight its result is shared; otherwise fetch runs exactly once and
// its results are published to every waiter. vals/found are filled on
// success.
//
// As with level blocks, the fetch itself runs detached from any single
// caller's context (context.WithoutCancel): a coalesced waiter must
// never inherit the launching query's cancellation or deadline. Every
// caller waits under its own ctx; the flight outlives a canceled
// caller, bounded by the wire layer's stall backstop, and its results
// still reach the cache.
func (lf *lookupFlights) do(ctx context.Context, keys []uint64, vals []uint16, found []bool, fetch func(ctx context.Context, keys []uint64, vals []uint16, found []bool) error) error {
	h := hashKeys(keys)
	lf.mu.Lock()
	var fl *lookupFlight
	for _, o := range lf.inflight[h] {
		if equalKeys(o.keys, keys) {
			fl = o
			lf.coalesced.Add(1)
			break
		}
	}
	launched := false
	if fl == nil {
		fl = &lookupFlight{
			keys:  append([]uint64(nil), keys...),
			vals:  make([]uint16, len(keys)),
			found: make([]bool, len(keys)),
			done:  make(chan struct{}),
		}
		lf.inflight[h] = append(lf.inflight[h], fl)
		launched = true
	}
	lf.mu.Unlock()
	if launched {
		go func(fctx context.Context) {
			fl.err = fetch(fctx, fl.keys, fl.vals, fl.found)
			close(fl.done)
			lf.mu.Lock()
			bucket := lf.inflight[h]
			for i, o := range bucket {
				if o == fl {
					bucket[i] = bucket[len(bucket)-1]
					bucket = bucket[:len(bucket)-1]
					break
				}
			}
			if len(bucket) == 0 {
				delete(lf.inflight, h)
			} else {
				lf.inflight[h] = bucket
			}
			lf.mu.Unlock()
		}(context.WithoutCancel(ctx))
	}
	select {
	case <-fl.done:
		if fl.err == nil {
			copy(vals, fl.vals)
			copy(found, fl.found)
		}
		return fl.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// batchScratch is the pooled per-call workspace of the cached
// LookupBatch path, so a fully-cached probe allocates nothing.
type batchScratch struct {
	idx   []int
	keys  []uint64
	vals  []uint16
	found []bool
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (sc *batchScratch) grow(n int) {
	if cap(sc.keys) < n {
		sc.idx = make([]int, 0, n)
		sc.keys = make([]uint64, 0, n)
		sc.vals = make([]uint16, n)
		sc.found = make([]bool, n)
	}
}
