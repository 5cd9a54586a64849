package hashtab

import (
	"runtime"
	"sync"
)

// ShardedTable is the build-phase table: 2^s independent Table shards,
// each guarded by its own mutex, with keys routed to shards by the high
// bits of the Wang hash (the inner tables consume the low bits for slot
// selection, so the two never alias). Many goroutines Insert/InsertBatch
// concurrently; contention is limited to same-shard collisions, and
// InsertBatch amortizes lock traffic by grouping a whole batch of keys
// per shard under one lock acquisition. Once built, a table is re-laid
// by Compact into the FrozenTable every query reads; the out-of-core
// builder also probes its prior levels with ContainsBatchSorted.
type ShardedTable struct {
	shards []tableShard
	// shift is 64 − log2(len(shards)): shard index = hash >> shift.
	shift uint
}

// tableShard pads each mutex+table pair to a cache line so shard locks
// on neighbouring indices do not false-share.
type tableShard struct {
	mu sync.Mutex
	t  *Table
	_  [64 - 16]byte
}

// DefaultShardCount returns the shard count NewSharded uses: the
// smallest power of two ≥ 4 × GOMAXPROCS, clamped to [8, 256]. The 4×
// oversubscription keeps the probability of two workers colliding on one
// shard low without ballooning the per-shard fixed cost.
func DefaultShardCount() int {
	n := 4 * runtime.GOMAXPROCS(0)
	s := 8
	for s < n && s < 256 {
		s <<= 1
	}
	return s
}

// NewSharded returns a concurrent table pre-sized to hold capacityHint
// entries across DefaultShardCount() shards.
func NewSharded(capacityHint int) *ShardedTable {
	return NewShardedWithShards(capacityHint, DefaultShardCount())
}

// NewShardedWithShards is NewSharded with an explicit shard count,
// rounded up to a power of two and clamped to [1, 1<<16].
func NewShardedWithShards(capacityHint, shardCount int) *ShardedTable {
	n := 1
	for n < shardCount && n < 1<<16 {
		n <<= 1
	}
	if capacityHint < 1 {
		capacityHint = 1
	}
	perShard := (capacityHint + n - 1) / n
	t := &ShardedTable{
		shards: make([]tableShard, n),
		shift:  uint(64 - log2(n)),
	}
	for i := range t.shards {
		t.shards[i].t = New(perShard)
	}
	return t
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

// shardOf routes a key by the top bits of its Wang hash. A shift of 64
// (single shard) yields index 0 because Go defines over-wide shifts to 0.
func (t *ShardedTable) shardOf(key uint64) *tableShard {
	return &t.shards[Hash64Shift(key)>>t.shift]
}

// Insert stores val under key if absent (see Table.Insert), taking the
// owning shard's lock. Safe for concurrent use.
func (t *ShardedTable) Insert(key uint64, val uint16) (existing uint16, inserted bool) {
	sh := t.shardOf(key)
	sh.mu.Lock()
	existing, inserted = sh.t.Insert(key, val)
	sh.mu.Unlock()
	return existing, inserted
}

// batchScratch is the reusable workspace of one InsertBatch call,
// pooled so the steady-state BFS flush loop allocates nothing.
type batchScratch struct {
	order   []int32 // batch indices, counting-sorted by shard
	offsets []int32 // per-shard cursor/prefix sums (len shards+1)
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// InsertBatch inserts keys[i] → vals[i] for every i, recording per-entry
// outcomes in inserted (true where the key was newly added). Entries are
// grouped by shard with one counting-sort pass — O(len(keys) + shards) —
// so each shard lock is taken at most once per call, the
// lock-amortization that makes batched concurrent insertion scale.
// Duplicate keys within one batch resolve in index order (the first
// occurrence wins). Returns the number of newly inserted entries.
func (t *ShardedTable) InsertBatch(keys []uint64, vals []uint16, inserted []bool) int {
	if len(vals) != len(keys) || len(inserted) != len(keys) {
		panic("hashtab: InsertBatch slice lengths differ")
	}
	if len(keys) == 0 {
		return 0
	}
	sc := scratchPool.Get().(*batchScratch)
	if cap(sc.order) < len(keys) {
		sc.order = make([]int32, len(keys))
	}
	if cap(sc.offsets) < len(t.shards)+1 {
		sc.offsets = make([]int32, len(t.shards)+1)
	}
	order := sc.order[:len(keys)]
	offsets := sc.offsets[:len(t.shards)+1]
	for i := range offsets {
		offsets[i] = 0
	}
	// Counting sort: bucket sizes, prefix sums, then scatter the batch
	// indices. offsets[s] ends as the start of shard s's run; a second
	// pass advances it to the end, leaving offsets shifted one shard up.
	for _, key := range keys {
		offsets[int(Hash64Shift(key)>>t.shift)+1]++
	}
	for s := 1; s <= len(t.shards); s++ {
		offsets[s] += offsets[s-1]
	}
	for i, key := range keys {
		id := int(Hash64Shift(key) >> t.shift)
		order[offsets[id]] = int32(i)
		offsets[id]++
	}
	n := 0
	start := int32(0)
	for s := range t.shards {
		end := offsets[s]
		if end == start {
			continue
		}
		sh := &t.shards[s]
		sh.mu.Lock()
		for _, i := range order[start:end] {
			_, ins := sh.t.Insert(keys[i], vals[i])
			inserted[i] = ins
			if ins {
				n++
			}
		}
		sh.mu.Unlock()
		start = end
	}
	scratchPool.Put(sc)
	return n
}

// ContainsBatchSorted records presence for a run-sorted batch: keys must
// arrive grouped by ascending shard (ascending Hash64Shift(key)>>shift —
// the order an external merge naturally produces, since spill runs are
// sorted by Hash64Shift(key)). Each shard's lock is then taken at most once
// per call and released before the next group, so a dedup pass can probe
// millions of candidates against prior levels without per-key lock
// traffic. present[i] is set for every i; returns the number present.
// Panics if the batch violates the shard ordering contract.
func (t *ShardedTable) ContainsBatchSorted(keys []uint64, present []bool) int {
	if len(present) != len(keys) {
		panic("hashtab: ContainsBatchSorted slice lengths differ")
	}
	n := 0
	for start := 0; start < len(keys); {
		shard := int(Hash64Shift(keys[start]) >> t.shift)
		end := start + 1
		for end < len(keys) && int(Hash64Shift(keys[end])>>t.shift) == shard {
			end++
		}
		if end < len(keys) && int(Hash64Shift(keys[end])>>t.shift) < shard {
			panic("hashtab: ContainsBatchSorted batch not sorted by shard")
		}
		sh := &t.shards[shard]
		sh.mu.Lock()
		for i := start; i < end; i++ {
			_, ok := sh.t.Lookup(keys[i])
			present[i] = ok
			if ok {
				n++
			}
		}
		sh.mu.Unlock()
		start = end
	}
	return n
}

// MemoryBytes returns the approximate footprint of all shard backing
// arrays.
func (t *ShardedTable) MemoryBytes() int64 {
	var n int64
	for i := range t.shards {
		n += t.shards[i].t.MemoryBytes()
	}
	return n
}
