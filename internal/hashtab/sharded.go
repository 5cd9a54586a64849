package hashtab

import (
	"runtime"
	"sync"
)

// ShardedTable is the build-phase table of the sequential bfs.Search
// oracle: 2^s independent Table shards, each guarded by its own mutex,
// with keys routed to shards by the high bits of the Wang hash (the
// inner tables consume the low bits for slot selection, so the two
// never alias). Insert is safe for concurrent use; contention is
// limited to same-shard collisions. Once built, a table is re-laid by
// Compact into the FrozenTable every query reads.
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
