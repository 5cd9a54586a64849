package bfs

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/canon"
	"repro/internal/hashtab"
	"repro/internal/perm"
)

// Hash-table value packing (format v2, cost-packed): the uint16 value
// carries the representative's exact minimal cost alongside the boundary
// element, so a frozen table is self-describing — CostOf is one probe
// instead of a boundary-element walk, and per-level iteration can be
// derived from the table without a second copy of each representative.
//
//	bits 15…11  cost level (0…MaxPackedCost)
//	bit  10     the stored element is the FIRST element of the
//	            representative's minimal circuit (last otherwise)
//	bits  9…0   element index; all ones marks the identity entry,
//	            which stores no element at all
const (
	valueElemBits        = 10
	flagFirst     uint16 = 1 << valueElemBits
	elemMask      uint16 = 1<<valueElemBits - 1
	costShift            = valueElemBits + 1
	identityElem  uint16 = elemMask

	// IdentityValue is the packed entry of the identity function: cost 0,
	// no element.
	IdentityValue uint16 = identityElem

	// MaxPackedCost is the largest cost level the packed value can carry
	// (5 bits). Search horizons beyond it are rejected; the paper's
	// reference configuration is k = 9, and memory becomes the binding
	// constraint one or two levels later, long before this cap.
	MaxPackedCost = 1<<(16-costShift) - 1
)

// Value is a decoded hash-table entry.
type Value struct {
	// Elem is the alphabet index of the stored boundary element;
	// meaningless when IsIdentity.
	Elem int
	// First reports that Elem is the first element of a minimal circuit
	// for the representative (inserted via the inversion symmetry); it is
	// the last element otherwise. Paper Algorithm 2's IS_A_FIRST_GATE /
	// IS_A_LAST_GATE.
	First bool
	// IsIdentity marks the identity's entry.
	IsIdentity bool
	// Cost is the representative's exact minimal cost — the level the
	// entry was discovered at.
	Cost int
}

// PackValue encodes a table value. cost must be in [0, MaxPackedCost]
// and elem in [0, MaxElements); both are enforced upstream (Search
// rejects deeper horizons, NewAlphabet larger alphabets).
func PackValue(cost, elem int, first bool) uint16 {
	v := uint16(elem)&elemMask | uint16(cost)<<costShift
	if first {
		v |= flagFirst
	}
	return v
}

// PackIdentity encodes the identity entry (cost 0, no element).
func PackIdentity() uint16 { return IdentityValue }

// UnpackValue decodes a packed table value.
func UnpackValue(v uint16) Value {
	if v&elemMask == identityElem {
		return Value{IsIdentity: true, Cost: int(v >> costShift)}
	}
	return Value{
		Elem:  int(v & elemMask),
		First: v&flagFirst != 0,
		Cost:  int(v >> costShift),
	}
}

// Options configure a Search.
type Options struct {
	// NoReduction disables the canonical (÷48) symmetry reduction of
	// paper §3.2, storing every function rather than class
	// representatives. This is the ablation configuration; it is also the
	// natural mode for exhausting small closed subgroups such as the
	// linear functions of Table 5.
	NoReduction bool
	// Progress, when non-nil, is called after each completed cost level
	// with the level index and the number of new representatives.
	Progress func(level, newReps int)
}

// Result is the outcome of a breadth-first search: the paper's lists Aᵢ
// (canonical representatives by exact minimal cost) plus the hash table H
// mapping each representative to one boundary element of a minimal
// circuit.
//
// A Result has one backend, the frozen layout tablesio format v2
// persists: Frozen is the immutable flat table — built by Search, read
// by a tablesio loader, or memory-mapped straight off a v2 file — and
// each cost level is a slot index into it, so no representative is
// stored twice. Results are immutable and safe for concurrent queries.
type Result struct {
	Alphabet *Alphabet
	// MaxCost is the search horizon k: every class with minimal cost
	// ≤ MaxCost is present.
	MaxCost int
	// Frozen is the flat immutable table. Iterate levels with Level /
	// LevelLen; owners of a memory-mapped result release it with
	// Frozen.Close.
	Frozen *hashtab.FrozenTable
	// levelOff/levelIdx serve per-level iteration: level c is the global
	// slot numbers levelIdx[levelOff[c]:levelOff[c+1]], in the level's
	// storage order. Level 0 is the identity; with weighted alphabets
	// some levels may be empty.
	levelOff []int
	levelIdx []uint32
	// Reduced records whether canonical reduction was applied.
	Reduced bool
}

// LevelView is an indexable view of one cost level's representatives.
type LevelView struct {
	idx []uint32
	ft  *hashtab.FrozenTable
}

// Len returns the number of representatives in the level.
func (v LevelView) Len() int { return len(v.idx) }

// At returns the i-th representative.
func (v LevelView) At(i int) perm.Perm { return perm.Perm(v.ft.KeyAt(v.idx[i])) }

// Level returns an indexable view of cost level c.
func (r *Result) Level(c int) LevelView {
	return LevelView{idx: r.levelIdx[r.levelOff[c]:r.levelOff[c+1]], ft: r.Frozen}
}

// LevelLen returns the number of representatives with cost exactly c.
func (r *Result) LevelLen(c int) int { return r.levelOff[c+1] - r.levelOff[c] }

// CompactView returns the frozen layout's components — flat table,
// per-level slot index, per-level counts — for writers that persist
// them. The table and index alias the result and must not be modified.
func (r *Result) CompactView() (*hashtab.FrozenTable, []uint32, []int) {
	counts := make([]int, r.MaxCost+1)
	for c := range counts {
		counts[c] = r.LevelLen(c)
	}
	return r.Frozen, r.levelIdx, counts
}

// FromLevels freezes a build: the table is re-laid by hashtab.Compact
// into the flat layout of hashtab.StoreShards shards, and each level
// list becomes the slot index of its representatives, in list order.
// One O(n) pass, after which the table and lists can be dropped. Search
// ends here; verify is as for FromFrozen.
func FromLevels(a *Alphabet, maxCost int, reduced bool, t *hashtab.Table, levels [][]perm.Perm, verify bool) (*Result, error) {
	ft, err := hashtab.Compact(t, hashtab.StoreShards)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(levels))
	idx := make([]uint32, 0, ft.Len())
	for c, lvl := range levels {
		counts[c] = len(lvl)
		for _, rep := range lvl {
			slot, ok := ft.SlotOf(uint64(rep))
			if !ok {
				return nil, fmt.Errorf("bfs: representative %v missing from its own table", rep)
			}
			idx = append(idx, slot)
		}
	}
	return FromFrozen(a, maxCost, reduced, ft, idx, counts, verify)
}

// FromFrozen assembles a Result from a flat table and its per-level
// slot index (levelCounts[c] entries of levelIdx belong to level c, in
// order). With verify set, the structural invariants are checked
// exhaustively — every index hits a distinct live slot whose key is a
// valid permutation, probe-reachable, cost-tagged with its level, and
// element-tagged within the alphabet, and no table slot is orphaned
// from the index. Loaders pass verify for untrusted streams and skip it
// on the mmap fast path, where touching every page would defeat the
// O(pages-touched) cold start (tablesio's checksums cover integrity
// there).
func FromFrozen(a *Alphabet, maxCost int, reduced bool, ft *hashtab.FrozenTable, levelIdx []uint32, levelCounts []int, verify bool) (*Result, error) {
	if a == nil {
		return nil, fmt.Errorf("bfs: nil alphabet")
	}
	if ft == nil {
		return nil, fmt.Errorf("bfs: nil frozen table")
	}
	if maxCost < 0 || maxCost > MaxPackedCost {
		return nil, fmt.Errorf("bfs: horizon %d outside [0, %d]", maxCost, MaxPackedCost)
	}
	if len(levelCounts) != maxCost+1 {
		return nil, fmt.Errorf("bfs: %d level counts for horizon %d", len(levelCounts), maxCost)
	}
	levelOff := make([]int, maxCost+2)
	total := 0
	for c, n := range levelCounts {
		if n < 0 {
			return nil, fmt.Errorf("bfs: negative level count at cost %d", c)
		}
		levelOff[c] = total
		total += n
	}
	levelOff[maxCost+1] = total
	if total != len(levelIdx) || total != ft.Len() {
		return nil, fmt.Errorf("bfs: level counts sum to %d, index holds %d, table holds %d", total, len(levelIdx), ft.Len())
	}
	r := &Result{
		Alphabet: a,
		MaxCost:  maxCost,
		Frozen:   ft,
		levelOff: levelOff,
		levelIdx: levelIdx,
		Reduced:  reduced,
	}
	if verify {
		if err := r.verifyFrozen(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// verifyFrozen checks the frozen backend's structural invariants; see
// FromFrozen. One walk over the level index records each slot's level,
// refusing out-of-range and repeated slots; then one pass over the
// slots, split across GOMAXPROCS workers, checks each in place (table
// order, so the probes stay in cache): an indexed slot must hold a valid
// permutation that a probe from its home reaches at exactly that slot,
// tagged with its level's cost and a valid element, and every live slot
// must be indexed.
func (r *Result) verifyFrozen() error {
	slots := r.Frozen.Slots()
	// Costs are at most MaxPackedCost, so a byte holds a slot's level.
	const unindexed = 0xFF
	level := make([]uint8, slots)
	for i := range level {
		level[i] = unindexed
	}
	for c := 0; c <= r.MaxCost; c++ {
		for _, slot := range r.levelIdx[r.levelOff[c]:r.levelOff[c+1]] {
			if int(slot) >= slots {
				return fmt.Errorf("bfs: level %d slot index %d out of range", c, slot)
			}
			if level[slot] != unindexed {
				return fmt.Errorf("bfs: slot %d indexed twice", slot)
			}
			level[slot] = uint8(c)
		}
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), slots>>16))
	live := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			live[w], errs[w] = r.verifySlots(level, w*slots/workers, (w+1)*slots/workers)
		}()
	}
	wg.Wait()
	total := 0
	for w := range workers {
		if errs[w] != nil {
			return errs[w]
		}
		total += live[w]
	}
	// Every live slot must be reachable from the index, or ForEach-style
	// iteration and Len would disagree with the levels.
	if total != r.Frozen.Len() {
		return fmt.Errorf("bfs: table occupies %d slots but declares %d entries", total, r.Frozen.Len())
	}
	return nil
}

// verifySlots checks slots [lo, hi) against their recorded levels (0xFF
// for a slot no level names) and returns how many are live.
func (r *Result) verifySlots(level []uint8, lo, hi int) (live int, err error) {
	ft := r.Frozen
	for slot := lo; slot < hi; slot++ {
		key, c := ft.KeyAt(uint32(slot)), int(level[slot])
		if key != 0 {
			live++
		}
		if c == 0xFF {
			continue
		}
		if !perm.Perm(key).IsValid() {
			return live, fmt.Errorf("bfs: invalid entry %#x at level %d", key, c)
		}
		if at, ok := ft.SlotOf(key); !ok || int(at) != slot {
			return live, fmt.Errorf("bfs: entry %#x at slot %d is not probe-reachable", key, slot)
		}
		v := UnpackValue(ft.ValAt(uint32(slot)))
		if v.Cost != c {
			return live, fmt.Errorf("bfs: entry %#x tagged cost %d in level %d", key, v.Cost, c)
		}
		if v.IsIdentity {
			if perm.Perm(key) != perm.Identity || c != 0 {
				return live, fmt.Errorf("bfs: non-identity %#x stored as identity", key)
			}
		} else {
			if c == 0 {
				return live, fmt.Errorf("bfs: level 0 holds non-identity entry %#x", key)
			}
			if v.Elem >= r.Alphabet.Len() {
				return live, fmt.Errorf("bfs: entry %#x references element %d of a %d-element alphabet", key, v.Elem, r.Alphabet.Len())
			}
		}
	}
	return live, nil
}

// MemoryBytes returns the approximate resident footprint of the table
// structures: hash-table slots plus the per-level slot index. For a
// memory-mapped table the bytes are file-backed rather than heap.
func (r *Result) MemoryBytes() int64 {
	return r.Frozen.MemoryBytes() + int64(len(r.levelIdx))*4
}

// TableStats returns the probe-chain statistics of the table.
func (r *Result) TableStats() hashtab.Stats { return r.Frozen.ComputeStats() }

// Search runs paper Algorithm 2 over the alphabet up to cost horizon k.
// With unit costs this is plain breadth-first search by gate count; with
// weighted alphabets it advances cost-by-cost (the paper §5 variant:
// "search for small circuits via increasing cost by one").
//
// Search is the sequential reference: each cost level is expanded in
// one fixed order, every candidate inserted as it is produced, so the
// first insertion of a class decides its stored element and the level
// list is the first-insertion order. extbuild reproduces exactly these
// bytes with any worker count and memory budget, and it is what builds
// tables for serving; Search is the oracle its byte-identity tests
// compare against and the builder of small test fixtures. Once the
// horizon is reached the table and level lists are frozen
// (FromLevels). The table is presized from paper Table 4 for the
// reduced 32-gate unit-cost alphabet and grows on demand otherwise;
// the frozen bytes do not depend on its sizing.
func Search(a *Alphabet, k int, opts *Options) (*Result, error) {
	if a == nil {
		return nil, fmt.Errorf("bfs: nil alphabet")
	}
	if k < 0 {
		return nil, fmt.Errorf("bfs: negative horizon %d", k)
	}
	if k > MaxPackedCost {
		return nil, fmt.Errorf("bfs: horizon %d exceeds the packed-cost limit %d", k, MaxPackedCost)
	}
	if opts == nil {
		opts = &Options{}
	}
	if !opts.NoReduction && !a.Relabelable() {
		return nil, fmt.Errorf("bfs: alphabet is not closed under wire relabeling; set NoReduction (restricted architectures cannot use the ÷48 reduction)")
	}
	hint := 1 << 10
	if !opts.NoReduction && a.Len() == 32 && a.MaxCost() == 1 && k < len(GateReducedCounts) {
		hint = max(hint, int(CumulativeGateReduced(k)))
	}
	table := hashtab.New(hint)
	table.Insert(uint64(perm.Identity), PackIdentity())
	levels := make([][]perm.Perm, k+1)
	levels[0] = []perm.Perm{perm.Identity}

	// Group element indices by cost so level c expands from level
	// c − cost(e) for each group.
	costs, costGroups := CostGroups(a)

	for c := 1; c <= k; c++ {
		s := &seqSink{table: table}
		for _, ec := range costs {
			if src := c - ec; src >= 0 {
				for _, r := range levels[src] {
					ExpandRep(a, r, costGroups[ec], c, !opts.NoReduction, 0, s)
				}
			}
		}
		levels[c] = s.lvl
		if opts.Progress != nil {
			opts.Progress(c, len(s.lvl))
		}
	}
	return FromLevels(a, k, !opts.NoReduction, table, levels, false)
}

// seqSink is Search's CandidateSink: immediate insertion into the
// table, survivors appended in arrival order. Sequence numbers are
// irrelevant here — arrival order IS the sequential order.
type seqSink struct {
	table *hashtab.Table
	lvl   []perm.Perm
}

func (s *seqSink) Candidate(key uint64, val uint16, _ uint64) {
	if _, inserted := s.table.Insert(key, val); inserted {
		s.lvl = append(s.lvl, perm.Perm(key))
	}
}

// LookupRaw returns the packed table value stored under a key that must
// already be in canonical form when the search was reduced. This is the
// transport form of an entry — what table backends carry over the wire —
// decodable with UnpackValue.
func (r *Result) LookupRaw(key uint64) (uint16, bool) {
	return r.Frozen.Lookup(key)
}

// Lookup decodes the table entry for a key that must already be in
// canonical form when the search was reduced.
func (r *Result) Lookup(key perm.Perm) (Value, bool) {
	raw, ok := r.Frozen.Lookup(uint64(key))
	if !ok {
		return Value{}, false
	}
	return UnpackValue(raw), true
}

// Contains reports whether f's class (or f itself, unreduced) was reached
// by the search, i.e. whether f has cost at most MaxCost.
func (r *Result) Contains(f perm.Perm) bool {
	_, ok := r.CostOf(f)
	return ok
}

// CostOf returns f's minimal cost if it is within the search horizon.
// The cost travels inside the packed table value, so this is one
// canonicalization plus one probe — it no longer walks the boundary
// elements down to the identity, which cost a canonicalization per
// stripped element and dominated residue costing in the
// meet-in-the-middle stage.
func (r *Result) CostOf(f perm.Perm) (int, bool) {
	key := f
	if r.Reduced {
		key = canon.Rep(f)
	}
	raw, ok := r.Frozen.Lookup(uint64(key))
	if !ok {
		return 0, false
	}
	return int(raw >> costShift), true
}

// ReducedCount returns the number of stored representatives with cost
// exactly c — paper Table 4's "Reduced Functions" column when the search
// is reduced, or the full count when not.
func (r *Result) ReducedCount(c int) int { return r.LevelLen(c) }

// FullCount returns the number of functions (not classes) of cost exactly
// c, by summing equivalence-class sizes — paper Table 4's "Functions"
// column. For unreduced searches this equals ReducedCount. Large levels
// (k ≥ 7 has tens of millions of classes) are summed by a worker pool
// over runtime.GOMAXPROCS(0) goroutines; use FullCountWorkers to bound
// the fan-out explicitly.
func (r *Result) FullCount(c int) int64 { return r.FullCountWorkers(c, 0) }

// fullCountParallelThreshold is the level size below which the per-level
// ClassSize sum runs inline: goroutine startup costs more than summing a
// few thousand 48-entry orbits.
const fullCountParallelThreshold = 4096

// FullCountWorkers is FullCount with an explicit worker count (≤ 0 means
// runtime.GOMAXPROCS(0)). Workers claim fixed-size chunks of the level
// through an atomic cursor and sum class sizes into private accumulators
// that are added at the join; int64 addition is exact and associative,
// so the count is byte-identical for every worker count and schedule.
func (r *Result) FullCountWorkers(c, workers int) int64 {
	if !r.Reduced {
		return int64(r.LevelLen(c))
	}
	lv := r.Level(c)
	n := lv.Len()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || n < fullCountParallelThreshold {
		var total int64
		for i := 0; i < n; i++ {
			total += int64(canon.ClassSize(lv.At(i)))
		}
		return total
	}
	var (
		total  atomic.Int64
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	chunk := max(n/(workers*8), 512)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local int64
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					break
				}
				for i := lo; i < min(lo+chunk, n); i++ {
					local += int64(canon.ClassSize(lv.At(i)))
				}
			}
			total.Add(local)
		}()
	}
	wg.Wait()
	return total.Load()
}

// TotalStored returns the number of hash-table entries (identity
// included).
func (r *Result) TotalStored() int { return r.Frozen.Len() }

// GateReducedCounts lists the paper's Table 4 "Reduced Functions" column
// for sizes 0…9: the number of equivalence classes of each size under
// the 32-gate alphabet. Search presizing and tests validate against it.
var GateReducedCounts = []int64{1, 4, 33, 425, 6538, 101983, 1482686, 19466575, 225242556, 2208511226}

// GateFullCounts lists the paper's Table 4 "Functions" column for sizes
// 0…9.
var GateFullCounts = []int64{1, 32, 784, 16204, 294507, 4807552, 70763560, 932651938, 10804681959, 105984823653}

// LinearCounts lists the paper's Table 5 distribution: the number of
// linear reversible functions of size 0…10 over the NOT/CNOT alphabet.
// The total is 322,560 = |GL(4,2)| · 2⁴.
var LinearCounts = []int64{1, 16, 162, 1206, 6589, 26182, 72062, 118424, 84225, 13555, 138}

// CumulativeGateReduced returns the total number of classes of size ≤ k,
// the size Search presizes a reduced gate-alphabet table to.
func CumulativeGateReduced(k int) int64 {
	var total int64
	for i := 0; i <= k && i < len(GateReducedCounts); i++ {
		total += GateReducedCounts[i]
	}
	return total
}
