// Package hashtab implements the open-addressing hash table of paper
// §3.3: linear probing over packed 64-bit permutation keys hashed with
// Thomas Wang's hash64shift (paper ref [18]).
//
// The table maps a canonical representative (a perm.Perm packed word) to
// a small value — in the paper, the first or last gate of a minimal
// circuit. Keys are raw uint64 so the package stays decoupled from the
// permutation layer; key 0 is reserved as the empty-slot sentinel, which
// is safe because the packed word 0 is not a valid permutation.
//
// The membership test is the innermost operation of both the
// breadth-first search (Algorithm 2) and the search-and-lookup synthesis
// (Algorithm 1), so the implementation is a pair of flat slices with
// power-of-two sizing and no per-entry allocation.
package hashtab

import (
	"fmt"
	"math/bits"
)

// HashKind selects the hash function mixing keys into slot indices.
type HashKind uint8

const (
	// Wang is Thomas Wang's 64-bit hash64shift — the paper's choice,
	// "fast to compute and distributes the permutations uniformly".
	Wang HashKind = iota
	// WeakMultiplicative is a deliberately weaker single-multiply hash
	// kept for the ablation benchmarks comparing probe-chain behaviour.
	WeakMultiplicative
)

// Hash64Shift is Thomas Wang's 64-bit integer hash (paper ref [18]).
func Hash64Shift(key uint64) uint64 {
	key = ^key + key<<21
	key ^= key >> 24
	key = key + key<<3 + key<<8
	key ^= key >> 14
	key = key + key<<2 + key<<4
	key ^= key >> 28
	key += key << 31
	return key
}

// Unhash64Shift inverts Hash64Shift: Unhash64Shift(Hash64Shift(k)) == k
// for every k. Each step of the hash is invertible — a multiplication by
// an odd constant or an xor with a right shift of itself — so the
// inverse undoes them in reverse order. A sort by hash can then carry
// the hash in place of the key and restore the key once at the end.
func Unhash64Shift(h uint64) uint64 {
	h *= 0x3fffffff80000001 // inverse of 1 + 1<<31
	h ^= h>>28 ^ h>>56
	h *= 0xcf3cf3cf3cf3cf3d // inverse of 21
	h ^= h>>14 ^ h>>28 ^ h>>42 ^ h>>56
	h *= 0xd38ff08b1c03dd39 // inverse of 265
	h ^= h>>24 ^ h>>48
	return (h + 1) * 0x7ffffbffffdfffff // ^k + k<<21 is k·(1<<21 − 1) − 1
}

// weakHash is a single Fibonacci multiply; packed permutations are highly
// structured, so this clusters badly — which is the point of the ablation.
func weakHash(key uint64) uint64 {
	return key * 0x9E3779B97F4A7C15
}

// maxLoadFactor triggers doubling; the paper runs its k = 8 table at load
// 0.84, and linear probing degrades quickly beyond that.
const maxLoadFactor = 0.85

// Table is a linear-probing hash map from non-zero uint64 keys to uint16
// values. The zero value is not usable; call New.
type Table struct {
	keys  []uint64
	vals  []uint16
	mask  uint64
	count int
	kind  HashKind
}

// New returns a table pre-sized to hold at least capacityHint entries
// without growing, using Wang's hash.
func New(capacityHint int) *Table {
	return NewWithHash(capacityHint, Wang)
}

// NewWithHash is New with an explicit hash function choice.
func NewWithHash(capacityHint int, kind HashKind) *Table {
	if capacityHint < 1 {
		capacityHint = 1
	}
	slots := 16
	for float64(capacityHint) > maxLoadFactor*float64(slots) {
		slots <<= 1
	}
	return &Table{
		keys: make([]uint64, slots),
		vals: make([]uint16, slots),
		mask: uint64(slots - 1),
		kind: kind,
	}
}

func (t *Table) hash(key uint64) uint64 {
	if t.kind == Wang {
		return Hash64Shift(key)
	}
	return weakHash(key)
}

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.count }

// Slots returns the current number of slots (a power of two).
func (t *Table) Slots() int { return len(t.keys) }

// LoadFactor returns count/slots.
func (t *Table) LoadFactor() float64 { return float64(t.count) / float64(len(t.keys)) }

// MemoryBytes returns the approximate memory footprint of the backing
// arrays (8-byte key + 2-byte value per slot), the quantity reported in
// the paper's Table 2 "Memory Usage" column.
func (t *Table) MemoryBytes() int64 { return int64(len(t.keys)) * 10 }

// Lookup returns the value stored under key and whether it is present.
// Key 0 is never present.
func (t *Table) Lookup(key uint64) (uint16, bool) {
	if key == 0 {
		return 0, false
	}
	i := t.hash(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			return t.vals[i], true
		}
		if k == 0 {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

// Contains reports whether key is present.
func (t *Table) Contains(key uint64) bool {
	_, ok := t.Lookup(key)
	return ok
}

// Insert stores val under key if the key is absent and returns true; if
// the key is already present it leaves the existing value untouched and
// returns it with false. Key 0 is rejected with a panic: it would corrupt
// the empty-slot encoding, and no valid packed permutation is 0.
func (t *Table) Insert(key uint64, val uint16) (existing uint16, inserted bool) {
	if key == 0 {
		panic("hashtab: key 0 is the empty-slot sentinel")
	}
	if float64(t.count+1) > maxLoadFactor*float64(len(t.keys)) {
		t.grow()
	}
	i := t.hash(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			return t.vals[i], false
		}
		if k == 0 {
			t.keys[i] = key
			t.vals[i] = val
			t.count++
			return val, true
		}
		i = (i + 1) & t.mask
	}
}

// Update overwrites the value under an existing key, inserting if absent.
func (t *Table) Update(key uint64, val uint16) {
	if key == 0 {
		panic("hashtab: key 0 is the empty-slot sentinel")
	}
	if float64(t.count+1) > maxLoadFactor*float64(len(t.keys)) {
		t.grow()
	}
	i := t.hash(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			t.vals[i] = val
			return
		}
		if k == 0 {
			t.keys[i] = key
			t.vals[i] = val
			t.count++
			return
		}
		i = (i + 1) & t.mask
	}
}

func (t *Table) grow() {
	oldKeys, oldVals := t.keys, t.vals
	slots := len(oldKeys) * 2
	t.keys = make([]uint64, slots)
	t.vals = make([]uint16, slots)
	t.mask = uint64(slots - 1)
	t.count = 0
	for i, k := range oldKeys {
		if k != 0 {
			t.Insert(k, oldVals[i])
		}
	}
}

// ForEach calls fn for every (key, value) pair in unspecified order,
// stopping early if fn returns false.
func (t *Table) ForEach(fn func(key uint64, val uint16) bool) {
	for i, k := range t.keys {
		if k != 0 {
			if !fn(k, t.vals[i]) {
				return
			}
		}
	}
}

// Stats describes probe-chain behaviour, the quantities of the paper's
// Table 2: how far entries sit from their home slot under linear probing.
type Stats struct {
	Entries     int
	Slots       int
	LoadFactor  float64
	MemoryBytes int64
	// AvgChain is the mean probe-sequence length over stored keys (a key
	// in its home slot has chain length 1).
	AvgChain float64
	// MaxChain is the longest probe sequence over stored keys.
	MaxChain int
}

// ComputeStats scans the table and returns probe-chain statistics.
func (t *Table) ComputeStats() Stats {
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
	for i, k := range t.keys {
		if k == 0 {
			continue
		}
		home := t.hash(k) & t.mask
		dist := int((uint64(i) - home) & t.mask)
		chain := dist + 1
		total += chain
		if chain > s.MaxChain {
			s.MaxChain = chain
		}
	}
	s.AvgChain = float64(total) / float64(t.count)
	return s
}

// String summarizes the table in Table 2's format.
func (s Stats) String() string {
	return fmt.Sprintf("entries=%d slots=2^%d load=%.2f mem=%s avgChain=%.2f maxChain=%d",
		s.Entries, bits.TrailingZeros(uint(s.Slots)), s.LoadFactor,
		FormatBytes(s.MemoryBytes), s.AvgChain, s.MaxChain)
}

// FormatBytes renders a byte count with a binary unit suffix.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
