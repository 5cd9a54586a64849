package bfs

import (
	"math/bits"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/gate"
	"repro/internal/hashtab"
	"repro/internal/perm"
)

// TestCompactPreservesQueries checks the frozen layout Search returns
// against its own level lists: every class member of every level answers
// Lookup (through its representative), CostOf and Contains at that
// level, while functions one level beyond the horizon and non-functions
// are rejected.
func TestCompactPreservesQueries(t *testing.T) {
	res, err := Search(GateAlphabet(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	beyond, err := Search(GateAlphabet(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for c := 0; c <= res.MaxCost; c++ {
		lvl := res.Level(c)
		if lvl.Len() != res.LevelLen(c) || int64(lvl.Len()) != GateReducedCounts[c] {
			t.Fatalf("level %d holds %d/%d representatives, want %d", c, lvl.Len(), res.LevelLen(c), GateReducedCounts[c])
		}
		total += lvl.Len()
		for i := 0; i < lvl.Len(); i++ {
			rep := lvl.At(i)
			v, ok := res.Lookup(rep)
			if !ok || v.Cost != c || v.IsIdentity != (c == 0) {
				t.Fatalf("Lookup(level %d rep %v) = %+v,%v", c, rep, v, ok)
			}
			if !v.IsIdentity && v.Elem >= res.Alphabet.Len() {
				t.Fatalf("level %d rep %v stores element %d", c, rep, v.Elem)
			}
			for _, member := range canon.Class(rep) {
				if cost, ok := res.CostOf(member); !ok || cost != c {
					t.Fatalf("CostOf(member %v of level %d) = %d,%v", member, c, cost, ok)
				}
				if !res.Contains(member) {
					t.Fatalf("member %v of level %d not contained", member, c)
				}
			}
		}
	}
	if res.TotalStored() != total {
		t.Fatalf("table holds %d entries, levels %d", res.TotalStored(), total)
	}
	if st := res.TableStats(); st.Entries != total {
		t.Fatalf("TableStats entries %d, want %d", st.Entries, total)
	}
	// Cost 4 lies beyond the k = 3 horizon: absent, with no cost.
	lvl4 := beyond.Level(4)
	for i := 0; i < lvl4.Len(); i++ {
		f := lvl4.At(i)
		if res.Contains(f) || res.Contains(f.Inverse()) {
			t.Fatalf("cost-4 function %v contained at horizon 3", f)
		}
		if cost, ok := res.CostOf(f); ok {
			t.Fatalf("cost-4 function %v reports cost %d at horizon 3", f, cost)
		}
		if _, ok := res.Lookup(f); ok {
			t.Fatalf("cost-4 representative %v found at horizon 3", f)
		}
	}
	if _, ok := res.LookupRaw(0); ok {
		t.Fatal("key 0 reported present")
	}
}

// TestCompactMemorySavings pins the resident cost of a search result:
// the flat table plus a 4-byte slot index per representative, with no
// second copy of each packed word. The build-time layout it replaces
// (sharded table plus 8-byte level lists) cost ~20 bytes per
// representative at k = 5.
func TestCompactMemorySavings(t *testing.T) {
	res, err := Search(GateAlphabet(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(res.TotalStored())
	if got, want := res.MemoryBytes(), res.Frozen.MemoryBytes()+4*n; got != want {
		t.Fatalf("MemoryBytes = %d, want table %d + index %d", got, res.Frozen.MemoryBytes(), 4*n)
	}
	perRep := float64(res.MemoryBytes()) / float64(n)
	t.Logf("k=5: %d bytes, %.1f B/rep", res.MemoryBytes(), perRep)
	if perRep >= 20 {
		t.Fatalf("search result costs %.1f B/rep, want < 20", perRep)
	}
}

// TestSearchResultsVerify passes the result of every alphabet's search
// through FromFrozen's exhaustive structural verification.
func TestSearchResultsVerify(t *testing.T) {
	quantum, err := WeightedGateAlphabet(gate.Gate.QuantumCost)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		a    *Alphabet
		k    int
		opts Options
	}{
		{"gates-reduced", GateAlphabet(), 4, Options{}},
		{"gates-unreduced", GateAlphabet(), 3, Options{NoReduction: true}},
		{"linear", LinearAlphabet(), 10, Options{NoReduction: true}},
		{"lnn", LNNAlphabet(), 4, Options{NoReduction: true}},
		{"weighted", quantum, 7, Options{}},
		{"layers", LayerAlphabet(), 2, Options{}},
	}
	for _, tc := range cases {
		res, err := Search(tc.a, tc.k, &tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ft, idx, counts := res.CompactView()
		if _, err := FromFrozen(res.Alphabet, res.MaxCost, res.Reduced, ft, idx, counts, true); err != nil {
			t.Fatalf("%s: search result fails verification: %v", tc.name, err)
		}
	}
}

func TestSearchRejectsOverdeepHorizon(t *testing.T) {
	if _, err := Search(GateAlphabet(), MaxPackedCost+1, nil); err == nil {
		t.Fatal("horizon beyond the packed-cost limit accepted")
	}
}

func TestFromFrozenValidation(t *testing.T) {
	res, err := Search(GateAlphabet(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ft, idx, counts := res.CompactView()
	if _, err := FromFrozen(res.Alphabet, res.MaxCost, true, ft, idx, counts, true); err != nil {
		t.Fatalf("valid frozen parts rejected: %v", err)
	}
	// A duplicated index entry must be caught by verification.
	bad := append([]uint32(nil), idx...)
	bad[1] = bad[0]
	if _, err := FromFrozen(res.Alphabet, res.MaxCost, true, ft, bad, counts, true); err == nil {
		t.Fatal("duplicate slot index accepted")
	}
	// Shifted level counts mis-tag costs.
	badCounts := append([]int(nil), counts...)
	badCounts[1]--
	badCounts[2]++
	if _, err := FromFrozen(res.Alphabet, res.MaxCost, true, ft, idx, badCounts, true); err == nil {
		t.Fatal("cost-shifted level counts accepted")
	}
	// Without verification the same parts are taken on trust.
	if _, err := FromFrozen(res.Alphabet, res.MaxCost, true, ft, bad, counts, false); err != nil {
		t.Fatalf("unverified assembly failed: %v", err)
	}
	// A level list naming a representative the table lacks is refused.
	table := hashtab.NewSharded(1)
	table.Insert(uint64(perm.Identity), PackIdentity())
	levels := [][]perm.Perm{{perm.Identity}, {res.Level(1).At(0)}}
	if _, err := FromLevels(res.Alphabet, 1, true, table, levels, false); err == nil {
		t.Fatal("level list with an unstored representative accepted")
	}
}

// TestVerifyFrozenDetectsCorruption damages a valid k=3 table in each way
// FromFrozen's verification checks and requires it to refuse every one
// with the matching error.
func TestVerifyFrozenDetectsCorruption(t *testing.T) {
	res, err := Search(GateAlphabet(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ft, idx, counts := res.CompactView()
	slots := ft.Slots()
	perShard := slots / ft.ShardCount()
	home := func(key uint64) int {
		h := hashtab.Hash64Shift(key)
		shard := int(h >> (64 - bits.TrailingZeros(uint(ft.ShardCount()))))
		return shard*perShard + int(h&uint64(perShard-1))
	}
	sameShard := func(a, b int) bool { return a/perShard == b/perShard }
	// A level-2 entry whose successor slot is empty, so moving or
	// damaging it leaves every other probe chain intact.
	pos := -1
	for j := counts[0] + counts[1]; j < counts[0]+counts[1]+counts[2]; j++ {
		if s := int(idx[j]); s+1 < slots && sameShard(s, s+1) && ft.KeyAt(uint32(s+1)) == 0 {
			pos = j
			break
		}
	}
	if pos < 0 {
		t.Fatal("no level-2 entry ends its probe run")
	}
	slot := int(idx[pos])
	key := ft.KeyAt(uint32(slot))
	v := UnpackValue(ft.ValAt(uint32(slot)))

	type damage func(t *testing.T, keys []uint64, vals []uint16, idx []uint32)
	cases := []struct {
		name, want string
		damage     damage
	}{
		{"slot out of range", "out of range", func(_ *testing.T, _ []uint64, _ []uint16, idx []uint32) {
			idx[pos] = uint32(slots)
		}},
		{"duplicated slot", "indexed twice", func(_ *testing.T, _ []uint64, _ []uint16, idx []uint32) {
			idx[pos] = idx[0]
		}},
		{"not a permutation", "invalid entry", func(_ *testing.T, keys []uint64, _ []uint16, _ []uint32) {
			keys[slot] = 1
		}},
		{"index names an empty slot", "invalid entry", func(_ *testing.T, _ []uint64, _ []uint16, idx []uint32) {
			idx[pos] = uint32(slot + 1)
		}},
		{"unreachable key", "probe-reachable", func(t *testing.T, keys []uint64, vals []uint16, idx []uint32) {
			// Move the key to an empty slot behind another empty slot, which
			// its probe from home stops at first.
			for e := 1; e < slots; e++ {
				if sameShard(e-1, e) && keys[e-1] == 0 && keys[e] == 0 && e != home(key) && e-1 != slot {
					keys[e], vals[e] = key, vals[slot]
					keys[slot], vals[slot] = 0, 0
					idx[pos] = uint32(e)
					return
				}
			}
			t.Fatal("no empty slot pair")
		}},
		{"wrong cost tag", "tagged cost", func(_ *testing.T, _ []uint64, vals []uint16, _ []uint32) {
			vals[slot] = PackValue(v.Cost+1, v.Elem, v.First)
		}},
		{"element out of range", "references element", func(_ *testing.T, _ []uint64, vals []uint16, _ []uint32) {
			vals[slot] = PackValue(v.Cost, res.Alphabet.Len(), v.First)
		}},
		{"non-identity stored as identity", "stored as identity", func(_ *testing.T, _ []uint64, vals []uint16, _ []uint32) {
			vals[slot] = identityElem | uint16(v.Cost)<<costShift
		}},
		{"level 0 non-identity", "level 0 holds", func(_ *testing.T, _ []uint64, vals []uint16, idx []uint32) {
			vals[idx[0]] = PackValue(0, 0, false)
		}},
		{"live slot outside the index", "occupies", func(_ *testing.T, keys []uint64, vals []uint16, _ []uint32) {
			// A valid function stored at its own (empty) home slot, so it is
			// probe-reachable, but named by no level.
			for p := perm.Perm(perm.Identity); ; {
				p = p.Then(gate.FromIndex(int(p>>4) % gate.Count).Perm())
				if _, ok := ft.SlotOf(uint64(p)); ok {
					continue
				}
				if h := home(uint64(p)); keys[h] == 0 {
					keys[h], vals[h] = uint64(p), PackValue(3, 0, false)
					return
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			keys := make([]uint64, slots)
			vals := make([]uint16, slots)
			for i := range keys {
				keys[i], vals[i] = ft.KeyAt(uint32(i)), ft.ValAt(uint32(i))
			}
			bad := append([]uint32(nil), idx...)
			tc.damage(t, keys, vals, bad)
			dft, err := hashtab.NewFrozen(keys, vals, ft.ShardCount(), ft.Len())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := FromFrozen(res.Alphabet, res.MaxCost, true, dft, bad, counts, false); err != nil {
				t.Fatalf("unverified assembly failed: %v", err)
			}
			_, err = FromFrozen(res.Alphabet, res.MaxCost, true, dft, bad, counts, true)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("verification returned %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
