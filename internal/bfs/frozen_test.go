package bfs

import (
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
