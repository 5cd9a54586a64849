package core

import (
	"math/rand"
	"testing"

	"repro/internal/bfs"
	"repro/internal/canon"
	"repro/internal/gate"
	"repro/internal/perm"
)

// setRaw overwrites the packed value stored under key in the result's
// heap-backed slot array, returning the previous value.
func setRaw(t *testing.T, res *bfs.Result, key uint64, v uint16) uint16 {
	t.Helper()
	slot, ok := res.Frozen.SlotOf(key)
	if !ok {
		t.Fatalf("key %#x not in the table", key)
	}
	vals := res.Frozen.RawVals()
	old := vals[slot]
	vals[slot] = v
	return old
}

// TestCorruptTableValueFailsClosed injects faults into the lookup table
// and checks the structural guarantee: whatever gate values the table
// holds, a returned circuit always implements the queried function
// (stripping and re-appending are exact inverses), and corruption is
// observable — it surfaces as an error or as a non-minimal length, never
// as a wrong function, a hang, or a panic.
func TestCorruptTableValueFailsClosed(t *testing.T) {
	res, err := bfs.Search(bfs.GateAlphabet(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromResult(res, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	corrupted := 0
	for trial := 0; trial < 200; trial++ {
		lvl := res.Level(3)
		rep := lvl.At(rng.Intn(lvl.Len()))
		// Overwrite the stored boundary gate with a random (likely wrong)
		// one.
		orig := setRaw(t, res, uint64(rep), uint16(rng.Intn(gate.Count)))
		c, err := s.Synthesize(rep)
		if err == nil {
			if c.Perm() != rep {
				t.Fatalf("corrupted entry produced a circuit for the wrong function: %v", c)
			}
			if len(c) != 3 {
				corrupted++ // observable as a lost minimality guarantee
			}
		} else {
			corrupted++ // observable as a failed-closed error
		}
		setRaw(t, res, uint64(rep), orig)
	}
	if corrupted == 0 {
		t.Fatal("no injected fault was ever observable; injection is ineffective")
	}
	// The table must be healthy again.
	for i := 0; i < 50; i++ {
		rep := res.Level(3).At(i)
		c, err := s.Synthesize(rep)
		if err != nil || len(c) != 3 || c.Perm() != rep {
			t.Fatalf("table did not recover: %v, %v", c, err)
		}
	}
}

// TestReconstructGuardAgainstCycles builds a value cycle (two entries
// each pointing at gates that bounce between them) and checks the step
// guard converts it into an error.
func TestReconstructGuardAgainstCycles(t *testing.T) {
	res, err := bfs.Search(bfs.GateAlphabet(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromResult(res, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Take a size-1 representative r with gate g: r ⋄ g = identity. Point
	// r's entry at some gate h so that the residue r ⋄ h is again size 1
	// (h ≠ g) — the walk then moves between size-1 entries without ever
	// reaching the identity, and only the guard stops it.
	r := res.Level(1).At(0)
	rng := rand.New(rand.NewSource(2))
	broke := false
	for trial := 0; trial < gate.Count; trial++ {
		h := gate.FromIndex(rng.Intn(gate.Count))
		residue := r.Then(h.Perm())
		if residue == perm.Identity {
			continue
		}
		if sz, ok := res.CostOf(canon.Rep(residue)); !ok || sz == 0 {
			continue
		}
		setRaw(t, res, uint64(r), uint16(h.Index()))
		if _, err := s.Synthesize(r); err != nil {
			broke = true
		} else {
			// The replacement may still be a legitimate last gate of some
			// minimal circuit; try another.
			continue
		}
		break
	}
	if !broke {
		t.Skip("could not construct a detectable cycle with this table; guard untestable here")
	}
}

// TestHugeSplitConfigRejected exercises configuration validation paths.
func TestHugeSplitConfigRejected(t *testing.T) {
	if _, err := New(Config{K: 2, MaxSplit: 9}); err == nil {
		t.Fatal("MaxSplit > K accepted")
	}
	if _, err := New(Config{K: 2, MaxSplit: -1}); err == nil {
		t.Fatal("negative MaxSplit accepted")
	}
}
