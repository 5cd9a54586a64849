package tablesio_test

// Synthesis over loaded stores. These tests drive core, which builds
// its tables through extbuild and so imports tablesio; they live in the
// external test package to keep that import legal.

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bfs"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/perm"
	"repro/internal/randperm"
	"repro/internal/tablesio"
)

func randomCircuitPerm(rng *rand.Rand, n int) perm.Perm {
	c := make(circuit.Circuit, n)
	for i := range c {
		c[i] = gate.FromIndex(rng.Intn(gate.Count))
	}
	return c.Perm()
}

func TestLoadedTablesSynthesizeIdentically(t *testing.T) {
	orig, err := bfs.Search(bfs.GateAlphabet(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "k3.tables")
	if err := tablesio.SaveFile(path, orig); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := tablesio.Load(bytes.NewReader(blob), bfs.GateAlphabet())
	if err != nil {
		t.Fatal(err)
	}
	sOrig, err := core.FromResult(orig, 3)
	if err != nil {
		t.Fatal(err)
	}
	sBack, err := core.FromResult(back, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		f := randomCircuitPerm(rng, rng.Intn(8))
		a, errA := sOrig.Synthesize(f)
		b, errB := sBack.Synthesize(f)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("error divergence: %v vs %v", errA, errB)
		}
		if errA != nil {
			continue
		}
		if len(a) != len(b) || a.Perm() != b.Perm() {
			t.Fatalf("loaded tables synthesize differently: %v vs %v", a, b)
		}
	}
}

// TestMappedMatchesBuilt is the serving-equivalence guarantee: synthesis
// against memory-mapped v2 tables is identical — circuit for circuit —
// to synthesis against the heap tables Search built, across direct
// lookups, meet-in-the-middle splits, and beyond-horizon failures.
func TestMappedMatchesBuilt(t *testing.T) {
	res, err := bfs.Search(bfs.GateAlphabet(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "k4.tables")
	if err := tablesio.SaveFile(path, res); err != nil {
		t.Fatal(err)
	}
	mappedRes, info, err := tablesio.LoadFile(path, bfs.GateAlphabet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mappedRes.Frozen.Close()
	if tablesio.MmapFastPath && !info.MemoryMapped {
		t.Fatal("expected the mmap fast path")
	}
	built, err := core.FromResult(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := core.FromResult(mappedRes, 0)
	if err != nil {
		t.Fatal(err)
	}
	built.SetWorkers(1)
	mapped.SetWorkers(1)

	// ≥ 100 specs spanning the whole difficulty range: sizes 0…8 via
	// random circuits plus uniformly random permutations (mostly beyond
	// the k = 4 horizon, so the failure paths are compared too).
	rng := rand.New(rand.NewSource(7))
	specs := make([]perm.Perm, 0, 128)
	for i := 0; i < 96; i++ {
		specs = append(specs, randomCircuitPerm(rng, rng.Intn(9)))
	}
	specs = append(specs, randperm.New(20100601).Sample(32)...)
	for i, f := range specs {
		cb, eb := built.Synthesize(f)
		cm, em := mapped.Synthesize(f)
		if (eb == nil) != (em == nil) {
			t.Fatalf("spec %d (%v): error divergence %v vs %v", i, f, eb, em)
		}
		if eb != nil {
			if !errors.Is(em, core.ErrBeyondHorizon) {
				t.Fatalf("spec %d: unexpected failure %v", i, em)
			}
			continue
		}
		if cb.String() != cm.String() {
			t.Fatalf("spec %d (%v): built %v vs mapped %v", i, f, cb, cm)
		}
		if cm.Perm() != f {
			t.Fatalf("spec %d: mapped circuit computes the wrong function", i)
		}
	}
}
