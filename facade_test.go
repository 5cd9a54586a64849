package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestHeuristicFacade(t *testing.T) {
	spec, _ := ParseSpec("[0,2,4,12,8,5,9,11,1,6,10,13,3,14,7,15]") // hwb4
	c, err := SynthesizeHeuristic(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.Perm() != spec {
		t.Fatal("heuristic facade produced the wrong function")
	}
	if len(c) < 11 {
		t.Fatalf("heuristic beat hwb4's proved optimum: %d < 11", len(c))
	}
}

func TestRewriteFacade(t *testing.T) {
	db := NewRewriteDB(4)
	c, _ := ParseCircuit("NOT(a) CNOT(c,d) NOT(a) TOF(a,b,c)")
	out := db.Apply(c)
	if !out.Equivalent(c) {
		t.Fatal("rewrite facade changed the function")
	}
	if len(out) != 2 {
		t.Fatalf("rewrite facade left %d gates, want 2", len(out))
	}
}

func TestSaveLoadFacade(t *testing.T) {
	s := apiFixture(t)
	path := filepath.Join(t.TempDir(), "facade.tables")
	if err := SaveTables(path, s); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadSynthesizer(bytes.NewReader(blob), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := ParseSpec("[0,7,6,9,4,11,10,13,8,15,14,1,12,3,2,5]") // rd32
	a, err := s.Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || a.Perm() != b.Perm() {
		t.Fatal("loaded synthesizer disagrees with the original")
	}
	// Wrong alphabet must be rejected.
	if _, err := LoadSynthesizer(bytes.NewReader(blob), LinearAlphabet()); err == nil {
		t.Fatal("alphabet mismatch accepted")
	}
}
