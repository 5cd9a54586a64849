package canon

import (
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// permFromBytes maps any input to a permutation: its first 16 bytes
// (zeros past the end), each replaced by its rank, ties broken by
// index. The values of a permutation, as bytes, map back to it.
func permFromBytes(data []byte) perm.Perm {
	var key, vals [16]uint8
	copy(key[:], data)
	for i := range key {
		for j := range key {
			if key[j] < key[i] || key[j] == key[i] && j < i {
				vals[i]++
			}
		}
	}
	return perm.MustFromValues(vals)
}

// FuzzCanonicalPair holds CanonicalPair (given the inverse) and
// Canonical to the oracle on any permutation. The seed corpus holds one
// input for each branch TestCanonicalMatchesOracle counts. Explore with
// `go test ./internal/canon -run=NONE -fuzz=FuzzCanonicalPair`.
func FuzzCanonicalPair(f *testing.F) {
	seen := map[string]bool{}
	for _, pop := range oraclePopulations(f, rand.New(rand.NewSource(18)), 1000) {
		for i := 0; i < min(pop.n, 200); i++ {
			p := pop.next(i)
			for _, b := range branchesOf(p) {
				if !seen[b] {
					seen[b] = true
					vals := p.Values()
					f.Add(vals[:])
				}
			}
		}
	}
	if len(seen) != 9 {
		f.Fatalf("seed corpus covers %d branches, want 9: %v", len(seen), seen)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := permFromBytes(data)
		wr, ws, wi := refCanonical(p)
		if r, s, i := CanonicalPair(p, p.Inverse()); r != wr || s != ws || i != wi {
			t.Fatalf("CanonicalPair(%v) = (%v, %d, %v), oracle (%v, %d, %v)", p, r, s, i, wr, ws, wi)
		}
		if r, s, i := Canonical(p); r != wr || s != ws || i != wi {
			t.Fatalf("Canonical(%v) = (%v, %d, %v), oracle (%v, %d, %v)", p, r, s, i, wr, ws, wi)
		}
	})
}
