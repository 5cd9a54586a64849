package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/canon"
	"repro/internal/perm"
)

func mustPool(t *testing.T) *pool {
	t.Helper()
	p, err := loadPool()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// benchSeconds is the run length BENCHMARK.json gives every run.
func benchSeconds(t *testing.T) float64 {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		RunSeconds float64 `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil || cfg.RunSeconds <= 0 {
		t.Fatalf("BENCHMARK.json: run_seconds %v, %v", cfg.RunSeconds, err)
	}
	return cfg.RunSeconds
}

func TestPoolHoldsDistinctRepresentatives(t *testing.T) {
	p := mustPool(t)
	seen := map[perm.Perm]bool{}
	for c := 1; c <= maxPoolCost; c++ {
		if len(p[c]) != poolSizes[c] {
			t.Errorf("cost %d: %d classes, want %d", c, len(p[c]), poolSizes[c])
		}
		for _, f := range p[c] {
			if canon.Rep(f) != f {
				t.Errorf("cost %d: %016x is not its class representative", c, uint64(f))
			}
			if seen[f] {
				t.Errorf("cost %d: %016x listed twice", c, uint64(f))
			}
			seen[f] = true
		}
	}
}

func localRounds(t *testing.T, p *pool, seed uint64, n int) [][]spec {
	t.Helper()
	g := newLocalGen(p, seed)
	if _, err := g.warmup(seed); err != nil {
		t.Fatal(err)
	}
	var out [][]spec
	for i := 0; i < n; i++ {
		r, err := g.round()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

func sameSpecs(a, b []spec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// heavyOf returns the fixed-corpus part of a round: specs of cost ≥ 10
// and Table 6 rows, in a canonical order.
func heavyOf(r []spec) map[spec]bool {
	out := map[spec]bool{}
	for _, s := range r {
		if s.cost >= 10 || s.name != "" {
			out[s] = true
		}
	}
	return out
}

func TestLocalGenIsSeeded(t *testing.T) {
	p := mustPool(t)
	a, b, c := localRounds(t, p, 7, 3), localRounds(t, p, 7, 3), localRounds(t, p, 8, 3)
	for i := range a {
		if !sameSpecs(a[i], b[i]) {
			t.Fatalf("round %d differs between two generators of seed 7", i)
		}
		if sameSpecs(a[i], c[i]) {
			t.Errorf("round %d is the same for seeds 7 and 8", i)
		}
		ha, hc := heavyOf(a[i]), heavyOf(c[i])
		if len(ha) != 4 || len(ha) != len(hc) {
			t.Fatalf("round %d: %d and %d fixed-corpus specs, want 4", i, len(ha), len(hc))
		}
		for s := range ha {
			if !hc[s] {
				t.Errorf("round %d: fixed-corpus spec %016x not drawn for every seed", i, uint64(s.f))
			}
		}
	}
}

func TestLocalGenNeverRepeatsASpec(t *testing.T) {
	p := mustPool(t)
	g := newLocalGen(p, 3)
	warm, err := g.warmup(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[perm.Perm]bool{}
	for _, s := range warm {
		seen[s.f] = true
	}
	for i := 0; i < roundsFor(benchSeconds(t), localRoundsPerSecond); i++ {
		r, err := g.round()
		if err != nil {
			t.Fatal(err)
		}
		if want := roundOps(localDirect) + roundOps(localMITM) + roundOps(localHeavy) + 1; len(r) != want {
			t.Fatalf("round %d holds %d ops, want %d", i, len(r), want)
		}
		for _, s := range r {
			if seen[s.f] {
				t.Fatalf("round %d repeats %016x", i, uint64(s.f))
			}
			seen[s.f] = true
		}
	}
}

func TestFleetGenIsSeededAndDisjoint(t *testing.T) {
	p := mustPool(t)
	gen := func(seed uint64) (*fleetInputs, [fleetCallers][]spec) {
		in, err := newFleetInputs(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		var rounds [fleetCallers][]spec
		for c := 0; c < fleetCallers; c++ {
			g := newFleetGen(in, p, seed, c)
			for i := 0; i < 50; i++ {
				r, err := g.round()
				if err != nil {
					t.Fatal(err)
				}
				rounds[c] = append(rounds[c], r...)
			}
		}
		return in, rounds
	}
	in, a := gen(5)
	_, b := gen(5)
	_, c := gen(6)
	for i := range a {
		if !sameSpecs(a[i], b[i]) {
			t.Fatalf("caller %d: seed 5 gave two different op sequences", i)
		}
		if sameSpecs(a[i], c[i]) {
			t.Errorf("caller %d: seeds 5 and 6 gave the same op sequence", i)
		}
	}
	hot := map[perm.Perm]bool{}
	for _, s := range in.hot {
		hot[s.f] = true
	}
	shared := map[perm.Perm]bool{}
	for _, s := range in.warm {
		if hot[s.f] {
			t.Fatalf("warm-up spec %016x is in the hot set", uint64(s.f))
		}
		shared[s.f] = true
	}
	oneShot := map[perm.Perm]bool{}
	hotAsked := 0
	for _, ops := range a {
		for _, s := range ops {
			if hot[s.f] {
				hotAsked++
				continue
			}
			if shared[s.f] || oneShot[s.f] {
				t.Fatalf("one-shot spec %016x asked twice", uint64(s.f))
			}
			oneShot[s.f] = true
		}
	}
	if total := len(a[0]) + len(a[1]); hotAsked*100 < 28*total || hotAsked*100 > 34*total {
		t.Errorf("%d of %d ops ask the hot set, want about 30%%", hotAsked, total)
	}
}

// A full-length fleet-mix run must not use up any cost's pool classes
// in either caller's partition.
func TestFleetGenLastsAFullRun(t *testing.T) {
	p := mustPool(t)
	in, err := newFleetInputs(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	rounds := roundsFor(benchSeconds(t), fleetRoundsPerSecond)
	for c := 0; c < fleetCallers; c++ {
		g := newFleetGen(in, p, 9, c)
		for i := 0; i < rounds; i++ {
			if _, err := g.round(); err != nil {
				t.Fatalf("caller %d, round %d of %d: %v", c, i, rounds, err)
			}
		}
	}
}

// roundOps is the number of specs a round draws for counts.
func roundOps(counts map[int]int) int {
	n := 0
	for _, k := range counts {
		n += k
	}
	return n
}
