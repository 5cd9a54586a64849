package main

import (
	"path/filepath"
	"testing"

	"repro/internal/extbuild"
	"repro/internal/perm"
	"repro/internal/service"
	"repro/internal/tables"
)

// smallFleet builds a k=2 store and a k=4 store split in two, the
// shape of the fleet-mix fleet at a depth a test can afford.
func smallFleet(t *testing.T) fleetStores {
	t.Helper()
	dir := t.TempDir()
	for _, k := range []int{2, 4} {
		out := filepath.Join(dir, map[int]string{2: "small.tables", 4: "large.tables"}[k])
		st, err := extbuild.Build(buildOptions(k, filepath.Join(dir, "work"), out, 1<<20, k == 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCounts(st, k); err != nil {
			t.Fatal(err)
		}
	}
	return fleetStores{
		small:  filepath.Join(dir, "small.tables"),
		splits: []string{filepath.Join(dir, "large.tables.0of2"), filepath.Join(dir, "large.tables.1of2")},
	}
}

// fleetRun asks every spec once, then the first half again (result
// cache hits), and returns the answers and the layers' counters.
type fleetRun struct {
	answers []string
	svc     service.Stats
	tiers   []tables.TierStats
	cache   tables.CacheStats
}

func runSmallFleet(t *testing.T, st fleetStores, specs []spec, tr *tracer) fleetRun {
	t.Helper()
	f, err := startFleet(st, 4, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	var out fleetRun
	for _, s := range append(specs, specs[:len(specs)/2]...) {
		a, _, err := f.ask(s)
		if err == nil {
			_, err = checkWire(s, a)
		}
		if err != nil {
			t.Fatal(err)
		}
		out.answers = append(out.answers, a.Circuit)
	}
	out.svc, out.tiers, out.cache = f.svc.Stats(), f.fed.TierStats(), f.fed.CacheStats()
	return out
}

// TestTracingKeepsAnswersAndCounters checks decorator fidelity: the
// traced fleet answers byte-identically and its layers count the same
// work as the untraced one, and the decorators recorded every seam.
func TestTracingKeepsAnswersAndCounters(t *testing.T) {
	st := smallFleet(t)
	p := mustPool(t)
	rng := newRNG(1, 1)
	used := map[perm.Perm]bool{}
	var specs []spec
	for c := 1; c <= 7; c++ {
		for i := 0; i < 12; i++ {
			f, err := distinct(rng, used, p[c])
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, spec{f: f, cost: c})
		}
	}
	plain := runSmallFleet(t, st, specs, nil)
	tr := newTracer()
	traced := runSmallFleet(t, st, specs, tr)

	for i := range plain.answers {
		if plain.answers[i] != traced.answers[i] {
			t.Errorf("spec %d: untraced %s, traced %s", i, plain.answers[i], traced.answers[i])
		}
	}
	ps, ts := plain.svc, traced.svc
	if ps.Queries != ts.Queries || ps.CacheHits != ts.CacheHits || ps.Direct != ts.Direct || ps.MITM != ts.MITM {
		t.Errorf("service counters: untraced %+v, traced %+v", ps, ts)
	}
	for i := range plain.tiers {
		p, q := plain.tiers[i], traced.tiers[i]
		if p.Probes != q.Probes || p.Hits != q.Hits || p.Escalations != q.Escalations {
			t.Errorf("tier %d counters: untraced %+v, traced %+v", i, p, q)
		}
	}
	// Level reads are left out: core prefetches the next level chunk
	// beside each lookup, and whether a prefetch starts before the scan
	// finds its answer depends on timing, traced or not.
	pc, tc := plain.cache, traced.cache
	if pc.KeyHits != tc.KeyHits || pc.KeyMisses != tc.KeyMisses || pc.WireRetries != tc.WireRetries {
		t.Errorf("client cache counters: untraced %+v, traced %+v", pc, tc)
	}

	var kinds [numSpanKinds]int
	tr.each(func(s span) { kinds[s.kind]++ })
	for _, k := range []spanKind{spanOps, spanHandler, spanService, spanFederation, spanTier0, spanTier1, spanClient, spanShard} {
		if kinds[k] == 0 {
			t.Errorf("no %q spans recorded", spanNames[k])
		}
	}
	if kinds[spanOps] != len(plain.answers) {
		t.Errorf("%d ops spans for %d requests", kinds[spanOps], len(plain.answers))
	}
}

func TestDecoratorsRefuseLocalBackends(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wrapping a Localized backend did not panic")
		}
	}()
	mustNotBeLocal(&tables.Local{})
}
