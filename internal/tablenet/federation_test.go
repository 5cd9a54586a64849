package tablenet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/perm"
	"repro/internal/tables"
)

// The shallow fixture (k = 3, ≈600 classes) shares the k = 4 fixture's
// alphabet: the pair forms a valid federation whose routing is
// genuinely exercised — plenty of cost-4 representatives live only in
// the deep tier.
var (
	shallowOnce sync.Once
	shallowRes  *bfs.Result
	shallowErr  error
)

func shallowTables(t testing.TB) *bfs.Result {
	t.Helper()
	shallowOnce.Do(func() {
		shallowRes, shallowErr = bfs.Search(bfs.GateAlphabet(), 3, nil)
	})
	if shallowErr != nil {
		t.Fatal(shallowErr)
	}
	return shallowRes
}

func shallowBackend(t testing.TB) *tables.Local {
	t.Helper()
	b, err := tables.NewLocal(shallowTables(t))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// offerCounter counts the keys offered to the federation it wraps,
// through either lookup method; every other method is the federation's.
type offerCounter struct {
	*Federation
	keys atomic.Uint64
}

func (o *offerCounter) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	o.keys.Add(uint64(len(keys)))
	return o.Federation.LookupBatch(ctx, keys, vals, found)
}

func (o *offerCounter) LookupBatchBounded(ctx context.Context, keys []uint64, vals []uint16, found []bool, bound int) error {
	o.keys.Add(uint64(len(keys)))
	return o.Federation.LookupBatchBounded(ctx, keys, vals, found, bound)
}

// TestFederationIdenticalToBigK: a two-tier federation (k=3 fleet
// fronting the k=4 fleet, both behind real servers) must answer every
// query byte-identically to the big-k backend alone — raw lookups and
// fully-synthesized circuits alike — while every key offered to it is
// probed on exactly one tier, and the shallow tier serves part of the
// traffic.
func TestFederationIdenticalToBigK(t *testing.T) {
	res := fixtureTables(t)
	_, addrSmall := startServer(t, shallowBackend(t))
	_, addrBig := startServer(t, fixtureBackend(t))
	clSmall := dialClient(t, addrSmall, nil)
	clBig := dialClient(t, addrBig, nil)

	// Deliberately passed deep-first: NewFederation orders by depth.
	f, err := NewFederation([]tables.Backend{clBig, clSmall})
	if err != nil {
		t.Fatal(err)
	}
	fed := &offerCounter{Federation: f}
	if got := fed.Meta(); got.K != res.MaxCost || got.Source != "federation(2)" {
		t.Fatalf("federation meta = %+v", got)
	}
	ctx := context.Background()

	// Raw lookups across every level plus absent keys, against the big
	// backend directly.
	direct := fixtureBackend(t)
	rng := rand.New(rand.NewSource(17))
	var keys []uint64
	for c := 0; c <= res.MaxCost; c++ {
		lv := res.Level(c)
		for i := 0; i < lv.Len(); i += 1 + rng.Intn(32) {
			keys = append(keys, uint64(lv.At(i)))
		}
	}
	for i := 0; i < 200; i++ {
		keys = append(keys, uint64(randomPerm16(rng)))
	}
	gotVals := make([]uint16, len(keys))
	gotOK := make([]bool, len(keys))
	if err := fed.LookupBatch(ctx, keys, gotVals, gotOK); err != nil {
		t.Fatal(err)
	}
	wantVals := make([]uint16, len(keys))
	wantOK := make([]bool, len(keys))
	if err := direct.LookupBatch(ctx, keys, wantVals, wantOK); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if gotOK[i] != wantOK[i] || (gotOK[i] && gotVals[i] != wantVals[i]) {
			t.Fatalf("key %#x: federated (%v, %v) != direct (%v, %v)", keys[i], gotVals[i], gotOK[i], wantVals[i], wantOK[i])
		}
	}

	// Full synthesis through the query engine: the federation is one
	// tables.Backend, so core plans scans off the top tier's geometry.
	localSynth, err := core.FromResult(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	localSynth.SetWorkers(1)
	fedSynth, err := core.FromBackend(fed, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fedSynth.K() != localSynth.K() || fedSynth.Horizon() != localSynth.Horizon() {
		t.Fatalf("geometry: federated k=%d h=%d, local k=%d h=%d",
			fedSynth.K(), fedSynth.Horizon(), localSynth.K(), localSynth.Horizon())
	}
	checked := 0
	for i := 0; i < 80; i++ {
		var f perm.Perm
		if i%6 == 5 {
			f = randomPerm16(rng)
		} else {
			f = randomCircuitPerm(rng, 1+rng.Intn(8))
		}
		wantC, wantInfo, wantErr := localSynth.SynthesizeInfoCtx(ctx, f)
		gotC, gotInfo, gotErr := fedSynth.SynthesizeInfoCtx(ctx, f)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && !errors.Is(gotErr, core.ErrBeyondHorizon)) {
			t.Fatalf("spec %v: local err %v, federated err %v", f, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if wantInfo != gotInfo || wantC.String() != gotC.String() {
			t.Fatalf("spec %v:\n  local     %+v %v\n  federated %+v %v", f, wantInfo, wantC, gotInfo, gotC)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d specs compared", checked)
	}

	ts := fed.TierStats()
	if len(ts) != 2 || ts[0].K != 3 || ts[1].K != res.MaxCost {
		t.Fatalf("tier stats mis-ordered: %+v", ts)
	}
	// Each offered key is probed on exactly one tier: no tier passes its
	// misses on, and with both tiers healthy nothing fails over.
	if probes, offered := ts[0].Probes+ts[1].Probes, fed.keys.Load(); probes != offered {
		t.Fatalf("tiers probed %d keys, %d were offered: %+v", probes, offered, ts)
	}
	// The shallow tier serves the reconstruction steps within its depth;
	// the deep tier serves the direct probes and the scans.
	if ts[0].Probes == 0 || ts[0].Hits == 0 || ts[1].Hits == 0 {
		t.Fatalf("a tier served nothing: %+v", ts)
	}
	if ts[0].Horizon >= ts[1].Horizon {
		t.Fatalf("tier horizons not increasing: %d then %d", ts[0].Horizon, ts[1].Horizon)
	}
	if cs := fed.CacheStats(); cs.WireBytesRead == 0 {
		t.Fatalf("federation cache stats empty: %+v", cs)
	}
}

func TestFederationRejectsMismatchedTiers(t *testing.T) {
	if _, err := NewFederation(nil); err == nil {
		t.Fatal("empty federation accepted")
	}

	// Two tiers of the same depth: no escalation relationship exists.
	a := fixtureBackend(t)
	b := fixtureBackend(t)
	if _, err := NewFederation([]tables.Backend{a, b}); !errors.Is(err, ErrTierMismatch) {
		t.Fatalf("duplicate-depth tiers: %v", err)
	}

	// Tiers over different alphabets: escalated answers would come from
	// a different table family entirely.
	alphabet, err := bfs.WeightedGateAlphabet(gate.Gate.QuantumCost)
	if err != nil {
		t.Fatal(err)
	}
	wres, err := bfs.Search(alphabet, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := tables.NewLocal(wres)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFederation([]tables.Backend{shallowBackend(t), wb}); !errors.Is(err, ErrTierMismatch) {
		t.Fatalf("cross-alphabet tiers: %v", err)
	}
}

// Federation routing: every read goes to the shallowest tier whose depth
// covers its need — the bound of LookupBatchBounded, the level of
// LevelKeys, the top tier's K for an unbounded LookupBatch — and fails
// over deeper only when that tier errors. The three tests below each
// drive one read kind through the same rows runner.

// tierCounts holds one counter delta per tier of a two-tier federation.
type tierCounts [2]uint64

// routingRow is one read with the tier that must answer it (-1: the
// read must fail) and the counter deltas it must move on each tier.
type routingRow struct {
	name                           string
	fed                            *Federation
	read                           string // "lookup", "bounded" or "level"
	need                           int    // the bound of "bounded", the level of "level"
	tier                           int    // the answering tier; -1: the read fails
	probes, levelReads, tierErrors tierCounts
}

// routingFixture is a healthy k=3/k=4 federation, the same pair with its
// shallow tier behind a dead server, and with its top tier behind one;
// keys holds one key of cost 1 and one of the deep tier's full depth.
type routingFixture struct {
	res                           *bfs.Result
	shallowK, deepK               int
	healthy, deadShallow, deadTop *Federation
	direct                        *tables.Local
	keys                          []uint64
	wantVals                      []uint16
	wantOK                        []bool
}

func newRoutingFixture(t *testing.T) *routingFixture {
	t.Helper()
	res := fixtureTables(t)
	f := &routingFixture{res: res, shallowK: shallowTables(t).MaxCost, deepK: res.MaxCost, direct: fixtureBackend(t)}
	noCache := &ClientOptions{Conns: 1, CacheKeys: -1, LevelCacheBytes: -1}

	var err error
	if f.healthy, err = NewFederation([]tables.Backend{shallowBackend(t), fixtureBackend(t)}); err != nil {
		t.Fatal(err)
	}
	srvSmall, addrSmall := startServer(t, shallowBackend(t))
	if f.deadShallow, err = NewFederation([]tables.Backend{dialClient(t, addrSmall, noCache), fixtureBackend(t)}); err != nil {
		t.Fatal(err)
	}
	srvBig, addrBig := startServer(t, fixtureBackend(t))
	if f.deadTop, err = NewFederation([]tables.Backend{shallowBackend(t), dialClient(t, addrBig, noCache)}); err != nil {
		t.Fatal(err)
	}
	srvSmall.Close()
	srvBig.Close()

	f.keys = []uint64{uint64(res.Level(1).At(0)), uint64(res.Level(f.deepK).At(0))}
	f.wantVals = make([]uint16, len(f.keys))
	f.wantOK = make([]bool, len(f.keys))
	if err := f.direct.LookupBatch(context.Background(), f.keys, f.wantVals, f.wantOK); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *routingFixture) run(t *testing.T, rows []routingRow) {
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			before := row.fed.TierStats()
			vals := make([]uint16, len(f.keys))
			found := make([]bool, len(f.keys))
			var err error
			switch row.read {
			case "lookup":
				err = row.fed.LookupBatch(ctx, f.keys, vals, found)
			case "bounded":
				err = row.fed.LookupBatchBounded(ctx, f.keys, vals, found, row.need)
			case "level":
				if row.need > f.deepK {
					err = row.fed.LevelKeys(ctx, row.need, 0, make([]uint64, 1))
					break
				}
				got := make([]uint64, f.res.LevelLen(row.need))
				want := make([]uint64, len(got))
				if err = row.fed.LevelKeys(ctx, row.need, 0, got); err == nil {
					if derr := f.direct.LevelKeys(ctx, row.need, 0, want); derr != nil {
						t.Fatal(derr)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("level %d differs from the direct backend", row.need)
					}
				}
			}
			if (err == nil) != (row.tier >= 0) {
				t.Fatalf("err = %v, want the read answered by tier %d", err, row.tier)
			}
			if err == nil && row.read != "level" {
				// The answering tier's depth decides which keys it holds;
				// a held key answers exactly as the big-k backend does.
				k := row.fed.TierStats()[row.tier].K
				for i := range f.keys {
					held := f.wantOK[i] && bfs.UnpackValue(f.wantVals[i]).Cost <= k
					if found[i] != held || (held && vals[i] != f.wantVals[i]) {
						t.Fatalf("key %d: (%v, %v), want (%v, %v) from tier k=%d", i, vals[i], found[i], f.wantVals[i], held, k)
					}
				}
			}
			after := row.fed.TierStats()
			for i := range after {
				got := [3]uint64{after[i].Probes - before[i].Probes, after[i].LevelReads - before[i].LevelReads, after[i].TierErrors - before[i].TierErrors}
				want := [3]uint64{row.probes[i], row.levelReads[i], row.tierErrors[i]}
				if got != want {
					t.Fatalf("tier k=%d moved probes/level reads/errors by %v, want %v", after[i].K, got, want)
				}
				if after[i].Escalations != 0 {
					t.Fatalf("tier k=%d counted %d escalations", after[i].K, after[i].Escalations)
				}
			}
		})
	}
}

// TestFederationBoundedRouting: LookupBatchBounded goes to the shallowest
// tier whose K covers the bound — tier 0 alone for a bound ≤ its K (the
// deep key reported absent, the relaxation the interface licenses), the
// deep tier alone past it — fails over past a dead covering tier, and
// fails when the only covering tier is dead.
func TestFederationBoundedRouting(t *testing.T) {
	f := newRoutingFixture(t)
	n := uint64(len(f.keys))
	f.run(t, []routingRow{
		{"bound at shallow K stays shallow", f.healthy, "bounded", f.shallowK, 0, tierCounts{n, 0}, tierCounts{}, tierCounts{}},
		{"bound 0 stays shallow", f.healthy, "bounded", 0, 0, tierCounts{n, 0}, tierCounts{}, tierCounts{}},
		{"bound past shallow K goes deep", f.healthy, "bounded", f.shallowK + 1, 1, tierCounts{0, n}, tierCounts{}, tierCounts{}},
		{"bound past every K goes to the top tier", f.healthy, "bounded", f.deepK + 3, 1, tierCounts{0, n}, tierCounts{}, tierCounts{}},
		{"dead shallow: bounded lookup fails over", f.deadShallow, "bounded", 1, 1, tierCounts{n, n}, tierCounts{}, tierCounts{1, 0}},
		{"dead top: bound past shallow K fails", f.deadTop, "bounded", f.shallowK + 1, -1, tierCounts{0, n}, tierCounts{}, tierCounts{0, 1}},
		{"dead top: bound at shallow K answers", f.deadTop, "bounded", f.shallowK, 0, tierCounts{n, 0}, tierCounts{}, tierCounts{}},
	})
}

// TestFederationLowerTierOutageDegrades: an unbounded LookupBatch goes to
// the top tier, so a dead shallow tier is never touched and costs no
// answer; a dead top tier fails it loudly rather than answering from a
// tier that cannot be authoritative for every key.
func TestFederationLowerTierOutageDegrades(t *testing.T) {
	f := newRoutingFixture(t)
	n := uint64(len(f.keys))
	f.run(t, []routingRow{
		{"unbounded lookup goes to the top tier", f.healthy, "lookup", 0, 1, tierCounts{0, n}, tierCounts{}, tierCounts{}},
		{"dead shallow: unbounded lookup never touches it", f.deadShallow, "lookup", 0, 1, tierCounts{0, n}, tierCounts{}, tierCounts{}},
		{"dead top: unbounded lookup fails", f.deadTop, "lookup", 0, -1, tierCounts{0, n}, tierCounts{}, tierCounts{0, 1}},
	})
}

// TestFederationLevelKeysRoutesShallow: LevelKeys(c) reads the shallowest
// tier whose K covers c, byte-identical to the big-k backend, fails over
// past a dead shallow tier, and fails past every K or when the only
// covering tier is dead.
func TestFederationLevelKeysRoutesShallow(t *testing.T) {
	f := newRoutingFixture(t)
	f.run(t, []routingRow{
		{"level 0 reads shallow", f.healthy, "level", 0, 0, tierCounts{}, tierCounts{1, 0}, tierCounts{}},
		{"level at shallow K reads shallow", f.healthy, "level", f.shallowK, 0, tierCounts{}, tierCounts{1, 0}, tierCounts{}},
		{"level past shallow K reads deep", f.healthy, "level", f.deepK, 1, tierCounts{}, tierCounts{0, 1}, tierCounts{}},
		{"level past every K fails", f.healthy, "level", f.deepK + 1, -1, tierCounts{}, tierCounts{}, tierCounts{}},
		{"dead shallow: level read fails over", f.deadShallow, "level", 1, 1, tierCounts{}, tierCounts{1, 1}, tierCounts{1, 0}},
		{"dead top: level at shallow K answers", f.deadTop, "level", f.shallowK, 0, tierCounts{}, tierCounts{1, 0}, tierCounts{}},
		{"dead top: level past shallow K fails", f.deadTop, "level", f.deepK, -1, tierCounts{}, tierCounts{0, 1}, tierCounts{0, 1}},
	})
}

// TestFederationReadAllocs: warm reads through a federation of two
// in-process tiers allocate nothing — the routing helper's closure
// stays on the caller's stack.
func TestFederationReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bounds are calibrated without race instrumentation")
	}
	res := fixtureTables(t)
	shallowK := shallowTables(t).MaxCost
	fed, err := NewFederation([]tables.Backend{shallowBackend(t), fixtureBackend(t)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	keys := make([]uint64, 64)
	for i := range keys {
		lv := res.Level(1 + i%res.MaxCost)
		keys[i] = uint64(lv.At(i % lv.Len()))
	}
	vals := make([]uint16, len(keys))
	found := make([]bool, len(keys))
	level := make([]uint64, res.LevelLen(2))
	reads := []struct {
		name string
		read func() error
	}{
		{"LookupBatch", func() error { return fed.LookupBatch(ctx, keys, vals, found) }},
		{"LookupBatchBounded", func() error { return fed.LookupBatchBounded(ctx, keys, vals, found, shallowK) }},
		{"LevelKeys", func() error { return fed.LevelKeys(ctx, 2, 0, level) }},
	}
	for _, r := range reads {
		if err := r.read(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := r.read(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("warm %s allocates %.1f times, want 0", r.name, allocs)
		}
	}
}

// TestFederationHealthFolding: the federation is Down only when its top
// tier is down; a shallow-tier outage merely degrades it (big-k-only
// serving).
func TestFederationHealthFolding(t *testing.T) {
	srvSmall, addrSmall := startServer(t, shallowBackend(t))
	srvBig, addrBig := startServer(t, fixtureBackend(t))
	rSmall, err := NewRouter([]tables.Backend{dialClient(t, addrSmall, nil)})
	if err != nil {
		t.Fatal(err)
	}
	rBig, err := NewRouter([]tables.Backend{dialClient(t, addrBig, nil)})
	if err != nil {
		t.Fatal(err)
	}
	fed, err := NewFederation([]tables.Backend{rSmall, rBig})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	h := fed.Health(ctx)
	if h.Down() || h.Degraded {
		t.Fatalf("healthy federation reports %+v", h)
	}
	if len(h.Replicas) != 2 {
		t.Fatalf("expected 2 replica statuses, got %d", len(h.Replicas))
	}

	srvSmall.Close()
	hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	h = fed.Health(hctx)
	if h.Down() {
		t.Fatalf("shallow outage reported as Down: %+v", h)
	}
	if !h.Degraded {
		t.Fatalf("shallow outage not Degraded: %+v", h)
	}

	srvBig.Close()
	hctx2, cancel2 := context.WithTimeout(ctx, 5*time.Second)
	defer cancel2()
	if h = fed.Health(hctx2); !h.Down() {
		t.Fatalf("top-tier outage not Down: %+v", h)
	}
}

// TestTopologyPinsDepth: a topology that names its tier's depth refuses
// a member serving a different one — the guard that keeps a small-k
// shard out of the big-k fleet in a heterogeneous deployment.
func TestTopologyPinsDepth(t *testing.T) {
	_, addr := startServer(t, fixtureBackend(t)) // serves k=4
	topo := &Topology{Generation: 1, K: 3, Ranges: 1, Members: []string{addr}}
	dial := func(a string) (tables.Backend, error) { return Dial(a, nil) }
	if _, err := BuildFleet(topo, dial); !errors.Is(err, ErrTierMismatch) {
		t.Fatalf("depth-pinned topology accepted a k=4 member: %v", err)
	}
	topo.K = 4
	groups, err := BuildFleet(topo, dial)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		for _, b := range g {
			b.Close()
		}
	}

	bad := &Topology{Generation: 1, K: -1, Ranges: 1, Members: []string{addr}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative depth pin validated")
	}
}
