package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/perm"
	"repro/internal/tables"
)

// The fixture table set is built once per test binary (k = 4: ≈7000
// classes, milliseconds) and injected into every service under test via
// Config.Tables, so the suite exercises serving, not repeated BFS.
var (
	fixtureOnce sync.Once
	fixtureRes  *bfs.Result
	fixtureErr  error
)

func fixtureTables(t testing.TB) *bfs.Result {
	fixtureOnce.Do(func() {
		fixtureRes, fixtureErr = bfs.Search(bfs.GateAlphabet(), 4, nil)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureRes
}

func randomCircuitPerm(rng *rand.Rand, n int) perm.Perm {
	c := make(circuit.Circuit, n)
	for i := range c {
		c[i] = gate.FromIndex(rng.Intn(gate.Count))
	}
	return c.Perm()
}

func randomPerm16(rng *rand.Rand) perm.Perm {
	vals := rng.Perm(16)
	p, err := perm.FromSlice(vals)
	if err != nil {
		panic(err)
	}
	return p
}

// TestServiceMatchesDirectSynthesis is the acceptance gate: ≥ 100 random
// permutations served through ≥ 8 concurrent clients must come back
// identical to direct core synthesis against the same frozen tables —
// same error status, same optimal cost, and the same gate sequence.
func TestServiceMatchesDirectSynthesis(t *testing.T) {
	res := fixtureTables(t)
	direct, err := core.FromResult(res, 0)
	if err != nil {
		t.Fatal(err)
	}

	svc, err := New(Config{Tables: res, QueryWorkers: 1, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())

	rng := rand.New(rand.NewSource(7))
	specs := make([]perm.Perm, 0, 120)
	for i := 0; i < 100; i++ {
		specs = append(specs, randomCircuitPerm(rng, rng.Intn(9)))
	}
	for i := 0; i < 20; i++ {
		// Uniform random 16-permutations are almost surely beyond the
		// k = 4 horizon: the error paths must agree too.
		specs = append(specs, randomPerm16(rng))
	}

	type want struct {
		c    circuit.Circuit
		cost int
		err  error
	}
	wants := make([]want, len(specs))
	for i, f := range specs {
		c, info, err := direct.SynthesizeInfo(f)
		wants[i] = want{c: c, cost: info.Cost, err: err}
	}

	const clients = 8
	var cursor atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				c, info, err := svc.Synthesize(context.Background(), specs[i])
				w := wants[i]
				switch {
				case (err == nil) != (w.err == nil):
					errCh <- fmt.Errorf("spec %v: error divergence: service %v, direct %v", specs[i], err, w.err)
					return
				case err != nil:
					if !errors.Is(err, core.ErrBeyondHorizon) {
						errCh <- fmt.Errorf("spec %v: unexpected error %v", specs[i], err)
						return
					}
				case info.Cost != w.cost:
					errCh <- fmt.Errorf("spec %v: cost %d, direct %d", specs[i], info.Cost, w.cost)
					return
				case !c.Equal(w.c):
					errCh <- fmt.Errorf("spec %v: circuit %v, direct %v", specs[i], c, w.c)
					return
				case c.Perm() != specs[i]:
					errCh <- fmt.Errorf("spec %v: circuit computes %v", specs[i], c.Perm())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestServiceLifecycleHammer exercises the full lifecycle under
// contention: clients hammer Synthesize/Size/Stats while the tables are
// still building (startup), during steady state, and across a graceful
// Close. Run with -race. Every error observed must be a lifecycle error
// (ErrClosed) or a context error, never a wrong answer or a panic.
func TestServiceLifecycleHammer(t *testing.T) {
	svc := NewAsync(Config{K: 3, Workers: 4, QueryWorkers: 1, CacheSize: 64})
	defer svc.Close(context.Background())

	rng := rand.New(rand.NewSource(11))
	specs := make([]perm.Perm, 32)
	for i := range specs {
		specs[i] = randomCircuitPerm(rng, rng.Intn(6))
	}
	expect := make(map[perm.Perm]int, len(specs))
	{
		direct, err := core.New(core.Config{K: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range specs {
			n, err := direct.Size(f)
			if err != nil {
				t.Fatalf("fixture spec %v beyond horizon", f)
			}
			expect[f] = n
		}
	}

	const clients = 8
	stopHammer := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stopHammer:
					return
				default:
				}
				f := specs[rng.Intn(len(specs))]
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				var got int
				var err error
				switch rng.Intn(3) {
				case 0:
					var info core.Info
					_, info, err = svc.Synthesize(ctx, f)
					got = info.Cost
				case 1:
					got, err = svc.Size(ctx, f)
				default:
					svc.Stats()
					cancel()
					continue
				}
				cancel()
				if err != nil {
					if errors.Is(err, ErrClosed) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
						continue
					}
					t.Errorf("unexpected error for %v: %v", f, err)
					failures.Add(1)
					return
				}
				if got != expect[f] {
					t.Errorf("size %d for %v, want %d", got, f, expect[f])
					failures.Add(1)
					return
				}
			}
		}(int64(w) + 100)
	}

	// Startup phase: the hammer goroutines above are already running
	// while the K = 3 build proceeds. Wait for readiness, let steady
	// state run, then close under load.
	if err := svc.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	close(stopHammer)
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d hammer failures", failures.Load())
	}
	// After a completed Close, every query must be rejected.
	if _, err := svc.Size(context.Background(), specs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close: err = %v, want ErrClosed", err)
	}
	st := svc.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight %d after close", st.InFlight)
	}
	if st.Queries == 0 || st.Direct+st.MITM+st.CacheHits == 0 {
		t.Fatalf("hammer recorded no served queries: %+v", st)
	}
}

// TestServiceContextCancellation cancels queries mid-scan and verifies
// the worker pool neither leaks goroutines nor slots: after the storm,
// the pool still serves and the goroutine count settles back.
func TestServiceContextCancellation(t *testing.T) {
	res := fixtureTables(t)
	svc, err := New(Config{Tables: res, Workers: 2, QueryWorkers: 2, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())

	before := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		// Uniform random permutations are (a.s.) beyond the k = 4
		// horizon, so the scan walks every level — plenty of time to
		// observe a cancellation that arrives mid-query.
		f := randomPerm16(rng)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, _, err := svc.Synthesize(ctx, f)
			done <- err
		}()
		time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		cancel()
		err := <-done
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, core.ErrBeyondHorizon) {
			t.Fatalf("query %d: unexpected error %v", i, err)
		}
	}
	// The pool must still have both slots: two instant queries in
	// parallel must both succeed.
	id := circuit.Circuit{gate.FromIndex(0)}.Perm()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Size(context.Background(), id); err != nil {
				t.Errorf("post-storm query: %v", err)
			}
		}()
	}
	wg.Wait()
	// Goroutines spawned by canceled parallel scans must drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before storm, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServiceCache(t *testing.T) {
	res := fixtureTables(t)
	svc, err := New(Config{Tables: res, QueryWorkers: 1, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())

	f := randomCircuitPerm(rand.New(rand.NewSource(5)), 4)
	first, _, err := svc.Synthesize(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := svc.Synthesize(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(second) {
		t.Fatalf("cached result differs: %v vs %v", first, second)
	}
	st := svc.Stats()
	if st.CacheHits == 0 {
		t.Fatalf("no cache hit recorded: %+v", st)
	}
	// Deterministic errors are cached too.
	hard := randomPerm16(rand.New(rand.NewSource(6)))
	for i := 0; i < 2; i++ {
		if _, _, err := svc.Synthesize(context.Background(), hard); !errors.Is(err, core.ErrBeyondHorizon) {
			t.Fatalf("want beyond-horizon, got %v", err)
		}
	}
	if got := svc.Stats().CacheHits; got < st.CacheHits+1 {
		t.Fatalf("beyond-horizon result not served from cache (hits %d)", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	a := perm.Perm(perm.Identity)
	c.put(a, nil, core.Info{Cost: 0}, nil, 0)
	b := randomCircuitPerm(rand.New(rand.NewSource(1)), 3)
	c.put(b, nil, core.Info{Cost: 1}, nil, 0)
	if _, _, _, ok := c.get(a); !ok {
		t.Fatal("a evicted too early")
	}
	// a is now most recent; inserting a third key must evict b.
	d := randomCircuitPerm(rand.New(rand.NewSource(2)), 5)
	c.put(d, nil, core.Info{Cost: 2}, nil, 0)
	if _, _, _, ok := c.get(b); ok {
		t.Fatal("b not evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}
}

// TestLRUTieredRetention: the escalation-aware policy — a deep-tier
// entry at the cold end is rotated back (spending a life) instead of
// evicted, so it outlives the shallow-tier churn around it, and the
// per-tier retention counters record both outcomes.
func TestLRUTieredRetention(t *testing.T) {
	c := newLRU(2)
	deep := randomCircuitPerm(rand.New(rand.NewSource(1)), 5)
	c.put(deep, nil, core.Info{Cost: 5}, nil, 2)
	shallow := perm.Perm(perm.Identity)
	c.put(shallow, nil, core.Info{}, nil, 0)
	// Inserting a third key finds the deep entry at the cold end: it
	// must be granted a second chance and the shallow one evicted.
	next := randomCircuitPerm(rand.New(rand.NewSource(2)), 3)
	c.put(next, nil, core.Info{Cost: 3}, nil, 0)
	if _, _, _, ok := c.get(deep); !ok {
		t.Fatal("deep-tier entry evicted before a shallow one")
	}
	if _, _, _, ok := c.get(shallow); ok {
		t.Fatal("shallow-tier entry survived a deep one")
	}
	retained, evicted := c.retentionStats()
	if len(retained) < 3 || retained[2] != 1 {
		t.Fatalf("retained = %v, want one second chance at tier 2", retained)
	}
	if evicted[0] != 1 {
		t.Fatalf("evicted = %v, want one tier-0 eviction", evicted)
	}
	// Untouched, the deep entry's lives run out under continued churn:
	// it must eventually be evicted (no permanent pinning).
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		c.put(randomCircuitPerm(rng, 4), nil, core.Info{Cost: 4}, nil, 0)
	}
	if _, _, _, ok := c.get(deep); ok {
		t.Fatal("deep-tier entry pinned forever")
	}
	if _, evicted := c.retentionStats(); len(evicted) < 3 || evicted[2] != 1 {
		t.Fatalf("evicted = %v, want the deep entry's final eviction at tier 2", evicted)
	}
}

// tieredBackend wraps a backend with a static cost→tier map, standing
// in for a tablenet.Federation in retention tests.
type tieredBackend struct {
	tables.Backend
	horizons []int
}

func (b *tieredBackend) TierForCost(cost int) int {
	for i, h := range b.horizons {
		if cost <= h {
			return i
		}
	}
	return len(b.horizons) - 1
}

// TestServiceTieredCacheRetention: end to end through the service —
// with a tier-resolving backend, answers that needed the deep tier
// outlive shallow-tier churn in the result cache, and the per-tier
// retention counters surface in Stats.
func TestServiceTieredCacheRetention(t *testing.T) {
	res := fixtureTables(t)
	b, err := tables.NewLocal(res)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{
		Backend:      &tieredBackend{Backend: b, horizons: []int{1, 2, 100}},
		QueryWorkers: 1,
		CacheSize:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())

	// A cost-4 representative resolves to tier 2 (two retention lives);
	// identity and cost-1 representatives to tier 0.
	deep := res.Level(4).At(0)
	if _, info, err := svc.Synthesize(context.Background(), deep); err != nil {
		t.Fatal(err)
	} else if got := svc.cacheTier(info, nil); got != 2 {
		t.Fatalf("deep query resolved to tier %d (cost %d), want 2", got, info.Cost)
	}
	// Flood with cheap queries; the deep answer must still be a cache
	// hit afterwards (capacity 2 with plain LRU would have evicted it).
	cheap := []perm.Perm{perm.Perm(perm.Identity), res.Level(1).At(0), res.Level(1).At(1)}
	for _, f := range cheap {
		if _, _, err := svc.Synthesize(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	before := svc.Stats().CacheHits
	if _, _, err := svc.Synthesize(context.Background(), deep); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.CacheHits != before+1 {
		t.Fatalf("deep-tier answer was evicted by shallow churn (hits %d → %d)", before, st.CacheHits)
	}
	if len(st.CacheRetainedByTier) < 3 || st.CacheRetainedByTier[2] == 0 {
		t.Fatalf("CacheRetainedByTier = %v, want tier-2 second chances", st.CacheRetainedByTier)
	}
	if len(st.CacheEvictedByTier) == 0 || st.CacheEvictedByTier[0] == 0 {
		t.Fatalf("CacheEvictedByTier = %v, want tier-0 evictions", st.CacheEvictedByTier)
	}
}

func TestServiceBatch(t *testing.T) {
	res := fixtureTables(t)
	svc, err := New(Config{Tables: res, QueryWorkers: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())

	rng := rand.New(rand.NewSource(9))
	specs := make([]perm.Perm, 40)
	for i := range specs {
		if i%10 == 9 {
			specs[i] = randomPerm16(rng) // sprinkle beyond-horizon items
		} else {
			specs[i] = randomCircuitPerm(rng, rng.Intn(8))
		}
	}
	results := svc.SynthesizeAll(context.Background(), specs)
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for i, r := range results {
		c, info, err := svc.Synthesize(context.Background(), specs[i])
		if (err == nil) != (r.Err == nil) {
			t.Fatalf("item %d: batch err %v, single err %v", i, r.Err, err)
		}
		if err != nil {
			continue
		}
		if r.Info.Cost != info.Cost || !r.Circuit.Equal(c) {
			t.Fatalf("item %d: batch %v (%d), single %v (%d)", i, r.Circuit, r.Info.Cost, c, info.Cost)
		}
	}
}

func TestServiceTablesPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k2.tables")
	svc, err := New(Config{K: 2, TablesPath: path, QueryWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := randomCircuitPerm(rand.New(rand.NewSource(4)), 3)
	wantSize, err := svc.Size(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close(context.Background())
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("tables not persisted: %v", err)
	}

	// Second service must load the persisted file and agree.
	svc2, err := New(Config{K: 2, TablesPath: path, QueryWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close(context.Background())
	got, err := svc2.Size(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if got != wantSize {
		t.Fatalf("reloaded size %d, want %d", got, wantSize)
	}

	// A corrupt table store must fail startup loudly, not rebuild.
	if err := os.WriteFile(path, []byte("RVT1 garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{K: 2, TablesPath: path}); err == nil {
		t.Fatal("corrupt table store silently accepted")
	}
}

// TestServiceTableAcquisitionStats pins the serving-observability
// contract: Stats reports how the tables were acquired, their byte
// footprint, and a load duration, for each acquisition path.
func TestServiceTableAcquisitionStats(t *testing.T) {
	svc, err := New(Config{Tables: fixtureTables(t), QueryWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	svc.Close(context.Background())
	if st.TableFormat != "injected" {
		t.Fatalf("injected tables report format %q", st.TableFormat)
	}
	if st.TableBytes <= 0 {
		t.Fatalf("injected tables report %d bytes", st.TableBytes)
	}

	path := filepath.Join(t.TempDir(), "k3.tables")
	built, err := New(Config{K: 3, TablesPath: path, QueryWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st = built.Stats()
	built.Close(context.Background())
	if st.TableFormat != "built" {
		t.Fatalf("fresh build reports format %q", st.TableFormat)
	}

	loaded, err := New(Config{K: 3, TablesPath: path, QueryWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close(context.Background())
	st = loaded.Stats()
	if st.TableFormat != "v2+mmap" && st.TableFormat != "v2" {
		t.Fatalf("persisted store reports format %q, want a v2 path", st.TableFormat)
	}
	if st.TableBytes <= 0 || st.TableEntries == 0 {
		t.Fatalf("loaded store reports %d bytes / %d entries", st.TableBytes, st.TableEntries)
	}
	// The zero-copy path must still answer queries identically to the
	// builder it replaced.
	f := randomCircuitPerm(rand.New(rand.NewSource(9)), 3)
	want, err := built.Core().Synthesize(f)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := loaded.Synthesize(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("mmap-served circuit %v differs from built %v", got, want)
	}
}

func TestServiceDefaultTimeout(t *testing.T) {
	res := fixtureTables(t)
	svc, err := New(Config{Tables: res, DefaultTimeout: time.Nanosecond, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	// Beyond-horizon queries scan everything, so a nanosecond budget
	// must trip the deadline.
	f := randomPerm16(rand.New(rand.NewSource(8)))
	if _, _, err := svc.Synthesize(context.Background(), f); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if svc.Stats().Canceled == 0 {
		t.Fatal("timeout not counted")
	}
}

func TestServiceStatsShape(t *testing.T) {
	res := fixtureTables(t)
	svc, err := New(Config{Tables: res, QueryWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	st := svc.Stats()
	if !st.Ready || st.K != 4 || st.TableEntries == 0 || st.Workers < 1 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

func TestServiceLatencyHistogram(t *testing.T) {
	res := fixtureTables(t)
	svc, err := New(Config{Tables: res, QueryWorkers: 1, CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())

	f := randomCircuitPerm(rand.New(rand.NewSource(7)), 4)
	// Two queries: a miss and a cache hit — the histogram must see both.
	for i := 0; i < 2; i++ {
		if _, _, err := svc.Synthesize(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if want := len(LatencyBucketBounds) + 1; len(st.LatencyBuckets) != want {
		t.Fatalf("len(LatencyBuckets) = %d, want %d", len(st.LatencyBuckets), want)
	}
	var total uint64
	for _, c := range st.LatencyBuckets {
		total += c
	}
	if total != st.Queries {
		t.Fatalf("histogram count %d != queries %d: every query must be observed", total, st.Queries)
	}
	if st.LatencySum <= 0 {
		t.Fatalf("LatencySum = %v, want positive", st.LatencySum)
	}
	if st.Waiting != 0 {
		t.Fatalf("Waiting = %d at rest, want 0", st.Waiting)
	}
}
