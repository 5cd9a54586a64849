package tablenet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/faultnet"
	"repro/internal/tables"
	"repro/internal/tablesio"
)

// This file proves the zero-downtime fleet contract end to end: split
// stores compose through the router byte-identically to local serving,
// miswired ownership is refused with typed errors (never wrong
// answers), topology swaps are atomic under load, draining shards shed
// new work without dropping accepted work, and a rolling restart of
// every shard under sustained queries loses nothing.

// loadSplitPartial cuts range i of n from res through the real store
// path — SaveFile, the SaveSplitFiles cut, then an AllowSplit load — so
// the tests exercise exactly what a shard process mounts.
func loadSplitPartial(t testing.TB, res *bfs.Result, n, i int) *tables.Partial {
	t.Helper()
	dir := t.TempDir()
	full := filepath.Join(dir, "full")
	split := func(j int) string { return filepath.Join(dir, fmt.Sprintf("split%d", j)) }
	if err := tablesio.SaveFile(full, res); err != nil {
		t.Fatal(err)
	}
	if err := tablesio.SaveSplitFiles(full, n, split); err != nil {
		t.Fatal(err)
	}
	p := split(i)
	sres, info, err := tablesio.LoadFile(p, bfs.GateAlphabet(), &tablesio.LoadOptions{AllowSplit: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Split == nil {
		t.Fatal("split store loaded without split metadata")
	}
	t.Cleanup(func() { sres.Frozen.Close() })
	part, err := tables.NewPartial(sres, info.Split)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// TestSplitFleetByteIdentity: a 2x2 fleet of 1/2-split stores, wired by
// topology assignment, answers every lookup and every level read
// byte-identically to the full local table.
func TestSplitFleetByteIdentity(t *testing.T) {
	res := fixtureTables(t)
	local := fixtureBackend(t)
	const ranges, repl = 2, 2
	var members []string
	for g := 0; g < ranges; g++ {
		for r := 0; r < repl; r++ {
			_, addr := startServer(t, loadSplitPartial(t, res, ranges, g))
			members = append(members, addr)
		}
	}
	topo := &Topology{Generation: 1, Ranges: ranges, Replication: repl, Members: members}
	groups, err := BuildFleet(topo, func(addr string) (tables.Backend, error) {
		return Dial(addr, &ClientOptions{Conns: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewReplicatedRouter(groups, RouterOptions{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	for g, reps := range groups {
		if len(reps) != repl {
			t.Fatalf("range %d got %d replicas, want %d (ownership filter broken)", g, len(reps), repl)
		}
	}
	if got, want := router.Meta().Entries, res.TotalStored(); got != want {
		t.Fatalf("fleet meta declares %d entries, table set has %d", got, want)
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	for c := 0; c <= res.MaxCost; c++ {
		lv := res.Level(c)
		keys := make([]uint64, lv.Len(), lv.Len()+8)
		for j := range keys {
			keys[j] = uint64(lv.At(j))
		}
		// A few keys the table does not hold, mixed in: absence must
		// also be identical.
		for j := 0; j < 8; j++ {
			keys = append(keys, rng.Uint64())
		}
		vals := make([]uint16, len(keys))
		found := make([]bool, len(keys))
		if err := router.LookupBatch(ctx, keys, vals, found); err != nil {
			t.Fatalf("level %d lookups: %v", c, err)
		}
		for j, k := range keys {
			want, wantOK := res.LookupRaw(k)
			if found[j] != wantOK || (wantOK && vals[j] != want) {
				t.Fatalf("key %#x: fleet (%#x, %v), local (%#x, %v)", k, vals[j], found[j], want, wantOK)
			}
		}
		got := make([]uint64, lv.Len())
		want := make([]uint64, lv.Len())
		if err := router.LevelKeys(ctx, c, 0, got); err != nil {
			t.Fatalf("level %d dense read: %v", c, err)
		}
		if err := local.LevelKeys(ctx, c, 0, want); err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("level %d position %d: fleet %#x, local %#x", c, j, got[j], want[j])
			}
		}
	}
	// A partial window (lo != 0) must merge back just as exactly.
	c := res.MaxCost
	if n := res.Level(c).Len(); n > 4 {
		got := make([]uint64, n-3)
		want := make([]uint64, n-3)
		if err := router.LevelKeys(ctx, c, 2, got); err != nil {
			t.Fatal(err)
		}
		if err := local.LevelKeys(ctx, c, 2, want); err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("windowed level read diverges at %d", j)
			}
		}
	}
}

// TestFleetOwnershipRejection: every way to wire a shard into a range
// it does not own must fail with ErrOwnership at wiring time — typed
// refusal, never wrong answers.
func TestFleetOwnershipRejection(t *testing.T) {
	res := fixtureTables(t)
	t.Run("miswired groups", func(t *testing.T) {
		p0 := loadSplitPartial(t, res, 2, 0)
		p1 := loadSplitPartial(t, res, 2, 1)
		// Ranges swapped: each shard wired into the other's range.
		_, err := NewReplicatedRouter([][]tables.Backend{{p1}, {p0}}, RouterOptions{ProbeInterval: -1})
		if !errors.Is(err, ErrOwnership) {
			t.Fatalf("swapped wiring: err = %v, want ErrOwnership", err)
		}
	})
	t.Run("over the wire", func(t *testing.T) {
		_, addr := startServer(t, loadSplitPartial(t, res, 2, 1))
		cl := dialClient(t, addr, &ClientOptions{Conns: 1})
		// One range = the full space; a half-owning shard cannot cover it.
		_, err := NewRouter([]tables.Backend{cl})
		if !errors.Is(err, ErrOwnership) {
			t.Fatalf("half shard wired as full space: err = %v, want ErrOwnership", err)
		}
	})
	t.Run("topology hole", func(t *testing.T) {
		_, a1 := startServer(t, loadSplitPartial(t, res, 2, 0))
		_, a2 := startServer(t, loadSplitPartial(t, res, 2, 0))
		topo := &Topology{Generation: 1, Ranges: 2, Members: []string{a1, a2}}
		_, err := BuildFleet(topo, func(addr string) (tables.Backend, error) {
			return Dial(addr, &ClientOptions{Conns: 1})
		})
		if !errors.Is(err, ErrOwnership) {
			t.Fatalf("no member owns range 1: err = %v, want ErrOwnership", err)
		}
	})
}

// TestClientReconnectOwnershipChange: a shard address that comes back
// owning a different range must be refused at reconnect — the client
// pinned the range it validated at first handshake.
func TestClientReconnectOwnershipChange(t *testing.T) {
	res := fixtureTables(t)
	p0 := loadSplitPartial(t, res, 2, 0)
	p1 := loadSplitPartial(t, res, 2, 1)
	srv0, err := NewServer(p0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	go srv0.Serve(l)
	cl := dialClient(t, addr, &ClientOptions{Conns: 1, Retry: fastRetry()})
	if lo, hi := cl.OwnedRange(); lo != 0 || hi != tables.RangeSpace/2 {
		t.Fatalf("pinned range [%#x, %#x)", lo, hi)
	}
	srv0.Close()

	// The same address comes back owning the OTHER half.
	srv1, err := NewServer(p1)
	if err != nil {
		t.Fatal(err)
	}
	var l2 net.Listener
	for i := 0; i < 50; i++ {
		if l2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	go srv1.Serve(l2)
	t.Cleanup(func() { srv1.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.Ping(ctx); !errors.Is(err, ErrOwnership) {
		t.Fatalf("reconnect across an ownership change: err = %v, want ErrOwnership", err)
	}
	if cl.OwnershipMismatches() == 0 {
		t.Fatal("ownership mismatch not counted")
	}
}

// TestRouterResidencyMixedFleet: Residency reports every replica of a
// fleet that mixes network and in-process replicas, labeled with its
// range — network replicas through concurrent ServerStats probes,
// in-process ones read directly, all into one result (run it under
// -race: the direct reads land while the probes are in flight).
func TestRouterResidencyMixedFleet(t *testing.T) {
	res := fixtureTables(t)
	part0, part1 := loadSplitPartial(t, res, 2, 0), loadSplitPartial(t, res, 2, 1)
	if _, _, ok := part0.Residency(); !ok {
		t.Skip("split store loaded without a mapping on this platform")
	}
	_, addr := startServer(t, part0)
	cl := dialClient(t, addr, &ClientOptions{Conns: 1})
	router, err := NewReplicatedRouter([][]tables.Backend{{cl, part0}, {part1}}, RouterOptions{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	got := router.Residency(context.Background())
	want := map[string]int{addr: 0, "local[1]": 0, "local[2]": 1}
	if len(got) != len(want) {
		t.Fatalf("Residency reported %d replicas, want %d: %+v", len(got), len(want), got)
	}
	for _, r := range got {
		if g, ok := want[r.Addr]; !ok || r.Range != g || r.MappedBytes == 0 {
			t.Fatalf("unexpected residency entry %+v (want ranges %v, mapped bytes > 0)", r, want)
		}
		delete(want, r.Addr)
	}
}

// countingBackend wraps a backend with lookup and level-read counters
// and a settable drain flag — the in-process stand-in for a shard client
// whose server announced draining. batchKeys sums the keys of multi-key
// batches: the meet-in-the-middle scan's traffic, without
// reconstruction's singles.
type countingBackend struct {
	tables.Backend
	draining   atomic.Bool
	lookups    atomic.Int64
	batchKeys  atomic.Int64
	levelReads atomic.Int64
}

func (b *countingBackend) Draining() bool { return b.draining.Load() }

func (b *countingBackend) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	b.lookups.Add(1)
	if len(keys) > 1 {
		b.batchKeys.Add(int64(len(keys)))
	}
	return b.Backend.LookupBatch(ctx, keys, vals, found)
}

func (b *countingBackend) LevelKeys(ctx context.Context, c, lo int, out []uint64) error {
	b.levelReads.Add(1)
	return b.Backend.LevelKeys(ctx, c, lo, out)
}

// TestDrainAwareRouting: once a replica announces draining, new
// sub-batches and dense level reads land on its siblings (and are
// counted as drain-rerouted); a fully-draining group still answers —
// draining beats dead.
func TestDrainAwareRouting(t *testing.T) {
	a := &countingBackend{Backend: fixtureBackend(t)}
	b := &countingBackend{Backend: fixtureBackend(t)}
	router, err := NewReplicatedRouter([][]tables.Backend{{a, b}}, RouterOptions{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	rng := rand.New(rand.NewSource(6))
	keys := testBatch(t, rng, 8)
	vals := make([]uint16, len(keys))
	found := make([]bool, len(keys))
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if err := router.LookupBatch(ctx, keys, vals, found); err != nil {
			t.Fatal(err)
		}
	}
	if a.lookups.Load() == 0 || b.lookups.Load() == 0 {
		t.Fatalf("rotation never spread load: a=%d b=%d", a.lookups.Load(), b.lookups.Load())
	}

	a.draining.Store(true)
	beforeA := a.lookups.Load()
	baseRerouted := router.DrainRerouted()
	for i := 0; i < 8; i++ {
		if err := router.LookupBatch(ctx, keys, vals, found); err != nil {
			t.Fatalf("query during drain: %v", err)
		}
	}
	if got := a.lookups.Load(); got != beforeA {
		t.Fatalf("draining replica served %d new sub-batches", got-beforeA)
	}
	if router.DrainRerouted() <= baseRerouted {
		t.Fatal("drain reroutes not counted")
	}

	// A full-store fleet serves level reads densely from one replica:
	// the draining one must serve none of them, and each is a reroute.
	out := make([]uint64, fixtureTables(t).LevelLen(2))
	beforeA = a.levelReads.Load()
	baseRerouted = router.DrainRerouted()
	for i := 0; i < 8; i++ {
		if err := router.LevelKeys(ctx, 2, 0, out); err != nil {
			t.Fatalf("level read during drain: %v", err)
		}
	}
	if got := a.levelReads.Load(); got != beforeA {
		t.Fatalf("draining replica served %d new level reads", got-beforeA)
	}
	if got := router.DrainRerouted() - baseRerouted; got != 8 {
		t.Fatalf("8 dense level reads counted %d drain reroutes, want 8", got)
	}

	// Every replica draining: the drain must not turn into an outage.
	b.draining.Store(true)
	if err := router.LookupBatch(ctx, keys, vals, found); err != nil {
		t.Fatalf("fully-draining group refused a query: %v", err)
	}
}

// TestRollingRestartChaos is the tentpole proof: a 2x2 split-store
// fleet behind a SwapBackend, queried continuously by concurrent
// workers, has every shard replaced one at a time (start replacement →
// swap topology → drain old → close old) — with faultnet delay jitter
// on every shard link — and not one query fails or returns a
// non-identical answer.
func TestRollingRestartChaos(t *testing.T) {
	res := fixtureTables(t)
	local := fixtureBackend(t)
	const ranges, repl = 2, 2

	parts := make([]*tables.Partial, ranges)
	for g := range parts {
		parts[g] = loadSplitPartial(t, res, ranges, g)
	}
	type shard struct {
		srv  *Server
		addr string
		rng  int
	}
	seed := int64(1)
	startShard := func(g int) *shard {
		srv, err := NewServer(parts[g])
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		seed++
		inj := faultnet.New(faultnet.Options{Seed: seed, Delay: 0.05, MaxDelay: 2 * time.Millisecond})
		go srv.Serve(inj.Listener(l))
		t.Cleanup(func() { srv.Close() })
		return &shard{srv: srv, addr: l.Addr().String(), rng: g}
	}
	shards := make([]*shard, 0, ranges*repl)
	for g := 0; g < ranges; g++ {
		for r := 0; r < repl; r++ {
			shards = append(shards, startShard(g))
		}
	}
	buildRouter := func(gen uint64) *Router {
		members := make([]string, len(shards))
		for i, s := range shards {
			members[i] = s.addr
		}
		topo := &Topology{Generation: gen, Ranges: ranges, Replication: repl, Members: members}
		groups, err := BuildFleet(topo, func(addr string) (tables.Backend, error) {
			return Dial(addr, &ClientOptions{Conns: 2, Retry: fastRetry()})
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReplicatedRouter(groups, RouterOptions{ProbeInterval: -1, EjectBase: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	swap := NewSwapBackend(buildRouter(1), 1)
	t.Cleanup(func() { swap.Close() })

	// The oracle: every stored key with its value, plus the dense level
	// images. Everything the fleet answers is checked against these.
	var checkKeys []uint64
	lvWant := make([][]uint64, res.MaxCost+1)
	for c := 0; c <= res.MaxCost; c++ {
		lv := res.Level(c)
		lvWant[c] = make([]uint64, lv.Len())
		for j := 0; j < lv.Len(); j++ {
			k := uint64(lv.At(j))
			lvWant[c][j] = 0
			checkKeys = append(checkKeys, k)
		}
		if err := local.LevelKeys(context.Background(), c, 0, lvWant[c]); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 4
	stop := make(chan struct{})
	var queries atomic.Int64
	var progress [workers]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			keys := make([]uint64, 32)
			vals := make([]uint16, 32)
			found := make([]bool, 32)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j := range keys {
					keys[j] = checkKeys[rng.Intn(len(checkKeys))]
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				err := swap.LookupBatch(ctx, keys, vals, found)
				cancel()
				queries.Add(1)
				if err != nil {
					t.Errorf("query dropped during roll: %v", err)
					return
				}
				for j, k := range keys {
					want, wantOK := res.LookupRaw(k)
					if found[j] != wantOK || vals[j] != want {
						t.Errorf("non-identical answer for %#x: (%#x, %v) want (%#x, %v)", k, vals[j], found[j], want, wantOK)
						return
					}
				}
				if rng.Intn(4) == 0 {
					c := rng.Intn(res.MaxCost + 1)
					out := make([]uint64, len(lvWant[c]))
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					err := swap.LevelKeys(ctx, c, 0, out)
					cancel()
					queries.Add(1)
					if err != nil {
						t.Errorf("level read dropped during roll: %v", err)
						return
					}
					for j := range out {
						if out[j] != lvWant[c][j] {
							t.Errorf("level %d diverged at %d during roll", c, j)
							return
						}
					}
				}
				progress[w].Add(1)
			}
		}(w, int64(100+w))
	}

	// awaitProgress blocks until every worker completes an iteration
	// begun after the call — i.e. until no query that predates the last
	// swap is still in flight on the superseded epoch.
	awaitProgress := func() {
		var snap [workers]int64
		for w := range snap {
			snap[w] = progress[w].Load()
		}
		deadline := time.Now().Add(30 * time.Second)
		for w := range snap {
			for progress[w].Load() < snap[w]+1 {
				if t.Failed() {
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("workers made no progress after a swap")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	// The roll: every shard, one at a time. The replacement joins the
	// topology first (swap), then the old shard drains and closes.
	gen := uint64(1)
	for slot := range shards {
		old := shards[slot]
		shards[slot] = startShard(old.rng)
		gen++
		r := buildRouter(gen)
		if err := swap.Swap(r, gen); err != nil {
			r.Close()
			t.Fatalf("swap to generation %d: %v", gen, err)
		}
		// Only drain the old shard once every query that might still be
		// running on the superseded topology has finished — the shard's
		// last sibling in that topology may already be gone.
		awaitProgress()
		if t.Failed() {
			break
		}
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := old.srv.Drain(dctx); err != nil {
			t.Errorf("drain of %s: %v", old.addr, err)
		}
		cancel()
		old.srv.Close()
		time.Sleep(30 * time.Millisecond) // sustained load between steps
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if swap.Generation() != gen {
		t.Fatalf("generation = %d, want %d", swap.Generation(), gen)
	}
	if n := queries.Load(); n < int64(len(shards)) {
		t.Fatalf("only %d queries ran across the roll", n)
	}
}

// TestSwapBackendCloseDuringSwapAndProber races queries, topology
// swaps, and Close against routers with live probers: queries must
// either succeed or fail ErrSwapClosed (nothing in between), a stale
// generation must be refused without closing the offered router, and
// nothing may leak a goroutine.
func TestSwapBackendCloseDuringSwapAndProber(t *testing.T) {
	local := fixtureBackend(t)
	before := runtime.NumGoroutine()

	mkServer := func() (*Server, string) {
		srv, err := NewServer(local)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		return srv, l.Addr().String()
	}
	srvA, addrA := mkServer()
	srvB, addrB := mkServer()

	mkRouter := func() *Router {
		var reps []tables.Backend
		for _, addr := range []string{addrA, addrB} {
			cl, err := Dial(addr, &ClientOptions{Conns: 1, CacheKeys: -1, LevelCacheBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, cl)
		}
		r, err := NewReplicatedRouter([][]tables.Backend{reps}, RouterOptions{ProbeInterval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	swap := NewSwapBackend(mkRouter(), 1)

	rng := rand.New(rand.NewSource(3))
	keys := testBatch(t, rng, 16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals := make([]uint16, len(keys))
			found := make([]bool, len(keys))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				err := swap.LookupBatch(ctx, keys, vals, found)
				cancel()
				if err != nil {
					if !errors.Is(err, ErrSwapClosed) {
						t.Errorf("query failed mid-swap: %v", err)
					}
					return
				}
			}
		}()
	}
	for gen := uint64(2); gen <= 5; gen++ {
		r := mkRouter()
		if err := swap.Swap(r, gen); err != nil {
			r.Close()
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A stale generation is refused and the offered router stays the
	// caller's — alive and usable.
	stale := mkRouter()
	if err := swap.Swap(stale, 5); err == nil {
		t.Fatal("stale generation accepted")
	}
	vals := make([]uint16, len(keys))
	found := make([]bool, len(keys))
	if err := stale.LookupBatch(context.Background(), keys, vals, found); err != nil {
		t.Fatalf("refused router was damaged: %v", err)
	}
	stale.Close()

	if err := swap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := swap.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := swap.LookupBatch(context.Background(), keys, vals, found); !errors.Is(err, ErrSwapClosed) {
		t.Fatalf("query after Close: err = %v, want ErrSwapClosed", err)
	}
	if err := swap.Swap(mkRouterAfterClose(t, swap), 99); !errors.Is(err, ErrSwapClosed) {
		t.Fatalf("swap after Close: err = %v, want ErrSwapClosed", err)
	}
	if g := swap.Generation(); g != 0 {
		t.Fatalf("generation after Close = %d", g)
	}
	srvA.Close()
	srvB.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: before %d, after %d\n%s", before, now, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// mkRouterAfterClose builds a throwaway in-process router for the
// swap-after-close probe and arranges its cleanup (the refused swap
// must not close it, so the test must).
func mkRouterAfterClose(t *testing.T, _ *SwapBackend) *Router {
	t.Helper()
	r, err := NewRouter([]tables.Backend{fixtureBackend(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestSwapRefusesForeignTableSet: a topology whose fleet serves a
// different table generation must be refused — cached results and
// in-flight queries assume one immutable table set.
func TestSwapRefusesForeignTableSet(t *testing.T) {
	swap := NewSwapBackend(mustRouter(t, fixtureBackend(t)), 1)
	t.Cleanup(func() { swap.Close() })
	other, err := bfs.Search(bfs.GateAlphabet(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	otherLocal, err := tables.NewLocal(other)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRouter(t, otherLocal)
	t.Cleanup(func() { r.Close() })
	if err := swap.Swap(r, 2); !errors.Is(err, ErrProtocol) {
		t.Fatalf("foreign table set swapped in: err = %v, want ErrProtocol", err)
	}
	if swap.Generation() != 1 {
		t.Fatalf("generation moved to %d on a refused swap", swap.Generation())
	}
}

func mustRouter(t *testing.T, b tables.Backend) *Router {
	t.Helper()
	r, err := NewRouter([]tables.Backend{b})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestStalledDrainingShardEjected: a shard that freezes mid-drain (the
// faultnet stall class: reads neither return nor error, deadlines
// useless) must not wedge the fleet — queries fail over, the breaker
// ejects it, and its Drain gives up at the caller's deadline instead
// of hanging forever.
func TestStalledDrainingShardEjected(t *testing.T) {
	local := fixtureBackend(t)
	srv0, err := NewServer(local)
	if err != nil {
		t.Fatal(err)
	}
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultnet.New(faultnet.Options{Seed: 11})
	go srv0.Serve(inj.Listener(l0))
	addr0 := l0.Addr().String()
	t.Cleanup(func() { srv0.Close() })
	_, addr1 := startServer(t, local)

	// Caches off: every query must cross the wire, or the stalled shard
	// would keep "answering" out of the client's lookup cache.
	copts := func() *ClientOptions {
		return &ClientOptions{Conns: 1, CacheKeys: -1, LevelCacheBytes: -1, Retry: RetryPolicy{
			MaxAttempts:    2,
			BaseBackoff:    time.Millisecond,
			MaxBackoff:     5 * time.Millisecond,
			AttemptTimeout: 100 * time.Millisecond,
			Seed:           1,
		}}
	}
	c0, err := Dial(addr0, copts())
	if err != nil {
		t.Fatal(err)
	}
	c1, err := Dial(addr1, copts())
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewReplicatedRouter([][]tables.Backend{{c0, c1}},
		RouterOptions{EjectAfter: 2, EjectBase: 500 * time.Millisecond, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	rng := rand.New(rand.NewSource(8))
	keys := testBatch(t, rng, 16)
	vals := make([]uint16, len(keys))
	found := make([]bool, len(keys))
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := router.LookupBatch(ctx, keys, vals, found)
		cancel()
		if err != nil {
			t.Fatalf("warmup query %d: %v", i, err)
		}
	}

	// Freeze every live connection into shard 0. The latch engages at
	// the next Read call, so cycle shard 0's handler through one more
	// request: it answers, loops, and freezes waiting for the next
	// opcode — a parked handler no deadline nudge can release.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := c0.LookupBatch(ctx, keys, vals, found); err != nil {
		t.Fatalf("pre-stall query on shard 0: %v", err)
	}
	cancel()
	inj.StallLive()
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	if err := c0.LookupBatch(ctx, keys, vals, found); err != nil {
		t.Fatalf("query cycling the stalled handler: %v", err)
	}
	cancel()

	// Now begin the drain: the frozen handler can never finish, so the
	// drain must wedge until its deadline — while the fleet keeps
	// answering.
	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		drainErr <- srv0.Drain(ctx)
	}()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := router.LookupBatch(ctx, keys, vals, found)
		cancel()
		if err != nil {
			t.Fatalf("query %d during stalled drain: %v", i, err)
		}
	}
	if err := <-drainErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain of a stalled shard: err = %v, want deadline exceeded", err)
	}
	ejected := false
	for _, h := range router.HealthStats() {
		if h.Addr == addr0 && h.State == "ejected" {
			ejected = true
		}
	}
	if !ejected {
		t.Fatalf("stalled draining shard not ejected: %+v", router.HealthStats())
	}
	if inj.Counts().Stalls == 0 {
		t.Fatal("stall latch never engaged")
	}
	// Close is the only thing that releases frozen handlers; it must
	// return promptly rather than inheriting the wedge.
	done := make(chan struct{})
	go func() { srv0.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged behind stalled connections")
	}
}

// TestTopologyValidateAndAssign covers the topology document's guard
// rails and the rendezvous layout's two load-bearing properties:
// determinism and minimal disruption under membership change.
func TestTopologyValidateAndAssign(t *testing.T) {
	bad := []string{
		`{"generation":1,"ranges":0,"members":["a"]}`,
		`{"generation":1,"ranges":2}`,
		`{"generation":1,"ranges":2,"members":["a","a"]}`,
		`{"generation":1,"ranges":2,"members":["a",""]}`,
		`{"generation":1,"ranges":3,"groups":[["a"],["b"]]}`,
		`{"generation":1,"groups":[["a"],[]]}`,
		`not json`,
	}
	for _, doc := range bad {
		if _, err := ParseTopology([]byte(doc)); err == nil {
			t.Fatalf("accepted invalid topology %s", doc)
		}
	}
	topo, err := ParseTopology([]byte(`{"generation":7,"ranges":4,"replication":2,"members":["m1","m2","m3","m4","m5"]}`))
	if err != nil {
		t.Fatal(err)
	}
	full := func(string) (uint64, uint64) { return 0, tables.RangeSpace }
	a1, err := topo.Assign(full)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := topo.Assign(full)
	if err != nil {
		t.Fatal(err)
	}
	for g := range a1 {
		if len(a1[g]) != 2 {
			t.Fatalf("range %d assigned %d replicas", g, len(a1[g]))
		}
		for i := range a1[g] {
			if a1[g][i] != a2[g][i] {
				t.Fatal("assignment is not deterministic")
			}
		}
	}
	// Remove one member: only ranges that had it may change.
	removed := "m3"
	var kept []string
	for _, m := range topo.Members {
		if m != removed {
			kept = append(kept, m)
		}
	}
	shrunk := &Topology{Generation: 8, Ranges: topo.Ranges, Replication: 2, Members: kept}
	a3, err := shrunk.Assign(full)
	if err != nil {
		t.Fatal(err)
	}
	for g := range a1 {
		had := false
		for _, m := range a1[g] {
			if m == removed {
				had = true
			}
		}
		if had {
			continue
		}
		for i := range a1[g] {
			if a1[g][i] != a3[g][i] {
				t.Fatalf("range %d reshuffled though %s was not in it: %v -> %v", g, removed, a1[g], a3[g])
			}
		}
	}
	// Pinned groups override everything.
	pinned, err := ParseTopology([]byte(`{"generation":9,"groups":[["x"],["y","z"]]}`))
	if err != nil {
		t.Fatal(err)
	}
	if pinned.NumRanges() != 2 {
		t.Fatalf("pinned ranges = %d", pinned.NumRanges())
	}
	ap, err := pinned.Assign(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(ap) != 2 || ap[0][0] != "x" || len(ap[1]) != 2 {
		t.Fatalf("pinned layout mangled: %v", ap)
	}
}
