package tablenet

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/perm"
	"repro/internal/tables"
)

// This file is the robustness contract's proof: every fault class the
// faultnet injector can produce — delays, resets, torn frames, dropped
// (blackholed) writes, corrupted bytes, refused connections — is driven
// against live servers, and the observable behaviour must be one of
// exactly two things: answers byte-identical to local serving, or a
// clean typed error within the caller's deadline. Never a wrong
// answer, never a hang.

// startFaultServer serves a backend through a fault injector and
// returns the injector and the address.
func startFaultServer(t testing.TB, b tables.Backend, opts faultnet.Options) (*faultnet.Injector, string) {
	t.Helper()
	srv, err := NewServer(b)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultnet.New(opts)
	go srv.Serve(inj.Listener(l))
	t.Cleanup(func() { srv.Close() })
	return inj, l.Addr().String()
}

// fastRetry is the test policy: same shape as production, milliseconds
// instead of tens of milliseconds, fixed jitter seed.
func fastRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    6,
		Budget:         24,
		BaseBackoff:    2 * time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		AttemptTimeout: 500 * time.Millisecond,
		Seed:           1,
	}
}

// dialFaulty dials through a fault schedule: the handshake itself may
// be faulted, so the dial (which deliberately does not retry — it is
// the validation step) is retried by the test instead.
func dialFaulty(t testing.TB, addr string, opts *ClientOptions) *Client {
	t.Helper()
	var lastErr error
	for i := 0; i < 50; i++ {
		cl, err := Dial(addr, opts)
		if err == nil {
			t.Cleanup(func() { cl.Close() })
			return cl
		}
		lastErr = err
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("dial through faults never succeeded: %v", lastErr)
	return nil
}

// testBatch builds a key batch mixing real table keys with random
// permutations (some present, some absent).
func testBatch(t testing.TB, rng *rand.Rand, n int) []uint64 {
	res := fixtureTables(t)
	keys := make([]uint64, n)
	for i := range keys {
		if rng.Intn(2) == 0 {
			lv := res.Level(1 + rng.Intn(res.MaxCost))
			keys[i] = uint64(lv.At(rng.Intn(lv.Len())))
		} else {
			keys[i] = uint64(randomPerm16(rng))
		}
	}
	return keys
}

// TestFaultMatrixLookupsIdentical drives batched lookups through every
// fault class and requires the answers to stay byte-identical to the
// local backend. The injector counters prove each class actually
// fired.
func TestFaultMatrixLookupsIdentical(t *testing.T) {
	local := fixtureBackend(t)
	cases := []struct {
		name  string
		opts  faultnet.Options
		fired func(faultnet.Counts) uint64
	}{
		{"delay", faultnet.Options{Seed: 11, Delay: 0.5, MaxDelay: 2 * time.Millisecond}, func(c faultnet.Counts) uint64 { return c.Delays }},
		{"reset", faultnet.Options{Seed: 12, Reset: 0.05}, func(c faultnet.Counts) uint64 { return c.Resets }},
		{"torn-write", faultnet.Options{Seed: 13, TornWrite: 0.08}, func(c faultnet.Counts) uint64 { return c.TornWrites }},
		{"corrupt", faultnet.Options{Seed: 14, Corrupt: 0.08}, func(c faultnet.Counts) uint64 { return c.Corruptions }},
		{"drop", faultnet.Options{Seed: 15, Drop: 0.05}, func(c faultnet.Counts) uint64 { return c.Drops }},
		{"mixed", faultnet.Options{Seed: 16, Reset: 0.02, TornWrite: 0.02, Drop: 0.02, Corrupt: 0.02, Delay: 0.2, MaxDelay: time.Millisecond},
			func(c faultnet.Counts) uint64 { return c.Resets + c.TornWrites + c.Drops + c.Corruptions + c.Delays }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj, addr := startFaultServer(t, local, tc.opts)
			// Caches off so every batch rides the wire through the faults.
			cl := dialFaulty(t, addr, &ClientOptions{Retry: fastRetry(), CacheKeys: -1, LevelCacheBytes: -1})
			rng := rand.New(rand.NewSource(99))
			for round := 0; round < 30; round++ {
				keys := testBatch(t, rng, 64)
				wantVals, wantOK := make([]uint16, len(keys)), make([]bool, len(keys))
				if err := local.LookupBatch(context.Background(), keys, wantVals, wantOK); err != nil {
					t.Fatal(err)
				}
				gotVals, gotOK := make([]uint16, len(keys)), make([]bool, len(keys))
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				err := cl.LookupBatch(ctx, keys, gotVals, gotOK)
				cancel()
				if err != nil {
					t.Fatalf("round %d: lookup through %s faults failed: %v", round, tc.name, err)
				}
				for i := range keys {
					if gotVals[i] != wantVals[i] || gotOK[i] != wantOK[i] {
						t.Fatalf("round %d key %d: got (%d,%v), local (%d,%v) — WRONG ANSWER under %s faults",
							round, i, gotVals[i], gotOK[i], wantVals[i], wantOK[i], tc.name)
					}
				}
			}
			if tc.fired(inj.Counts()) == 0 {
				t.Fatalf("%s schedule never fired: %+v", tc.name, inj.Counts())
			}
		})
	}
}

// TestFaultySynthesisIdentical runs the full query engine over a
// faulty wire and requires byte-identical circuits to local synthesis
// — the end-to-end form of the matrix above.
func TestFaultySynthesisIdentical(t *testing.T) {
	res := fixtureTables(t)
	inj, addr := startFaultServer(t, fixtureBackend(t), faultnet.Options{
		Seed: 21, Reset: 0.02, TornWrite: 0.02, Drop: 0.01, Corrupt: 0.02, Delay: 0.2, MaxDelay: time.Millisecond,
	})
	cl := dialFaulty(t, addr, &ClientOptions{Retry: fastRetry()})

	localSynth, err := core.FromResult(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	localSynth.SetWorkers(1)
	remoteSynth, err := core.FromBackend(cl, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 24; i++ {
		var f perm.Perm
		if i%5 == 4 {
			f = randomPerm16(rng)
		} else {
			f = randomCircuitPerm(rng, 1+rng.Intn(8))
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		wantC, wantInfo, wantErr := localSynth.SynthesizeInfoCtx(ctx, f)
		gotC, gotInfo, gotErr := remoteSynth.SynthesizeInfoCtx(ctx, f)
		cancel()
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("spec %d: local err %v, faulty-wire err %v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if wantInfo.Cost != gotInfo.Cost || wantC.String() != gotC.String() {
			t.Fatalf("spec %d: faulty wire synthesized %v (cost %d), local %v (cost %d)",
				i, gotC, gotInfo.Cost, wantC, wantInfo.Cost)
		}
	}
	if c := inj.Counts(); c.Resets+c.TornWrites+c.Drops+c.Corruptions == 0 {
		t.Fatalf("fault schedule never fired: %+v", c)
	}
}

// TestShardKillUnavailableThenRecovery: a SIGKILLed shard yields a
// clean ErrUnavailable after the retry budget — well inside the
// caller's deadline — and the same client recovers without rebuild
// once the shard returns.
func TestShardKillUnavailableThenRecovery(t *testing.T) {
	local := fixtureBackend(t)
	inj, addr := startFaultServer(t, local, faultnet.Options{})
	cl := dialFaulty(t, addr, &ClientOptions{Conns: 1, Retry: fastRetry(), CacheKeys: -1, LevelCacheBytes: -1})
	rng := rand.New(rand.NewSource(3))
	keys := testBatch(t, rng, 32)
	vals, ok := make([]uint16, len(keys)), make([]bool, len(keys))

	if err := cl.LookupBatch(context.Background(), keys, vals, ok); err != nil {
		t.Fatalf("healthy lookup: %v", err)
	}

	inj.SetRefuse(true)
	inj.KillLive()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	start := time.Now()
	err := cl.LookupBatch(ctx, keys, vals, ok)
	elapsed := time.Since(start)
	cancel()
	if err == nil {
		t.Fatal("lookup against a killed shard reported success")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("killed shard surfaced %v, want ErrUnavailable", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("failure took %v, budget should cap it well under the deadline", elapsed)
	}

	// The shard comes back; the next request dials fresh and succeeds —
	// dial-fail → backoff → recovery inside one retry loop.
	inj.SetRefuse(false)
	recoverCtx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer rcancel()
	var rerr error
	go func() {
		time.Sleep(30 * time.Millisecond) // flip mid-loop is covered elsewhere; here just recover
	}()
	for i := 0; i < 50; i++ {
		if rerr = cl.LookupBatch(recoverCtx, keys, vals, ok); rerr == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rerr != nil {
		t.Fatalf("client did not recover after shard returned: %v", rerr)
	}
	wantVals, wantOK := make([]uint16, len(keys)), make([]bool, len(keys))
	if err := local.LookupBatch(context.Background(), keys, wantVals, wantOK); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if vals[i] != wantVals[i] || ok[i] != wantOK[i] {
			t.Fatalf("post-recovery answer diverged at key %d", i)
		}
	}
}

// TestDeadlinePropagation: when the query deadline is the binding
// constraint (a generous retry policy against a dead shard), the
// caller gets context.DeadlineExceeded promptly — the ctx cause, not a
// transport symptom, and never a hang.
func TestDeadlinePropagation(t *testing.T) {
	inj, addr := startFaultServer(t, fixtureBackend(t), faultnet.Options{})
	cl := dialFaulty(t, addr, &ClientOptions{Conns: 1, CacheKeys: -1, LevelCacheBytes: -1,
		Retry: RetryPolicy{MaxAttempts: 100, Budget: 1000, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Seed: 1}})
	inj.SetRefuse(true)
	inj.KillLive()
	rng := rand.New(rand.NewSource(4))
	keys := testBatch(t, rng, 8)
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := cl.LookupBatch(ctx, keys, make([]uint16, len(keys)), make([]bool, len(keys)))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline of 250ms honoured only after %v", elapsed)
	}
}

// TestMidBatchConnReset: a pooled connection reset between batches (and
// under the batch, via KillLive) is absorbed by the retry path with
// byte-identical results.
func TestMidBatchConnReset(t *testing.T) {
	local := fixtureBackend(t)
	inj, addr := startFaultServer(t, local, faultnet.Options{})
	cl := dialFaulty(t, addr, &ClientOptions{Conns: 2, Retry: fastRetry(), CacheKeys: -1, LevelCacheBytes: -1})
	rng := rand.New(rand.NewSource(6))
	for round := 0; round < 10; round++ {
		keys := testBatch(t, rng, 48)
		wantVals, wantOK := make([]uint16, len(keys)), make([]bool, len(keys))
		if err := local.LookupBatch(context.Background(), keys, wantVals, wantOK); err != nil {
			t.Fatal(err)
		}
		inj.KillLive() // every pooled conn dies between (or under) batches
		gotVals, gotOK := make([]uint16, len(keys)), make([]bool, len(keys))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := cl.LookupBatch(ctx, keys, gotVals, gotOK)
		cancel()
		if err != nil {
			t.Fatalf("round %d: reset mid-stream not absorbed: %v", round, err)
		}
		for i := range keys {
			if gotVals[i] != wantVals[i] || gotOK[i] != wantOK[i] {
				t.Fatalf("round %d: answer diverged at key %d after reset", round, i)
			}
		}
	}
}

// TestReplicatedRouterFailover is the tentpole end-to-end: 2 hash
// ranges × 2 replicas, one replica SIGKILLed — lookups stay
// byte-identical (failover), the health tracker ejects the dead
// replica, /healthz semantics read degraded-not-down, a fully dead
// range turns the fleet down, and the prober re-admits the replica
// when it returns.
func TestReplicatedRouterFailover(t *testing.T) {
	local := fixtureBackend(t)
	type rep struct {
		inj  *faultnet.Injector
		addr string
	}
	var reps [4]rep
	for i := range reps {
		inj, addr := startFaultServer(t, local, faultnet.Options{})
		reps[i] = rep{inj, addr}
	}
	copts := &ClientOptions{Conns: 2, CacheKeys: -1, LevelCacheBytes: -1,
		Retry: RetryPolicy{MaxAttempts: 2, Budget: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, AttemptTimeout: 500 * time.Millisecond, Seed: 1}}
	groups := make([][]tables.Backend, 2)
	for g := 0; g < 2; g++ {
		for i := 0; i < 2; i++ {
			groups[g] = append(groups[g], dialFaulty(t, reps[2*g+i].addr, copts))
		}
	}
	router, err := NewReplicatedRouter(groups, RouterOptions{
		EjectAfter: 2, EjectBase: 50 * time.Millisecond, EjectMax: 200 * time.Millisecond,
		ProbeInterval: 25 * time.Millisecond, ProbeTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if router.Meta().Source != "router(2 x4)" {
		t.Fatalf("meta source = %q", router.Meta().Source)
	}

	rng := rand.New(rand.NewSource(8))
	checkIdentical := func(tag string) {
		t.Helper()
		keys := testBatch(t, rng, 96)
		wantVals, wantOK := make([]uint16, len(keys)), make([]bool, len(keys))
		if err := local.LookupBatch(context.Background(), keys, wantVals, wantOK); err != nil {
			t.Fatal(err)
		}
		gotVals, gotOK := make([]uint16, len(keys)), make([]bool, len(keys))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := router.LookupBatch(ctx, keys, gotVals, gotOK); err != nil {
			t.Fatalf("%s: routed lookup failed: %v", tag, err)
		}
		for i := range keys {
			if gotVals[i] != wantVals[i] || gotOK[i] != wantOK[i] {
				t.Fatalf("%s: routed answer diverged at key %d", tag, i)
			}
		}
	}

	checkIdentical("healthy fleet")

	// SIGKILL replica 0 of range 0.
	reps[0].inj.SetRefuse(true)
	reps[0].inj.KillLive()
	for round := 0; round < 8; round++ {
		checkIdentical("one replica down")
	}

	// The tracker must have ejected it by now (EjectAfter=2 and the
	// rounds above hit it repeatedly whenever rotation picked it first).
	ejected := false
	for _, h := range router.HealthStats() {
		if h.Addr == reps[0].addr && h.State != "healthy" && h.Ejections > 0 {
			ejected = true
		}
	}
	if !ejected {
		t.Fatalf("dead replica never ejected: %+v", router.HealthStats())
	}

	// Degraded, not down: every range still has a live replica.
	fh := router.Health(context.Background())
	if !fh.Degraded || fh.Down() {
		t.Fatalf("one dead replica: degraded=%v down=%v, want degraded, not down", fh.Degraded, fh.Down())
	}

	// Kill its sibling too: range 0 is now dark — loud typed failure
	// naming the range, and the fleet reads down.
	reps[1].inj.SetRefuse(true)
	reps[1].inj.KillLive()
	keys := testBatch(t, rng, 96)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	err = router.LookupBatch(ctx, keys, make([]uint16, len(keys)), make([]bool, len(keys)))
	cancel()
	if err == nil {
		t.Fatal("batch spanning a dark range reported success")
	}
	if !strings.Contains(err.Error(), "replicas failed") {
		t.Fatalf("dark-range error does not name the failure: %v", err)
	}
	fh = router.Health(context.Background())
	if !fh.Down() || len(fh.DownRanges) != 1 || fh.DownRanges[0] != 0 {
		t.Fatalf("dark range 0 not reported down: %+v", fh.DownRanges)
	}

	// Both replicas return; the background prober re-admits them and
	// full service resumes.
	reps[0].inj.SetRefuse(false)
	reps[1].inj.SetRefuse(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		keys := testBatch(t, rng, 64)
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		err := router.LookupBatch(ctx, keys, make([]uint16, len(keys)), make([]bool, len(keys)))
		cancel()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never recovered after replicas returned: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	checkIdentical("recovered fleet")
}

// TestRouterLevelFailoverNamesReplicas: a level read with every replica
// dead fails with an error naming each failing replica address
// (operators grep this line first).
func TestRouterLevelFailoverNamesReplicas(t *testing.T) {
	local := fixtureBackend(t)
	inj1, addr1 := startFaultServer(t, local, faultnet.Options{})
	inj2, addr2 := startFaultServer(t, local, faultnet.Options{})
	copts := &ClientOptions{Conns: 1, CacheKeys: -1, LevelCacheBytes: -1,
		Retry: RetryPolicy{MaxAttempts: 2, Budget: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 1}}
	cl1 := dialFaulty(t, addr1, copts)
	cl2 := dialFaulty(t, addr2, copts)
	router, err := NewReplicatedRouter([][]tables.Backend{{cl1, cl2}}, RouterOptions{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	for _, inj := range []*faultnet.Injector{inj1, inj2} {
		inj.SetRefuse(true)
		inj.KillLive()
	}
	out := make([]uint64, fixtureTables(t).LevelLen(1))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	lerr := router.LevelKeys(ctx, 1, 0, out)
	if lerr == nil {
		t.Fatal("level read with all replicas dead reported success")
	}
	for _, addr := range []string{addr1, addr2} {
		if !strings.Contains(lerr.Error(), addr) {
			t.Fatalf("all-replicas-failed error does not name %s: %v", addr, lerr)
		}
	}
}

// TestRouterCheckBoundedByProbeTimeout: a replica that blackholes its
// responses must not stall Check past the per-probe timeout.
func TestRouterCheckBoundedByProbeTimeout(t *testing.T) {
	local := fixtureBackend(t)
	// Every post-handshake response dropped: pings are received and
	// never answered — the stalling case per-probe timeouts exist for.
	_, addr := startFaultServer(t, local, faultnet.Options{Seed: 31, Drop: 1, SkipOps: 1})
	_, addrOK := startFaultServer(t, local, faultnet.Options{})
	copts := &ClientOptions{Conns: 1, CacheKeys: -1, LevelCacheBytes: -1,
		Retry: RetryPolicy{MaxAttempts: 1, Budget: 1, Seed: 1}}
	cl := dialFaulty(t, addr, copts)
	clOK := dialFaulty(t, addrOK, copts)
	router, err := NewReplicatedRouter([][]tables.Backend{{cl, clOK}},
		RouterOptions{ProbeInterval: -1, ProbeTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	start := time.Now()
	statuses := router.Check(context.Background())
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("Check took %v against a blackholed replica, want ≲ probe timeout", elapsed)
	}
	var stalled, healthy bool
	for _, st := range statuses {
		if st.Addr == addr && st.Err != nil {
			stalled = true
		}
		if st.Addr == addrOK && st.Err == nil {
			healthy = true
		}
	}
	if !stalled || !healthy {
		t.Fatalf("statuses misreported: %+v", statuses)
	}
}

// TestRetryLeavesNoGoroutines: a client hammered through failures and
// recovery, and a router with a live prober, must not leak goroutines
// after Close.
func TestRetryLeavesNoGoroutines(t *testing.T) {
	local := fixtureBackend(t)
	before := runtime.NumGoroutine()

	srv, err := NewServer(local)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultnet.New(faultnet.Options{Seed: 41, Reset: 0.1, TornWrite: 0.1})
	go srv.Serve(inj.Listener(l))
	addr := l.Addr().String()

	cl, err := Dial(addr, &ClientOptions{Conns: 2, Retry: fastRetry(), CacheKeys: -1, LevelCacheBytes: -1})
	for i := 0; err != nil && i < 50; i++ {
		time.Sleep(5 * time.Millisecond)
		cl, err = Dial(addr, &ClientOptions{Conns: 2, Retry: fastRetry(), CacheKeys: -1, LevelCacheBytes: -1})
	}
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewReplicatedRouter([][]tables.Backend{{cl}},
		RouterOptions{ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 10; round++ {
		keys := testBatch(t, rng, 32)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		router.LookupBatch(ctx, keys, make([]uint16, len(keys)), make([]bool, len(keys)))
		cancel()
		if round == 5 {
			inj.KillLive()
		}
	}
	if err := router.Close(); err != nil {
		t.Logf("router close: %v", err)
	}
	srv.Close()

	// Goroutine counts settle asynchronously (conn teardown, timer
	// goroutines); poll instead of asserting instantly.
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

// BenchmarkReplicaFailover prices fault tolerance: batched-lookup
// latency through a replicated router over 2 hash ranges × 2 replicas
// on loopback, healthy versus with one replica of range 0 closed right
// before the timed rounds. One round is one 64-key LookupBatch, half
// real table keys and half random permutations. The degraded p99
// carries the failover tail (the failed attempt, the retry backoff,
// the sibling, the breaker ejecting the dead replica); its p50 is the
// steady state once the breaker routes around it. The prober stays off
// so the distribution is purely traffic-driven. Client caches are off:
// every round crosses the wire.
func BenchmarkReplicaFailover(b *testing.B) {
	local := fixtureBackend(b)
	keys := testBatch(b, rand.New(rand.NewSource(11)), 64)
	copts := &ClientOptions{CacheKeys: -1, LevelCacheBytes: -1,
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond, AttemptTimeout: time.Second, Seed: 1}}
	for _, tc := range []struct {
		name    string
		killOne bool
	}{{"healthy", false}, {"replica-down", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var killed *Server
			groups := make([][]tables.Backend, 2)
			for g := range groups {
				for r := 0; r < 2; r++ {
					srv, addr := startServer(b, local)
					if g == 0 && r == 0 {
						killed = srv
					}
					groups[g] = append(groups[g], dialClient(b, addr, copts))
				}
			}
			router, err := NewReplicatedRouter(groups, RouterOptions{ProbeInterval: -1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { router.Close() })
			ctx := context.Background()
			vals, found := make([]uint16, len(keys)), make([]bool, len(keys))
			if err := router.LookupBatch(ctx, keys, vals, found); err != nil { // warm the conns
				b.Fatal(err)
			}
			if tc.killOne {
				killed.Close()
			}
			durs := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range durs {
				start := time.Now()
				if err := router.LookupBatch(ctx, keys, vals, found); err != nil {
					b.Fatal(err)
				}
				durs[i] = time.Since(start)
			}
			b.StopTimer()
			slices.Sort(durs)
			b.ReportMetric(float64(durs[len(durs)/2].Nanoseconds()), "p50_ns")
			b.ReportMetric(float64(durs[len(durs)*99/100].Nanoseconds()), "p99_ns")
		})
	}
}
