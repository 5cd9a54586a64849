package tablenet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/perm"
	"repro/internal/tables"
)

// The fixture table set is built once per test binary (k = 4: ≈7000
// classes, milliseconds): deep enough that the meet-in-the-middle stage
// and both direct branches are exercised, small enough that every test
// can spin up fresh servers over it.
var (
	fixtureOnce sync.Once
	fixtureRes  *bfs.Result
	fixtureErr  error
)

func fixtureTables(t testing.TB) *bfs.Result {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureRes, fixtureErr = bfs.Search(bfs.GateAlphabet(), 4, nil)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureRes
}

func fixtureBackend(t testing.TB) *tables.Local {
	t.Helper()
	b, err := tables.NewLocal(fixtureTables(t))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// startServer serves the fixture backend on a loopback listener and
// returns its address; the server is torn down with the test.
func startServer(t testing.TB, b tables.Backend) (*Server, string) {
	t.Helper()
	srv, err := NewServer(b)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

func dialClient(t testing.TB, addr string, opts *ClientOptions) *Client {
	t.Helper()
	cl, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func randomCircuitPerm(rng *rand.Rand, n int) perm.Perm {
	c := make(circuit.Circuit, n)
	for i := range c {
		c[i] = gate.FromIndex(rng.Intn(gate.Count))
	}
	return c.Perm()
}

func randomPerm16(rng *rand.Rand) perm.Perm {
	p, err := perm.FromSlice(rng.Perm(16))
	if err != nil {
		panic(err)
	}
	return p
}

func TestHandshakeMeta(t *testing.T) {
	local := fixtureBackend(t)
	_, addr := startServer(t, local)
	cl := dialClient(t, addr, nil)
	got, want := cl.Meta(), local.Meta()
	if !got.Compatible(want) {
		t.Fatalf("handshake meta %+v incompatible with local %+v", got, want)
	}
	if got.Source != fmt.Sprintf("tablenet(%s)", addr) {
		t.Fatalf("meta source = %q", got.Source)
	}
	if err := cl.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

func TestClientMatchesLocalReads(t *testing.T) {
	res := fixtureTables(t)
	local := fixtureBackend(t)
	_, addr := startServer(t, local)
	cl := dialClient(t, addr, nil)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))

	// Present keys (level members) interleaved with absent ones.
	var keys []uint64
	for c := 0; c <= res.MaxCost; c++ {
		lv := res.Level(c)
		for i := 0; i < lv.Len(); i += 1 + rng.Intn(64) {
			keys = append(keys, uint64(lv.At(i)))
		}
	}
	for i := 0; i < 200; i++ {
		keys = append(keys, uint64(randomPerm16(rng)))
	}
	gotVals := make([]uint16, len(keys))
	gotOK := make([]bool, len(keys))
	if err := cl.LookupBatch(ctx, keys, gotVals, gotOK); err != nil {
		t.Fatal(err)
	}
	wantVals := make([]uint16, len(keys))
	wantOK := make([]bool, len(keys))
	if err := local.LookupBatch(ctx, keys, wantVals, wantOK); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if gotOK[i] != wantOK[i] || (gotOK[i] && gotVals[i] != wantVals[i]) {
			t.Fatalf("key %#x: remote (%v, %v) != local (%v, %v)", keys[i], gotVals[i], gotOK[i], wantVals[i], wantOK[i])
		}
	}

	// Level ranges, including ones spanning request-chunk boundaries.
	for c := 0; c <= res.MaxCost; c++ {
		n := res.LevelLen(c)
		lo := 0
		if n > 3 {
			lo = rng.Intn(n / 2)
		}
		want := make([]uint64, n-lo)
		got := make([]uint64, n-lo)
		if err := local.LevelKeys(ctx, c, lo, want); err != nil {
			t.Fatal(err)
		}
		if err := cl.LevelKeys(ctx, c, lo, got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("level %d key %d: remote %#x != local %#x", c, lo+i, got[i], want[i])
			}
		}
	}

	st, err := cl.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Lookups == 0 || st.Keys < uint64(len(keys)) || st.Hits == 0 || st.LevelReqs == 0 {
		t.Fatalf("server stats did not count the traffic: %+v", st)
	}
}

func TestClientRejectsOutOfRangeRequests(t *testing.T) {
	local := fixtureBackend(t)
	_, addr := startServer(t, local)
	cl := dialClient(t, addr, nil)
	ctx := context.Background()
	out := make([]uint64, 8)
	if err := cl.LevelKeys(ctx, cl.Meta().K+1, 0, out); err == nil {
		t.Fatal("level beyond horizon accepted")
	}
	if err := cl.LevelKeys(ctx, 0, 0, make([]uint64, cl.Meta().LevelCounts[0]+1)); err == nil {
		t.Fatal("level overrun accepted")
	}
	if err := cl.LookupBatch(ctx, make([]uint64, 3), make([]uint16, 2), make([]bool, 3)); err == nil {
		t.Fatal("mismatched slice lengths accepted")
	}
}

// TestRemoteCoreMatchesLocal drives the full query engine through a
// single network backend and requires byte-identical answers to the
// local engine: same circuits, same costs, same error taxonomy.
func TestRemoteCoreMatchesLocal(t *testing.T) {
	res := fixtureTables(t)
	_, addr := startServer(t, fixtureBackend(t))
	cl := dialClient(t, addr, nil)

	localSynth, err := core.FromResult(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	localSynth.SetWorkers(1)
	remoteSynth, err := core.FromBackend(cl, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if remoteSynth.Result() != nil {
		t.Fatal("remote synthesizer claims local tables")
	}
	if remoteSynth.K() != localSynth.K() || remoteSynth.Horizon() != localSynth.Horizon() {
		t.Fatalf("geometry mismatch: remote k=%d h=%d, local k=%d h=%d",
			remoteSynth.K(), remoteSynth.Horizon(), localSynth.K(), localSynth.Horizon())
	}

	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	checked := 0
	for i := 0; i < 120; i++ {
		var f perm.Perm
		switch {
		case i%6 == 5:
			f = randomPerm16(rng) // usually beyond the k=4 horizon
		default:
			f = randomCircuitPerm(rng, 1+rng.Intn(8))
		}
		wantC, wantInfo, wantErr := localSynth.SynthesizeInfoCtx(ctx, f)
		gotC, gotInfo, gotErr := remoteSynth.SynthesizeInfoCtx(ctx, f)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && !errors.Is(gotErr, core.ErrBeyondHorizon)) {
			t.Fatalf("spec %v: local err %v, remote err %v", f, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if wantInfo.Cost != gotInfo.Cost || wantInfo.Direct != gotInfo.Direct || wantInfo.SplitPrefix != gotInfo.SplitPrefix {
			t.Fatalf("spec %v: local info %+v, remote info %+v", f, wantInfo, gotInfo)
		}
		if wantC.String() != gotC.String() {
			t.Fatalf("spec %v: local circuit %v != remote circuit %v", f, wantC, gotC)
		}
		checked++
	}
	if checked < 80 {
		t.Fatalf("only %d specs compared", checked)
	}
}

// TestWeightedRemoteMatchesLocal locks the byte-identical guarantee for
// weighted alphabets, where the scan does NOT stop at the first hit:
// the scan commits to the first hitting variant of each representative
// and must do so for every chunk size (not pick a better variant from
// the same representative's speculatively-batched candidates).
func TestWeightedRemoteMatchesLocal(t *testing.T) {
	alphabet, err := bfs.WeightedGateAlphabet(gate.Gate.QuantumCost)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bfs.Search(alphabet, 8, nil) // ≈8000 classes, milliseconds
	if err != nil {
		t.Fatal(err)
	}
	local, err := tables.NewLocal(res)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, local)
	cl := dialClient(t, addr, nil)

	localSynth, err := core.FromResult(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	localSynth.SetWorkers(1)
	remoteSynth, err := core.FromBackend(cl, alphabet, 0)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(21))
	ctx := context.Background()
	hits, mitm := 0, 0
	for i := 0; i < 60; i++ {
		// Circuits biased to the weighted alphabet's cheap gates (NCV
		// cost ≤ 5, i.e. no TOF4) so many specs land inside the direct
		// window and the meet-in-the-middle window just beyond it.
		n := 2 + rng.Intn(10)
		c := make(circuit.Circuit, n)
		for j := range c {
			g := gate.FromIndex(rng.Intn(gate.Count))
			for g.QuantumCost() > 5 {
				g = gate.FromIndex(rng.Intn(gate.Count))
			}
			c[j] = g
		}
		f := c.Perm()
		wantC, wantInfo, wantErr := localSynth.SynthesizeInfoCtx(ctx, f)
		gotC, gotInfo, gotErr := remoteSynth.SynthesizeInfoCtx(ctx, f)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("spec %v: local err %v, remote err %v", f, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if wantC.String() != gotC.String() || wantInfo != gotInfo {
			t.Fatalf("spec %v:\n  local  %+v %v\n  remote %+v %v", f, wantInfo, wantC, gotInfo, gotC)
		}
		hits++
		if !wantInfo.Direct {
			mitm++
		}
	}
	if hits < 20 || mitm < 8 {
		t.Fatalf("weak coverage: %d answered, %d via meet-in-the-middle", hits, mitm)
	}
}

// TestRouterIdenticalToLocal is the PR's acceptance gate: a router over
// 2 shard backends, hammered by 8 concurrent clients, must return
// byte-identical circuits to a single local backend for ≥ 100 random
// specifications. Run under -race this also proves the router's scatter
// path and the per-connection server state are data-race free.
func TestRouterIdenticalToLocal(t *testing.T) {
	res := fixtureTables(t)
	_, addr1 := startServer(t, fixtureBackend(t))
	_, addr2 := startServer(t, fixtureBackend(t))
	cl1 := dialClient(t, addr1, &ClientOptions{Conns: 8})
	cl2 := dialClient(t, addr2, &ClientOptions{Conns: 8})
	router, err := NewRouter([]tables.Backend{cl1, cl2})
	if err != nil {
		t.Fatal(err)
	}
	if got := router.Meta().Source; got != "router(2)" {
		t.Fatalf("router source = %q", got)
	}

	localSynth, err := core.FromResult(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	localSynth.SetWorkers(1)
	routed, err := core.FromBackend(router, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const perClient = 16 // 128 specs total ≥ 100
	type answer struct {
		spec    perm.Perm
		circuit string
		cost    int
		err     error
	}
	results := make([][]answer, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			ctx := context.Background()
			for i := 0; i < perClient; i++ {
				var f perm.Perm
				if i%5 == 4 {
					f = randomPerm16(rng)
				} else {
					f = randomCircuitPerm(rng, 1+rng.Intn(8))
				}
				c, info, err := routed.SynthesizeInfoCtx(ctx, f)
				a := answer{spec: f, cost: info.Cost, err: err}
				if err == nil {
					a.circuit = c.String()
				}
				results[w] = append(results[w], a)
			}
		}(w)
	}
	wg.Wait()

	checked := 0
	for _, rs := range results {
		for _, a := range rs {
			wantC, wantInfo, wantErr := localSynth.SynthesizeInfoCtx(context.Background(), a.spec)
			if (wantErr == nil) != (a.err == nil) {
				t.Fatalf("spec %v: local err %v, routed err %v", a.spec, wantErr, a.err)
			}
			if wantErr != nil {
				continue
			}
			if a.circuit != wantC.String() || a.cost != wantInfo.Cost {
				t.Fatalf("spec %v: routed (%s, %d) != local (%s, %d)",
					a.spec, a.circuit, a.cost, wantC, wantInfo.Cost)
			}
			// Re-verify the circuit actually computes the spec.
			cc, err := circuit.Parse(a.circuit)
			if err != nil || cc.Perm() != a.spec {
				t.Fatalf("spec %v: routed circuit %q does not compute it (%v)", a.spec, a.circuit, err)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d specs survived to comparison, want ≥ 100", checked)
	}

	// Both shards must have carried real lookup traffic: the hash
	// partition sends each key batch where it belongs.
	st1, err := cl1.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st2, err := cl2.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st1.Keys == 0 || st2.Keys == 0 {
		t.Fatalf("lopsided shard traffic: shard1 %+v, shard2 %+v", st1, st2)
	}
}

func TestRouterPartitionCoversSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 5, 8} {
		counts := make([]int, n)
		for i := 0; i < 100000; i++ {
			s := ShardOf(rng.Uint64(), n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf out of range: %d of %d", s, n)
			}
			counts[s]++
		}
		for s, c := range counts {
			if c < 100000/n/2 {
				t.Fatalf("n=%d shard %d got %d of 100000 keys (badly skewed)", n, s, c)
			}
		}
	}
}

func TestRouterRejectsMixedGenerations(t *testing.T) {
	resA := fixtureTables(t)
	resB, err := bfs.Search(bfs.GateAlphabet(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := tables.NewLocal(resA)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := tables.NewLocal(resB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouter([]tables.Backend{ba, bb}); err == nil {
		t.Fatal("router accepted shards serving different table sets")
	}
}

// TestRouterDegradedShard verifies the health surface and read
// failover: with one of two shards down, Check reports exactly which,
// level reads keep succeeding off the surviving replica, and lookups
// owned by the dead shard fail rather than silently missing.
func TestRouterDegradedShard(t *testing.T) {
	res := fixtureTables(t)
	srv1, addr1 := startServer(t, fixtureBackend(t))
	_, addr2 := startServer(t, fixtureBackend(t))
	cl1 := dialClient(t, addr1, nil)
	cl2 := dialClient(t, addr2, nil)
	router, err := NewRouter([]tables.Backend{cl1, cl2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for _, st := range router.Check(ctx) {
		if st.Err != nil {
			t.Fatalf("healthy fleet reports %s: %v", st.Addr, st.Err)
		}
	}

	srv1.Close() // shard 1 goes dark

	checkCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	statuses := router.Check(checkCtx)
	if statuses[0].Err == nil {
		t.Fatal("dead shard reported healthy")
	}
	if statuses[1].Err != nil {
		t.Fatalf("live shard reported unhealthy: %v", statuses[1].Err)
	}
	if statuses[0].Addr != addr1 || statuses[1].Addr != addr2 {
		t.Fatalf("shard addresses mangled: %+v", statuses)
	}

	// Level reads fail over to the live replica...
	out := make([]uint64, res.LevelLen(1))
	for i := 0; i < 4; i++ { // hit both round-robin start points
		lvCtx, lvCancel := context.WithTimeout(ctx, 2*time.Second)
		err := router.LevelKeys(lvCtx, 1, 0, out)
		lvCancel()
		if err != nil {
			t.Fatalf("level read did not fail over: %v", err)
		}
	}

	// ...while a batch spanning both partitions errors (half its owners
	// are gone — a loud failure, never a silent miss).
	keys := make([]uint64, 256)
	rng := rand.New(rand.NewSource(9))
	for i := range keys {
		keys[i] = uint64(randomPerm16(rng))
	}
	lbCtx, lbCancel := context.WithTimeout(ctx, 2*time.Second)
	defer lbCancel()
	if err := router.LookupBatch(lbCtx, keys, make([]uint16, len(keys)), make([]bool, len(keys))); err == nil {
		t.Fatal("lookup batch spanning a dead shard reported success")
	}
}

// TestServerRejectsMalformedFrames drives raw hostile bytes at a live
// server and expects an error frame (or a clean drop), never a hang or
// a crash.
func TestServerRejectsMalformedFrames(t *testing.T) {
	_, addr := startServer(t, fixtureBackend(t))
	// frame builds a well-formed v2 frame (length + checksum header)
	// around a hostile body.
	frame := func(op byte, payload []byte) []byte {
		f, err := appendFrame(nil, op, payload)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// badsum is a valid ping frame with its checksum flipped.
	badsum := frame(opPing, nil)
	badsum[4] ^= 0xFF
	cases := [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00}, // absurd frame length
		{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, // zero frame length
		badsum,                      // checksum mismatch
		frame(0xEE, nil),            // unknown opcode
		frame(opPing, []byte{0x01}), // ping with payload
		frame(opLookup, []byte{255, 255, 255, 255}), // lying key count
	}
	for i, raw := range cases {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		// Swallow the hello first.
		if _, _, err := readFrame(c, nil); err != nil {
			t.Fatalf("case %d: hello: %v", i, err)
		}
		if _, err := c.Write(raw); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		op, payload, err := readFrame(c, nil)
		if err == nil && op != opErr {
			t.Fatalf("case %d: server answered %#x %q to garbage", i, op, payload)
		}
		c.Close()
	}
}

// TestServerConnLimits: the shard server sheds connections beyond
// MaxConns at accept and drops idle ones after IdleTimeout — and a
// client whose pooled connection was idle-dropped rides through on the
// retry path.
func TestServerConnLimits(t *testing.T) {
	local := fixtureBackend(t)
	srv, err := NewServer(local)
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxConns = 1
	srv.IdleTimeout = 200 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	addr := l.Addr().String()

	cl := dialClient(t, addr, &ClientOptions{Conns: 1})
	if err := cl.Ping(context.Background()); err != nil {
		t.Fatalf("first connection: %v", err)
	}
	// A second simultaneous connection is shed at accept (closed before
	// any hello), so a dial fails its handshake.
	if _, err := Dial(addr, &ClientOptions{Conns: 1, DialTimeout: 2 * time.Second}); err == nil {
		t.Fatal("connection beyond MaxConns was accepted")
	}
	// Let the pooled connection idle past the server's timeout; the next
	// request hits a dead socket and must transparently redial (the
	// server has a slot free again by then).
	time.Sleep(600 * time.Millisecond)
	pingCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.Ping(pingCtx); err != nil {
		t.Fatalf("request after idle drop was not retried: %v", err)
	}
}

// TestClientSurvivesServerRestart: after a shard server restarts, the
// pool's stale sockets must not surface as query failures — a transport
// error on a pooled connection is retried once on a fresh dial.
func TestClientSurvivesServerRestart(t *testing.T) {
	local := fixtureBackend(t)
	srv1, err := NewServer(local)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	go srv1.Serve(l)

	cl := dialClient(t, addr, &ClientOptions{Conns: 2})
	ctx := context.Background()
	keys := []uint64{uint64(fixtureTables(t).Level(1).At(0))}
	vals := make([]uint16, 1)
	found := make([]bool, 1)
	if err := cl.LookupBatch(ctx, keys, vals, found); err != nil || !found[0] {
		t.Fatalf("warm-up lookup: %v (found %v)", err, found[0])
	}

	// Restart the server on the same address: the pooled connection from
	// the warm-up is now a dead socket.
	srv1.Close()
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(local)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(l2)
	t.Cleanup(func() { srv2.Close() })

	lbCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := cl.LookupBatch(lbCtx, keys, vals, found); err != nil || !found[0] {
		t.Fatalf("lookup after server restart was not retried on a fresh dial: %v (found %v)", err, found[0])
	}
}

// TestClientCancellationInterruptsStall: a shard that accepts,
// handshakes, then goes silent must not pin a request past its
// context's cancellation — plain cancel, no deadline.
func TestClientCancellationInterruptsStall(t *testing.T) {
	helloBytes := encodeHello(hello{Meta: fixtureBackend(t).Meta(), RangeLo: 0, RangeHi: tables.RangeSpace})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			writeFrame(c, opHello, helloBytes)
			// ...and never answer anything again.
		}
	}()
	cl, err := Dial(l.Addr().String(), &ClientOptions{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = cl.LookupBatch(ctx, []uint64{1}, make([]uint16, 1), make([]bool, 1))
	if err == nil {
		t.Fatal("lookup against a stalled server succeeded")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("cancellation took %v to interrupt the stalled round trip", waited)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	lo, hi := tables.RangeOf(1, 2)
	want := hello{Meta: fixtureBackend(t).Meta(), RangeLo: lo, RangeHi: hi, Draining: true}
	got, err := parseHello(encodeHello(want))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Meta.Compatible(want.Meta) {
		t.Fatalf("hello round trip: %+v != %+v", got.Meta, want.Meta)
	}
	if got.RangeLo != lo || got.RangeHi != hi || !got.Draining {
		t.Fatalf("hello round trip dropped serving state: %+v", got)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	want := Stats{Lookups: 1, Keys: 2, Hits: 3, LevelReqs: 4, ResidentBytes: 5, MappedBytes: 6}
	got, err := parseStats(encodeStats(want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("stats round trip: %+v != %+v", got, want)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello, shard")
	if err := writeFrame(&buf, opPing, payload); err != nil {
		t.Fatal(err)
	}
	op, got, err := readFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if op != opPing || !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: op %#x payload %q", op, got)
	}
}

// TestCanonKeyOwnership sanity-checks that the partition function is
// applied to the canonical keys the table actually stores: every stored
// representative must route to the shard its Wang hash names, matching
// the in-process sharding.
func TestCanonKeyOwnership(t *testing.T) {
	res := fixtureTables(t)
	lv := res.Level(res.MaxCost)
	for i := 0; i < min(lv.Len(), 1000); i++ {
		rep := lv.At(i)
		if canon.Rep(rep) != rep {
			t.Fatalf("level entry %v is not canonical", rep)
		}
		if s := ShardOf(uint64(rep), 2); s < 0 || s > 1 {
			t.Fatalf("ShardOf(%v, 2) = %d", rep, s)
		}
	}
}
