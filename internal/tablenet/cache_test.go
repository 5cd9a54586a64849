package tablenet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/tables"
)

func TestHotKeyCacheBasics(t *testing.T) {
	c := newHotKeyCache(64)
	if _, _, ok := c.get(42); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.put(42, 7, true)
	c.put(43, 0, false) // negative result: cacheable forever
	if v, f, ok := c.get(42); !ok || !f || v != 7 {
		t.Fatalf("get(42) = (%d, %v, %v)", v, f, ok)
	}
	if _, f, ok := c.get(43); !ok || f {
		t.Fatalf("negative entry lost: found=%v ok=%v", f, ok)
	}
	// Re-inserting an immutable key is a no-op, never a corruption.
	c.put(42, 7, true)
	if v, _, ok := c.get(42); !ok || v != 7 {
		t.Fatalf("reinsert broke entry: (%d, %v)", v, ok)
	}
}

func TestHotKeyCacheEvictsWithinSet(t *testing.T) {
	// A minimal cache: one set of hotWays slots. Insert more keys than
	// ways; recently-used keys must survive over stale ones.
	c := newHotKeyCache(1)
	if c.mask != 0 {
		t.Fatalf("expected a single set, mask = %d", c.mask)
	}
	for k := uint64(1); k <= hotWays; k++ {
		c.put(k, uint16(k), true)
	}
	// Touch key 1 so it is the hottest, then overflow the set.
	if _, _, ok := c.get(1); !ok {
		t.Fatal("key 1 missing before overflow")
	}
	c.put(100, 100, true)
	if _, _, ok := c.get(100); !ok {
		t.Fatal("newly inserted key was not retained")
	}
	if v, _, ok := c.get(1); !ok || v != 1 {
		t.Fatalf("recently-used key was evicted over a stale one (ok=%v v=%d)", ok, v)
	}
	// Exact LRU: key 2 was the least recently used, so it alone went.
	if _, _, ok := c.get(2); ok {
		t.Fatal("least-recently-used key 2 survived the overflow")
	}
	for _, k := range []uint64{3, 4} {
		if v, _, ok := c.get(k); !ok || v != uint16(k) {
			t.Fatalf("key %d was evicted instead of the least-recently-used key 2", k)
		}
	}
}

// TestHotKeyCacheHammer: writers keep evicting within one set while
// readers probe it, and every hit must return exactly the value and
// presence bit written for its key. The seqlock is what guarantees it: a
// read that overlaps any rewrite of the set must be rejected, or a slot
// can pair one key with another key's value. A tear needs a writer and a
// reader running at the same instant, so the hammer only bites with two
// CPUs free.
//
// While a writer runs, nearly every read is (safely) rejected, so hits
// come from the moments the scheduler leaves readers alone with the
// set; on a contended machine those can be rare. Readers therefore run
// at least minReads probes each and then on until the readers together
// reach a hit quota, so a slow schedule costs time, not a verdict; only
// a hammer that finds no hits within a generous deadline fails.
func TestHotKeyCacheHammer(t *testing.T) {
	if size := unsafe.Sizeof(hotSet{}); size != 64 {
		t.Fatalf("hotSet is %d bytes, want one 64-byte cache line", size)
	}
	c := newHotKeyCache(1)
	if c.mask != 0 {
		t.Fatalf("expected a single set, mask = %d", c.mask)
	}
	if addr := uintptr(unsafe.Pointer(&c.sets[0])); addr%64 != 0 {
		t.Fatalf("set at %#x is not line-aligned", addr)
	}
	const keys = 3 * hotWays
	const hitQuota = 1000
	entry := func(k uint64) (uint16, bool) { return uint16(k * 0x9e37), k%3 != 0 }
	minReads := 200_000
	if raceEnabled {
		minReads = 50_000
	}
	deadline := time.Now().Add(time.Minute)
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := w; !stop.Load(); i++ {
				k := uint64(i%keys) + 1
				v, f := entry(k)
				c.put(k, v, f)
			}
		}(w)
	}
	var hits, torn atomic.Int64
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < minReads || hits.Load() < hitQuota; i++ {
				if i%4096 == 0 && time.Now().After(deadline) {
					return
				}
				k := uint64((i*7+r)%keys) + 1
				v, f, ok := c.get(k)
				if !ok {
					continue
				}
				hits.Add(1)
				if wv, wf := entry(k); v != wv || f != wf {
					if torn.Add(1) == 1 {
						t.Errorf("key %d read as (%d, %v), written as (%d, %v)", k, v, f, wv, wf)
					}
				}
			}
		}(r)
	}
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d torn reads out of %d hits", n, hits.Load())
	}
	if n := hits.Load(); n < hitQuota {
		t.Fatalf("readers hit %d times before the deadline, want %d; the hammer exercised too little", n, hitQuota)
	}
}

// TestClientCacheServesWithoutWire proves the tiers actually remove
// round trips: after a first pass, identical lookups and level reads
// are answered without the server seeing any new request.
func TestClientCacheServesWithoutWire(t *testing.T) {
	res := fixtureTables(t)
	srv, addr := startServer(t, fixtureBackend(t))
	cl := dialClient(t, addr, nil) // caches on by default
	ctx := context.Background()

	var keys []uint64
	rng := rand.New(rand.NewSource(5))
	lv := res.Level(res.MaxCost)
	for i := 0; i < 300; i++ {
		keys = append(keys, uint64(lv.At(rng.Intn(lv.Len()))))
		keys = append(keys, uint64(randomPerm16(rng))) // mostly absent
	}
	vals1 := make([]uint16, len(keys))
	found1 := make([]bool, len(keys))
	if err := cl.LookupBatch(ctx, keys, vals1, found1); err != nil {
		t.Fatal(err)
	}
	out1 := make([]uint64, res.LevelLen(2))
	if err := cl.LevelKeys(ctx, 2, 0, out1); err != nil {
		t.Fatal(err)
	}

	before := srv.Stats()
	vals2 := make([]uint16, len(keys))
	found2 := make([]bool, len(keys))
	if err := cl.LookupBatch(ctx, keys, vals2, found2); err != nil {
		t.Fatal(err)
	}
	out2 := make([]uint64, res.LevelLen(2))
	if err := cl.LevelKeys(ctx, 2, 0, out2); err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if after.Lookups != before.Lookups || after.LevelReqs != before.LevelReqs {
		t.Fatalf("warm pass hit the wire: %+v -> %+v", before, after)
	}
	for i := range keys {
		if vals1[i] != vals2[i] || found1[i] != found2[i] {
			t.Fatalf("key %d: warm (%d,%v) != cold (%d,%v)", i, vals2[i], found2[i], vals1[i], found1[i])
		}
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("level key %d: warm %#x != cold %#x", i, out2[i], out1[i])
		}
	}

	st := cl.CacheStats()
	if st.KeyHits < uint64(len(keys)) || st.KeyMisses == 0 {
		t.Fatalf("key counters off: %+v", st)
	}
	if st.LevelHits == 0 || st.LevelMisses == 0 {
		t.Fatalf("level counters off: %+v", st)
	}
	if st.CacheBytes <= 0 || st.WireBytesRead == 0 || st.WireBytesWritten == 0 {
		t.Fatalf("byte counters off: %+v", st)
	}
}

// TestClientPartialHitSplitsBatch: a batch mixing cached and new keys
// sends only the misses over the wire.
func TestClientPartialHitSplitsBatch(t *testing.T) {
	res := fixtureTables(t)
	srv, addr := startServer(t, fixtureBackend(t))
	cl := dialClient(t, addr, nil)
	ctx := context.Background()

	lv := res.Level(1)
	warm := []uint64{uint64(lv.At(0))}
	if err := cl.LookupBatch(ctx, warm, make([]uint16, 1), make([]bool, 1)); err != nil {
		t.Fatal(err)
	}
	before := srv.Stats()
	mixed := []uint64{uint64(lv.At(0)), uint64(res.Level(2).At(0))}
	vals := make([]uint16, 2)
	found := make([]bool, 2)
	if err := cl.LookupBatch(ctx, mixed, vals, found); err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if moved := after.Keys - before.Keys; moved != 1 {
		t.Fatalf("partial hit sent %d keys over the wire, want 1 (the miss)", moved)
	}
	if !found[0] || !found[1] {
		t.Fatalf("mixed batch results wrong: %v", found)
	}
}

func TestClientCachesDisabled(t *testing.T) {
	srv, addr := startServer(t, fixtureBackend(t))
	cl := dialClient(t, addr, &ClientOptions{CacheKeys: -1, LevelCacheBytes: -1})
	ctx := context.Background()
	keys := []uint64{uint64(fixtureTables(t).Level(1).At(0))}
	for pass := 0; pass < 2; pass++ {
		if err := cl.LookupBatch(ctx, keys, make([]uint16, 1), make([]bool, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.Lookups != 2 {
		t.Fatalf("disabled caches still absorbed traffic: %+v", st)
	}
	st := cl.CacheStats()
	if st.KeyHits != 0 || st.LevelHits != 0 || st.CacheBytes != 0 {
		t.Fatalf("disabled caches report activity: %+v", st)
	}
	if st.WireBytesRead == 0 {
		t.Fatalf("wire counters must still count: %+v", st)
	}
}

// TestLevelCacheConcurrentColdReads: goroutines reading every level of
// a cold client at once each fetch missing blocks on their own
// goroutine; every read must match the local table, and the cache must
// charge each published block once however many callers raced for it.
// A caller whose ctx is already canceled gets its own error and
// publishes nothing.
func TestLevelCacheConcurrentColdReads(t *testing.T) {
	local := fixtureBackend(t)
	_, addr := startServer(t, local)
	ctx := context.Background()
	counts := local.Meta().LevelCounts
	want := make([][]uint64, len(counts))
	for c, n := range counts {
		want[c] = make([]uint64, n)
		if err := local.LevelKeys(ctx, c, 0, want[c]); err != nil {
			t.Fatal(err)
		}
	}
	// readAll reads every level through cl and checks it against want.
	readAll := func(cl *Client) error {
		for c, n := range counts {
			got := make([]uint64, n)
			if err := cl.LevelKeys(ctx, c, 0, got); err != nil {
				return err
			}
			for i := range got {
				if got[i] != want[c][i] {
					return fmt.Errorf("level %d key %d: %#x, want %#x", c, i, got[i], want[c][i])
				}
			}
		}
		return nil
	}
	// publishedBytes sums the blocks the level cache holds.
	publishedBytes := func(cl *Client) (n int64) {
		for _, lvl := range cl.lcache.blocks {
			for i := range lvl {
				if blk := lvl[i].Load(); blk != nil {
					n += int64(len(*blk)) * 8
				}
			}
		}
		return n
	}

	cl := dialClient(t, addr, &ClientOptions{CacheKeys: -1})
	const readers = 8
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- readAll(cl)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	for _, n := range counts {
		total += int64(n) * 8
	}
	st := cl.CacheStats()
	if pub := publishedBytes(cl); st.CacheBytes != pub || pub != total {
		t.Fatalf("CacheBytes %d, published blocks %d bytes, every level %d bytes", st.CacheBytes, pub, total)
	}
	if st.LevelMisses == 0 || st.LevelHits+st.LevelMisses < readers*uint64(len(counts)) {
		t.Fatalf("level counters off: %+v", st)
	}

	cold := dialClient(t, addr, &ClientOptions{CacheKeys: -1})
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	last := len(counts) - 1
	if err := cold.LevelKeys(canceled, last, 0, make([]uint64, counts[last])); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled read returned %v, want context.Canceled", err)
	}
	if st := cold.CacheStats(); st.CacheBytes != 0 || publishedBytes(cold) != 0 {
		t.Fatalf("canceled read published blocks: %+v", st)
	}
	if err := readAll(cold); err != nil {
		t.Fatal(err)
	}
	if st := cold.CacheStats(); st.CacheBytes != total || publishedBytes(cold) != total {
		t.Fatalf("after the canceled read: CacheBytes %d, want %d", st.CacheBytes, total)
	}
}

// TestPipelinedRemoteMatchesLocal forces the remote scan through many
// tiny chunks — across level boundaries too — and requires
// byte-identical answers to the sequential local engine, cold and warm
// (the warm pass re-runs every spec against fully-primed caches). A
// last pass at the default batch size bounds the scan's
// speculation: the keys it sends beyond the candidates it commits stay
// below one batch.
func TestPipelinedRemoteMatchesLocal(t *testing.T) {
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
	// 4 representatives per chunk: a level-3 scan alone is dozens of
	// pipelined chunks.
	remoteSynth.SetBatchKeys(192)

	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	var specs []perm.Perm
	for i := 0; i < 10; i++ {
		specs = append(specs, randomCircuitPerm(rng, 5+rng.Intn(4)))
	}
	specs = append(specs, randomPerm16(rng), randomPerm16(rng))

	// check answers f through remote and requires the local engine's
	// error class, Info and circuit; ok reports a meet-in-the-middle
	// answer.
	check := func(label string, remote *core.Synthesizer, f perm.Perm) (info core.Info, ok bool) {
		t.Helper()
		wantC, wantInfo, wantErr := localSynth.SynthesizeInfoCtx(ctx, f)
		gotC, gotInfo, gotErr := remote.SynthesizeInfoCtx(ctx, f)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && !errors.Is(gotErr, core.ErrBeyondHorizon)) {
			t.Fatalf("%s spec %v: local err %v, remote err %v", label, f, wantErr, gotErr)
		}
		if wantErr != nil {
			return gotInfo, false
		}
		if wantInfo != gotInfo {
			t.Fatalf("%s spec %v: local info %+v, remote info %+v", label, f, wantInfo, gotInfo)
		}
		if wantC.String() != gotC.String() {
			t.Fatalf("%s spec %v: local circuit %v != remote %v", label, f, wantC, gotC)
		}
		return gotInfo, !gotInfo.Direct
	}

	mitm := 0
	for _, label := range []string{"cold", "warm"} {
		for _, f := range specs {
			if _, ok := check(label, remoteSynth, f); ok {
				mitm++
			}
		}
	}
	if mitm < 4 {
		t.Fatalf("only %d meet-in-the-middle answers; the pipelined scan was barely exercised", mitm)
	}
	if st := cl.CacheStats(); st.KeyHits == 0 || st.LevelHits == 0 {
		t.Fatalf("warm pass did not use the caches: %+v", st)
	}

	// The default batch (core's backendBatchKeys) through a counting
	// wrapper. Only the chunk holding the first hit is sent past it, so
	// the uncommitted keys of a query stay below one batch.
	const defaultBatchKeys = 1024
	counted := &countingBackend{Backend: cl}
	defaultSynth, err := core.FromBackend(counted, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defaultSynth.SetBatchKeys(0)
	for _, f := range specs {
		before := counted.batchKeys.Load()
		info, ok := check("default-batch", defaultSynth, f)
		if !ok {
			continue
		}
		sent := counted.batchKeys.Load() - before
		if extra := sent - info.Candidates; extra >= defaultBatchKeys {
			t.Fatalf("spec %v: %d batched keys for %d committed candidates: %d speculative, want < %d",
				f, sent, info.Candidates, extra, defaultBatchKeys)
		}
	}
}

// TestTinyBatchKeysMatchesLocal: a batch target below one reduced
// representative's 48-variant expansion must clamp the scratch up, not
// overflow it — SetBatchKeys(10) used to panic at the first
// meet-in-the-middle chunk.
func TestTinyBatchKeysMatchesLocal(t *testing.T) {
	res := fixtureTables(t)
	_, addr := startServer(t, fixtureBackend(t))
	cl := dialClient(t, addr, nil)
	localSynth, err := core.FromResult(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	localSynth.SetWorkers(1)
	remote, err := core.FromBackend(cl, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote.SetBatchKeys(10)

	rng := rand.New(rand.NewSource(33))
	ctx := context.Background()
	mitm := 0
	for i := 0; i < 8; i++ {
		f := randomCircuitPerm(rng, 5+rng.Intn(3))
		wantC, wantInfo, wantErr := localSynth.SynthesizeInfoCtx(ctx, f)
		gotC, gotInfo, gotErr := remote.SynthesizeInfoCtx(ctx, f)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("spec %v: local err %v, remote err %v", f, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if wantInfo != gotInfo || wantC.String() != gotC.String() {
			t.Fatalf("spec %v: local (%+v, %v) != remote (%+v, %v)", f, wantInfo, wantC, gotInfo, gotC)
		}
		if !wantInfo.Direct {
			mitm++
		}
	}
	if mitm == 0 {
		t.Fatal("no meet-in-the-middle query exercised the tiny batch")
	}
}

// TestWireBytesCountRetriedFrames: WireBytesWritten is the offered-load
// denominator, so a frame re-sent on the retry path must count once per
// attempt — the counter used to tick only after a successful flush,
// silently dropping every frame that died on a stale pooled connection.
func TestWireBytesCountRetriedFrames(t *testing.T) {
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

	cl := dialClient(t, addr, &ClientOptions{Conns: 1, CacheKeys: -1, LevelCacheBytes: -1})
	ctx := context.Background()
	keys := []uint64{uint64(fixtureTables(t).Level(1).At(0))}
	vals := make([]uint16, 1)
	found := make([]bool, 1)

	before := cl.CacheStats()
	if err := cl.LookupBatch(ctx, keys, vals, found); err != nil {
		t.Fatal(err)
	}
	mid := cl.CacheStats()
	oneAttempt := mid.WireBytesWritten - before.WireBytesWritten
	if oneAttempt == 0 {
		t.Fatal("clean lookup wrote no counted bytes")
	}
	if mid.WireRetries != before.WireRetries {
		t.Fatalf("clean lookup retried: %+v", mid)
	}

	// Restart the server on the same address: the pooled connection is
	// now dead, so the identical lookup is written twice — once into the
	// stale socket, once on the redialed retry.
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
		t.Fatalf("lookup after restart: %v (found %v)", err, found[0])
	}
	after := cl.CacheStats()
	retried := after.WireRetries - mid.WireRetries
	if retried == 0 {
		t.Fatal("restart did not exercise the retry path; the fixture is broken")
	}
	attempts := 1 + retried
	if got := after.WireBytesWritten - mid.WireBytesWritten; got != attempts*oneAttempt {
		t.Fatalf("retried lookup counted %d wire bytes over %d attempts, want %d (%d per attempt)",
			got, attempts, attempts*oneAttempt, oneAttempt)
	}
}

// TestFrameCodecAllocs guards the pooled frame codec: with warm scratch
// buffers, encoding and reading frames allocates nothing.
func TestFrameCodecAllocs(t *testing.T) {
	payload := make([]byte, 1024)
	var buf bytes.Buffer
	buf.Grow(4096)
	scratch := make([]byte, 4096)
	frame := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		out, err := appendFrame(frame[:0], opLookup, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := buf.Write(out); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readFrame(&buf, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("frame codec allocates %.1f times per round trip, want 0", allocs)
	}
}

// TestClientLookupAllocs guards the client's request path: a fully
// cache-hit batch allocates nothing, and even a wire round trip on a
// cache-disabled client stays at a handful of fixed-size allocations
// (the two per-chunk closures and context bookkeeping) — never a
// per-batch buffer.
func TestClientLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bounds are calibrated without race instrumentation (sync.Pool drops items under -race)")
	}
	res := fixtureTables(t)
	_, addr := startServer(t, fixtureBackend(t))
	ctx := context.Background()
	keys := make([]uint64, 64)
	lv := res.Level(res.MaxCost)
	for i := range keys {
		keys[i] = uint64(lv.At(i % lv.Len()))
	}
	vals := make([]uint16, len(keys))
	found := make([]bool, len(keys))

	cached := dialClient(t, addr, &ClientOptions{Conns: 1})
	if err := cached.LookupBatch(ctx, keys, vals, found); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := cached.LookupBatch(ctx, keys, vals, found); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("cache-hit LookupBatch allocates %.1f times, want 0", allocs)
	}

	wire := dialClient(t, addr, &ClientOptions{Conns: 1, CacheKeys: -1, LevelCacheBytes: -1})
	if err := wire.LookupBatch(ctx, keys, vals, found); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if err := wire.LookupBatch(ctx, keys, vals, found); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("wire LookupBatch allocates %.1f times per round trip, want ≤ 4", allocs)
	}
}

// twoRangeRouter serves the fixture from 2×replicas shard servers behind
// a two-range router with that many replicas per range, over cached
// clients, and returns it with n fixture keys owned by each range.
func twoRangeRouter(t testing.TB, replicas, n int) (*Router, [2][]uint64) {
	res := fixtureTables(t)
	groups := make([][]tables.Backend, 2)
	for g := range groups {
		for range replicas {
			_, addr := startServer(t, fixtureBackend(t))
			groups[g] = append(groups[g], dialClient(t, addr, &ClientOptions{Conns: 1}))
		}
	}
	router, err := NewReplicatedRouter(groups, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	var owned [2][]uint64
	for c := 1; c <= res.MaxCost; c++ {
		lv := res.Level(c)
		for i := 0; i < lv.Len(); i++ {
			k := uint64(lv.At(i))
			if g := ShardOf(k, 2); len(owned[g]) < n {
				owned[g] = append(owned[g], k)
			}
		}
	}
	if len(owned[0]) < n || len(owned[1]) < n {
		t.Fatalf("fixture has %d/%d keys per range, want %d", len(owned[0]), len(owned[1]), n)
	}
	return router, owned
}

// TestRouterLookupAllocs guards the router's batch paths. A warm batch
// whose keys all fall in one hash range runs inline on the caller's
// goroutine and allocates nothing — a batch of one (a reconstruction
// step) as much as a full batch, and through a replicated range (the
// failover order) as much as an unreplicated one. A warm batch over
// both ranges fans out with one goroutine, the last range running
// inline, in at most 8 allocations (10 when every range had its own
// goroutine). A warm dense level read, ordered over the whole replica
// list, allocates nothing either.
func TestRouterLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bounds are calibrated without race instrumentation (sync.Pool drops items under -race)")
	}
	ctx := context.Background()
	for _, replicas := range []int{1, 2} {
		router, owned := twoRangeRouter(t, replicas, 64)
		batches := []struct {
			name      string
			keys      []uint64
			maxAllocs float64
		}{
			{"single-range 1-key", owned[1][:1], 0},
			{"single-range 64-key", owned[1], 0},
			{"two-range 64-key", append(append([]uint64(nil), owned[0][:32]...), owned[1][:32]...), 8},
		}
		for _, bt := range batches {
			keys := bt.keys
			vals := make([]uint16, len(keys))
			found := make([]bool, len(keys))
			// Replicas take turns; warm every replica's client cache.
			for range replicas {
				if err := router.LookupBatch(ctx, keys, vals, found); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := router.LookupBatch(ctx, keys, vals, found); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > bt.maxAllocs {
				t.Errorf("%d replicas: warm %s LookupBatch allocates %.1f times, want ≤ %.0f", replicas, bt.name, allocs, bt.maxAllocs)
			}
			for i := range found {
				if !found[i] {
					t.Fatalf("stored key %#x reported absent", keys[i])
				}
			}
		}

		out := make([]uint64, 16)
		// Level reads rotate over every replica; warm each one's cache.
		for range 2 * replicas {
			if err := router.LevelKeys(ctx, 3, 0, out); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := router.LevelKeys(ctx, 3, 0, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%d replicas: warm dense LevelKeys allocates %.1f times, want 0", replicas, allocs)
		}
	}
}

// BenchmarkRouterLookupBatch prices a warm 64-key LookupBatch through a
// two-range router whose shard clients answer from their hot-key caches:
// one-range keeps every key in one hash range (the inline path),
// two-ranges splits them evenly (the concurrent fan-out).
func BenchmarkRouterLookupBatch(b *testing.B) {
	router, owned := twoRangeRouter(b, 1, 32)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		keys []uint64
	}{
		{"one-range", append(append([]uint64(nil), owned[0]...), owned[0]...)},
		{"two-ranges", append(append([]uint64(nil), owned[0]...), owned[1]...)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			vals := make([]uint16, len(tc.keys))
			found := make([]bool, len(tc.keys))
			if err := router.LookupBatch(ctx, tc.keys, vals, found); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := router.LookupBatch(ctx, tc.keys, vals, found); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
