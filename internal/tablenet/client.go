package tablenet

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tables"
)

// ClientOptions tune Dial; the zero value (and a nil pointer) picks the
// defaults.
type ClientOptions struct {
	// Conns bounds the connection pool (concurrent in-flight requests);
	// 0 means DefaultConns. The first connection is dialed eagerly (the
	// handshake is what validates the server); the rest are dialed on
	// demand as concurrency requires.
	Conns int
	// DialTimeout bounds each dial+handshake; 0 means 5 s.
	DialTimeout time.Duration
	// CacheKeys is the hot-key cache capacity in entries (16 bytes
	// each); 0 means DefaultCacheKeys, negative disables the key cache.
	// The cache is correct for the client's lifetime because the
	// handshake pins one immutable table generation: a reconnect onto
	// different tables fails loudly instead of poisoning the cache.
	CacheKeys int
	// LevelCacheBytes is the byte budget of the immutable level-block
	// cache; 0 means DefaultLevelCacheBytes, negative disables it.
	LevelCacheBytes int64
	// Retry governs how transport failures (dial errors, closed or
	// reset connections, per-attempt timeouts, corrupted frames) are
	// converted into fresh attempts with capped exponential backoff;
	// the zero value picks the defaults. See RetryPolicy.
	Retry RetryPolicy
}

// DefaultConns is the default connection-pool bound.
const DefaultConns = 4

// DefaultCacheKeys is the default hot-key cache capacity. Sized (16 MiB
// at 16 B/entry) to hold the full candidate-key working set of repeated
// meet-in-the-middle scans at k = 6, not just the direct-lookup keys:
// warm scans then resolve entirely client-side.
const DefaultCacheKeys = 1 << 20

// DefaultLevelCacheBytes is the default level-block cache budget —
// enough to retain every level key range of a k = 6 table set (≈13 MiB),
// so repeated scans stop touching the wire for level iteration at all.
const DefaultLevelCacheBytes = 32 << 20

// Client speaks the tablenet protocol to one shard server and exposes it
// as a tables.Backend. Safe for concurrent use: requests are
// multiplexed over a bounded pool of request/response connections.
//
// The client is tiered: immutable results are cached (a sharded hot-key
// cache for lookups, an aligned-block cache for level key ranges), so a
// warm client answers most reads without touching the network. See
// CacheStats for the counters.
type Client struct {
	addr   string
	opts   ClientOptions
	meta   tables.Meta
	retry  RetryPolicy
	jitter *jitterSource

	// rangeLo/rangeHi is the owned key range the first hello pinned —
	// [0, tables.RangeSpace) for a full store. Every reconnect must
	// advertise the same range or dialConn refuses with ErrOwnership: a
	// shard silently remounted with a different split file must not serve
	// through a client wired for its old position.
	rangeLo, rangeHi uint64
	// draining tracks the shard's latest announced drain state, learned
	// from hellos and ping responses; the router reads it to steer new
	// sub-batches to siblings.
	draining            atomic.Bool
	ownershipMismatches atomic.Uint64

	// Tiered read path (nil when disabled via options).
	kcache *hotKeyCache
	lcache *levelCache

	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	retries      atomic.Uint64

	// sem bounds the total number of live connections; idle holds the
	// ones not currently carrying a request.
	sem  chan struct{}
	idle chan *clientConn

	mu     sync.Mutex
	closed bool
	conns  map[*clientConn]struct{}
}

// clientConn is one pooled connection.
type clientConn struct {
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte // response frame scratch
	req []byte // request frame scratch (header + payload, one write)
	// deadline is the socket deadline currently armed, tracked so the
	// uncancellable fast path can skip two deadline syscalls per round
	// trip while the stall backstop is still fresh.
	deadline time.Time
	// helloMeta is the Meta this connection's handshake declared; conns
	// after the first must agree with the client's.
	helloMeta tables.Meta
	dead      bool
}

// Dial connects to a shard server, performs the handshake, and returns
// the client. The server's Meta (table geometry, alphabet fingerprint)
// is learned from the hello frame; pass the client to core.FromBackend,
// which verifies the fingerprint against the query alphabet.
func Dial(addr string, opts *ClientOptions) (*Client, error) {
	o := ClientOptions{}
	if opts != nil {
		o = *opts
	}
	if o.Conns <= 0 {
		o.Conns = DefaultConns
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	cl := &Client{
		addr:   addr,
		opts:   o,
		retry:  o.Retry.withDefaults(),
		jitter: newJitterSource(o.Retry.Seed),
		sem:    make(chan struct{}, o.Conns),
		idle:   make(chan *clientConn, o.Conns),
		conns:  make(map[*clientConn]struct{}),
	}
	// Dial the first connection eagerly: its hello is the handshake that
	// validates the server before any query depends on it.
	cl.sem <- struct{}{}
	cc, err := cl.dialConn()
	if err != nil {
		<-cl.sem
		return nil, err
	}
	cl.meta = cc.helloMeta
	cl.meta.Source = fmt.Sprintf("tablenet(%s)", addr)
	// The caches are keyed by what the handshake pinned — one alphabet
	// fingerprint, one table geometry — and every later connection must
	// agree with it, so entries never need invalidation.
	if o.CacheKeys >= 0 {
		ck := o.CacheKeys
		if ck == 0 {
			ck = DefaultCacheKeys
		}
		cl.kcache = newHotKeyCache(ck)
	}
	if o.LevelCacheBytes >= 0 {
		lb := o.LevelCacheBytes
		if lb == 0 {
			lb = DefaultLevelCacheBytes
		}
		cl.lcache = newLevelCache(cl.meta.LevelCounts, lb)
	}
	cl.idle <- cc
	return cl, nil
}

// dialTCP is the dial function dialConn uses — a package-level seam so
// tests can inject dial latency. (The deadline accounting dialConn
// guards is invisible over loopback, where dialing is instantaneous.)
var dialTCP = func(addr string, deadline time.Time) (net.Conn, error) {
	d := net.Dialer{Deadline: deadline}
	return d.Dial("tcp", addr)
}

// dialConn opens and handshakes one connection. The caller must already
// hold a sem slot. DialTimeout bounds dial AND hello together: one
// deadline is carved at entry and covers both, so a slow TCP connect
// cannot leave a fresh full budget for the handshake read (which would
// stretch the documented bound to ~2× DialTimeout).
func (cl *Client) dialConn() (*clientConn, error) {
	deadline := time.Now().Add(cl.opts.DialTimeout)
	c, err := dialTCP(cl.addr, deadline)
	if err != nil {
		return nil, fmt.Errorf("tablenet: dialing %s: %w", cl.addr, err)
	}
	cc := &clientConn{
		c:   c,
		br:  bufio.NewReaderSize(c, 1<<16),
		bw:  bufio.NewWriterSize(c, 1<<16),
		buf: make([]byte, 4096),
		req: make([]byte, 0, 4096),
	}
	c.SetReadDeadline(deadline)
	op, payload, err := readFrame(cc.br, cc.buf)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("tablenet: reading hello from %s: %w", cl.addr, err)
	}
	c.SetReadDeadline(time.Time{})
	if op != opHello {
		c.Close()
		return nil, fmt.Errorf("%w: expected hello, got opcode %#x", ErrProtocol, op)
	}
	h, err := parseHello(payload)
	if err != nil {
		c.Close()
		return nil, err
	}
	cc.helloMeta = h.Meta
	cl.draining.Store(h.Draining)
	// A reconnect that lands on a restarted server holding different
	// tables must fail loudly, not silently mix table generations (or
	// serve stale cache entries against new tables) — and one whose owned
	// key range moved must fail typed, so the router can refuse the
	// wiring instead of returning not-found for keys the fleet holds.
	cl.mu.Lock()
	first := cl.meta.LevelCounts == nil
	compatible := first || cl.meta.Compatible(h.Meta)
	sameRange := first || (cl.rangeLo == h.RangeLo && cl.rangeHi == h.RangeHi)
	if first {
		cl.rangeLo, cl.rangeHi = h.RangeLo, h.RangeHi
	}
	if compatible && sameRange && !cl.closed {
		cl.conns[cc] = struct{}{}
	}
	closed := cl.closed
	pinLo, pinHi := cl.rangeLo, cl.rangeHi
	cl.mu.Unlock()
	if closed {
		c.Close()
		return nil, fmt.Errorf("tablenet: client closed")
	}
	if !compatible {
		c.Close()
		return nil, fmt.Errorf("%w: server %s now serves a different table set", ErrProtocol, cl.addr)
	}
	if !sameRange {
		cl.ownershipMismatches.Add(1)
		c.Close()
		return nil, fmt.Errorf("%w: %s now advertises [%#x, %#x), handshake pinned [%#x, %#x)", ErrOwnership, cl.addr, h.RangeLo, h.RangeHi, pinLo, pinHi)
	}
	return cc, nil
}

// OwnedRange returns the key range the first hello pinned: the half-open
// [lo, hi) interval of high-32 Wang-hash space this shard owns.
func (cl *Client) OwnedRange() (lo, hi uint64) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.rangeLo, cl.rangeHi
}

// Draining reports the shard's last announced drain state (from its
// hello or a ping response).
func (cl *Client) Draining() bool { return cl.draining.Load() }

// OwnershipMismatches counts reconnects refused because the shard's
// advertised range no longer matched the pinned one.
func (cl *Client) OwnershipMismatches() uint64 { return cl.ownershipMismatches.Load() }

// Meta returns the table metadata learned during the handshake.
func (cl *Client) Meta() tables.Meta { return cl.meta }

// CacheStats snapshots the tiered read path's counters: cache hits and
// misses per tier, cache memory, and the wire bytes actually moved.
func (cl *Client) CacheStats() tables.CacheStats {
	st := tables.CacheStats{
		WireBytesRead:    cl.bytesRead.Load(),
		WireBytesWritten: cl.bytesWritten.Load(),
		WireRetries:      cl.retries.Load(),
	}
	if cl.kcache != nil {
		st.KeyHits = cl.kcache.hits.Load()
		st.KeyMisses = cl.kcache.misses.Load()
		st.CacheBytes += cl.kcache.bytes()
	}
	if cl.lcache != nil {
		st.LevelHits = cl.lcache.hits.Load()
		st.LevelMisses = cl.lcache.misses.Load()
		st.CacheBytes += cl.lcache.bytes.Load()
	}
	return st
}

// get obtains a pooled connection, dialing a new one when the pool is
// under its bound, or waiting for an idle one otherwise. pooled reports
// that the connection was reused from the idle pool (and may therefore
// be stale — its peer could have restarted since the last request).
func (cl *Client) get(ctx context.Context) (cc *clientConn, pooled bool, err error) {
	select {
	case cc := <-cl.idle:
		return cc, true, nil
	default:
	}
	select {
	case cc := <-cl.idle:
		return cc, true, nil
	case cl.sem <- struct{}{}:
		cc, err := cl.dialConn()
		if err != nil {
			<-cl.sem
			return nil, false, err
		}
		return cc, false, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// put returns a healthy connection to the pool, or retires a dead one.
func (cl *Client) put(cc *clientConn) {
	if cc.dead {
		cl.retire(cc)
		return
	}
	cl.mu.Lock()
	closed := cl.closed
	cl.mu.Unlock()
	if closed {
		cl.retire(cc)
		return
	}
	cl.idle <- cc
}

func (cl *Client) retire(cc *clientConn) {
	cc.c.Close()
	cl.mu.Lock()
	delete(cl.conns, cc)
	cl.mu.Unlock()
	<-cl.sem
}

// maxStall bounds one round trip when the context carries no deadline
// of its own: a shard host that vanishes without RST (partition, frozen
// process) must not pin a pooled connection — and its caller's
// worker-pool slot — forever.
const maxStall = 2 * time.Minute

// roundTrip sends one request frame and decodes the response. encode
// (which may be nil) appends the request payload to the connection's
// pooled frame buffer, so the whole frame — length, opcode, payload —
// is laid out once and written with a single Write: no per-request
// buffer, no second copy.
//
// ctx is honoured through the connection's I/O deadlines: the tighter
// of the ctx deadline and the retry policy's per-attempt deadline
// (attemptDL; zero means none) bounds the exchange, plain cancellation
// interrupts it (context.AfterFunc fires an immediate deadline, waking
// any blocked read/write), and maxStall backstops requests with
// neither — armed lazily, so the uncancellable unbounded path skips
// the deadline syscalls while the backstop is fresh. On any error the
// connection is marked dead (request/response framing is lost).
func (cl *Client) roundTrip(ctx context.Context, cc *clientConn, op byte, attemptDL time.Time, encode func(dst []byte) []byte) (payload []byte, err error) {
	deadline, hasDeadline := ctx.Deadline()
	if !attemptDL.IsZero() && (!hasDeadline || attemptDL.Before(deadline)) {
		deadline, hasDeadline = attemptDL, true
	}
	if hasDeadline || ctx.Done() != nil {
		if !hasDeadline {
			deadline = time.Now().Add(maxStall)
		}
		cc.c.SetDeadline(deadline)
		// Force the next lazily-armed round trip to re-arm: this
		// deadline (or a late cancellation firing the AfterFunc after we
		// return) leaves the socket with a deadline the field knows
		// nothing about.
		cc.deadline = time.Time{}
		if ctx.Done() != nil {
			stop := context.AfterFunc(ctx, func() {
				cc.c.SetDeadline(time.Now())
			})
			defer stop()
		}
	} else if cc.deadline.IsZero() || time.Until(cc.deadline) < maxStall/2 {
		cc.deadline = time.Now().Add(maxStall)
		cc.c.SetDeadline(cc.deadline)
	}
	frame := append(cc.req[:0], 0, 0, 0, 0, 0, 0, 0, 0, op)
	if encode != nil {
		frame = encode(frame)
	}
	cc.req = frame[:0]
	if len(frame)-frameHeaderLen > maxFrameLen {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds cap", ErrProtocol, len(frame)-frameHeaderLen)
	}
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-frameHeaderLen))
	binary.LittleEndian.PutUint32(frame[4:], frameSum(frame[frameHeaderLen:]))
	// Count the frame when it is offered to the transport, not after the
	// flush succeeds: a retried attempt re-sends the whole frame, and a
	// write that dies mid-flush still moved bytes. Counting up front
	// makes WireBytesWritten the true offered-load denominator — every
	// attempt, first and retried alike.
	cl.bytesWritten.Add(uint64(len(frame)))
	if _, err := cc.bw.Write(frame); err != nil {
		cc.dead = true
		return nil, err
	}
	if err := cc.bw.Flush(); err != nil {
		cc.dead = true
		return nil, err
	}
	respOp, payload, err := readFrame(cc.br, cc.buf)
	if err != nil {
		cc.dead = true
		return nil, err
	}
	cl.bytesRead.Add(uint64(frameHeaderLen + 1 + len(payload)))
	if cap(payload) > cap(cc.buf) {
		cc.buf = payload[:cap(payload)]
	}
	if respOp == opErr {
		// The server closes after an error frame; this conn is done.
		cc.dead = true
		return nil, remoteErr(payload)
	}
	if respOp != op+1 {
		cc.dead = true
		return nil, fmt.Errorf("%w: response opcode %#x to request %#x", ErrProtocol, respOp, op)
	}
	return payload, nil
}

// do runs one request/response exchange under a fresh retry budget.
// encode appends the request payload to the connection's frame scratch;
// fn decodes the response payload while the connection is still checked
// out (the payload aliases the connection's scratch buffer).
func (cl *Client) do(ctx context.Context, op byte, encode func(dst []byte) []byte, fn func(payload []byte) error) error {
	var bud retryBudget
	return cl.doBudget(ctx, &bud, op, encode, fn)
}

// doBudget is the retrying request loop. Each attempt runs under its
// own derived deadline (see RetryPolicy.AttemptTimeout); a transport
// failure — dial error, closed/reset connection, attempt timeout,
// checksum or truncated frame — is retried on a fresh connection after
// a capped, jittered exponential backoff, until the per-request attempt
// cap or the caller's shared batch budget runs out (then the last
// failure surfaces wrapped in ErrUnavailable). Deterministic failures —
// the peer's error frame, a protocol or meta violation — and an expired
// query ctx surface immediately.
//
// Retrying is sound because every request is an idempotent read of an
// immutable table generation: re-sending can change timing, never the
// answer.
func (cl *Client) doBudget(ctx context.Context, bud *retryBudget, op byte, encode func(dst []byte) []byte, fn func(payload []byte) error) error {
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := cl.attempt(ctx, cl.attemptDeadline(ctx, attempt), op, encode, fn)
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// The query's own deadline/cancellation expired (possibly
			// surfacing as an I/O error on the armed socket): report the
			// ctx cause, not the transport symptom.
			return cerr
		}
		if !retryable(err) {
			return err
		}
		if attempt >= cl.retry.MaxAttempts || bud.spent >= cl.retry.Budget {
			return cl.unavailable(attempt, err)
		}
		bud.spent++
		cl.retries.Add(1)
		if serr := cl.sleepBackoff(ctx, bud.spent); serr != nil {
			return serr
		}
	}
}

// attempt is one try: check a connection out of the pool (dialing if
// the pool is under its bound), run the exchange under the attempt
// deadline, return the connection.
func (cl *Client) attempt(ctx context.Context, attemptDL time.Time, op byte, encode func(dst []byte) []byte, fn func(payload []byte) error) error {
	cc, _, err := cl.get(ctx)
	if err != nil {
		return err
	}
	payload, err := cl.roundTrip(ctx, cc, op, attemptDL, encode)
	if err == nil && fn != nil {
		err = fn(payload)
	}
	cl.put(cc)
	return err
}

// LookupBatch implements tables.Backend: canonical keys out, packed
// values and presence back. Keys present in the hot-key cache are
// answered locally; only the misses travel (one round trip per
// maxLookupKeys chunk, on the caller's goroutine and under its ctx), and
// the fetched results — present or absent, both immutable — are cached
// for every later probe.
func (cl *Client) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	if len(vals) != len(keys) || len(found) != len(keys) {
		return fmt.Errorf("tablenet: LookupBatch slice lengths differ (%d/%d/%d)", len(keys), len(vals), len(found))
	}
	if cl.kcache == nil {
		return cl.lookupWire(ctx, keys, vals, found)
	}
	sc := batchScratchPool.Get().(*batchScratch)
	sc.grow(len(keys))
	missIdx, missKeys := sc.idx[:0], sc.keys[:0]
	for i, k := range keys {
		if v, f, ok := cl.kcache.get(k); ok {
			vals[i], found[i] = v, f
		} else {
			missIdx = append(missIdx, i)
			missKeys = append(missKeys, k)
		}
	}
	sc.idx, sc.keys = missIdx, missKeys
	cl.kcache.hits.Add(uint64(len(keys) - len(missIdx)))
	if len(missIdx) == 0 {
		batchScratchPool.Put(sc)
		return nil
	}
	cl.kcache.misses.Add(uint64(len(missIdx)))
	missVals, missFound := sc.vals[:len(missIdx)], sc.found[:len(missIdx)]
	err := cl.lookupWire(ctx, missKeys, missVals, missFound)
	if err == nil {
		for j, i := range missIdx {
			vals[i], found[i] = missVals[j], missFound[j]
			cl.kcache.put(missKeys[j], missVals[j], missFound[j])
		}
	}
	batchScratchPool.Put(sc)
	return err
}

// lookupWire resolves keys against the server, one round trip per
// maxLookupKeys chunk, encoding each request directly into the pooled
// connection frame buffer. All chunks of one batch draw retries from a
// single budget.
func (cl *Client) lookupWire(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	le := binary.LittleEndian
	var bud retryBudget
	for lo := 0; lo < len(keys); lo += maxLookupKeys {
		hi := min(lo+maxLookupKeys, len(keys))
		n := hi - lo
		chunk := keys[lo:hi]
		chunkVals, chunkFound := vals[lo:hi], found[lo:hi]
		err := cl.doBudget(ctx, &bud, opLookup, func(dst []byte) []byte {
			dst = le.AppendUint32(dst, uint32(n))
			for _, k := range chunk {
				dst = le.AppendUint64(dst, k)
			}
			return dst
		}, func(payload []byte) error {
			if len(payload) != 4+2*n+(n+7)/8 || int(le.Uint32(payload)) != n {
				return fmt.Errorf("%w: lookup response shape mismatch (%d bytes for %d keys)", ErrProtocol, len(payload), n)
			}
			bitmap := payload[4+2*n:]
			for i := 0; i < n; i++ {
				chunkVals[i] = le.Uint16(payload[4+2*i:])
				chunkFound[i] = bitmap[i/8]&(1<<(i%8)) != 0
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// LevelKeys implements tables.Backend: representative words of one cost
// level's index range. With the level cache enabled the range is served
// from aligned immutable blocks, a missing block fetched on the caller's
// goroutine and kept once fetched, so repeated scans stop re-fetching
// the hot low-level ranges entirely.
func (cl *Client) LevelKeys(ctx context.Context, c, lo int, out []uint64) error {
	if c < 0 || c > cl.meta.K {
		return fmt.Errorf("tablenet: level %d outside horizon %d", c, cl.meta.K)
	}
	if lo2, hi := cl.OwnedRange(); lo2 != 0 || hi != tables.RangeSpace {
		// A split shard holds only its range's slice of each level; a
		// dense read would silently miss the rest. Typed so callers are
		// steered to the sparse path.
		return fmt.Errorf("%w: dense level read against a shard owning [%#x, %#x); use LevelKeysSparse", tables.ErrNotOwned, lo2, hi)
	}
	count := cl.meta.LevelCounts[c]
	if lo < 0 || lo+len(out) > count {
		return fmt.Errorf("tablenet: level %d range [%d, %d) outside [0, %d)", c, lo, lo+len(out), count)
	}
	if cl.lcache == nil {
		return cl.levelWire(ctx, c, lo, out)
	}
	fetch := func(ctx context.Context, blockLo int, buf []uint64) error {
		return cl.levelWire(ctx, c, blockLo, buf)
	}
	for done := 0; done < len(out); {
		idx := (lo + done) / levelBlockKeys
		blockLo := idx * levelBlockKeys
		blockN := min(levelBlockKeys, count-blockLo)
		blk, err := cl.lcache.block(ctx, c, idx, blockN, fetch)
		if err != nil {
			return err
		}
		off := lo + done - blockLo
		n := min(len(out)-done, blockN-off)
		copy(out[done:done+n], (*blk)[off:off+n])
		done += n
	}
	return nil
}

// levelWire fetches one level range from the server, one round trip per
// maxLevelKeys chunk; as with lookups, the whole range shares one retry
// budget.
func (cl *Client) levelWire(ctx context.Context, c, lo int, out []uint64) error {
	le := binary.LittleEndian
	var bud retryBudget
	for done := 0; done < len(out); done += maxLevelKeys {
		n := min(maxLevelKeys, len(out)-done)
		start := lo + done
		dstKeys := out[done : done+n]
		err := cl.doBudget(ctx, &bud, opLevel, func(dst []byte) []byte {
			dst = le.AppendUint32(dst, uint32(c))
			dst = le.AppendUint64(dst, uint64(start))
			dst = le.AppendUint32(dst, uint32(n))
			return dst
		}, func(payload []byte) error {
			if len(payload) != 4+8*n || int(le.Uint32(payload)) != n {
				return fmt.Errorf("%w: level response shape mismatch (%d bytes for %d keys)", ErrProtocol, len(payload), n)
			}
			for i := range dstKeys {
				dstKeys[i] = le.Uint64(payload[4+8*i:])
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// LevelKeysSparse implements tables.SparseLevels over the wire: global
// level positions [lo, lo+n) are scanned server-side and only the keys
// whose high hash falls in [filterLo, filterHi) come back, as
// (position-lo, key) pairs — the level-iteration primitive of a split
// fleet, where each shard contributes its range's slice of the global
// level order. Results are not cached: the router's per-range fan-out
// already dedupes work, and sparse windows rarely repeat exactly.
func (cl *Client) LevelKeysSparse(ctx context.Context, c, lo, n int, filterLo, filterHi uint64, pos []uint32, keys []uint64) (int, error) {
	if c < 0 || c > cl.meta.K {
		return 0, fmt.Errorf("tablenet: level %d outside horizon %d", c, cl.meta.K)
	}
	count := cl.meta.LevelCounts[c]
	if lo < 0 || n < 0 || lo+n > count {
		return 0, fmt.Errorf("tablenet: sparse level %d window [%d, %d) outside [0, %d)", c, lo, lo+n, count)
	}
	if len(pos) < n || len(keys) < n {
		return 0, fmt.Errorf("tablenet: sparse level scratch smaller than window %d", n)
	}
	if filterLo >= filterHi || filterHi > tables.RangeSpace {
		return 0, fmt.Errorf("tablenet: sparse level filter [%#x, %#x)", filterLo, filterHi)
	}
	le := binary.LittleEndian
	var bud retryBudget
	total := 0
	for done := 0; done < n; done += maxLevelKeys {
		cn := min(maxLevelKeys, n-done)
		start := lo + done
		chunkBase := total
		err := cl.doBudget(ctx, &bud, opLevelSparse, func(dst []byte) []byte {
			return encodeSparseReq(dst, c, start, cn, filterLo, filterHi)
		}, func(payload []byte) error {
			// A transport retry re-runs this decoder from scratch; rewind
			// so a half-decoded earlier attempt cannot leave stale pairs.
			total = chunkBase
			if len(payload) < 4 {
				return fmt.Errorf("%w: short sparse level response", ErrProtocol)
			}
			cnt := int(le.Uint32(payload))
			if cnt > cn || len(payload) != 4+12*cnt {
				return fmt.Errorf("%w: sparse level response shape mismatch (%d bytes, %d pairs)", ErrProtocol, len(payload), cnt)
			}
			prev := -1
			for i := 0; i < cnt; i++ {
				rp := int(le.Uint32(payload[4+12*i:]))
				if rp >= cn || rp <= prev {
					return fmt.Errorf("%w: sparse level positions not strictly increasing", ErrProtocol)
				}
				prev = rp
				pos[total] = uint32(rp + done)
				keys[total] = le.Uint64(payload[8+12*i:])
				total++
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// Ping checks server liveness over a pooled connection — the probe
// /healthz uses to report a degraded router. The v3 response carries the
// shard's drain state, so pooled connections learn of a drain without
// redialing for a fresh hello; Draining reflects it afterwards.
func (cl *Client) Ping(ctx context.Context) error {
	return cl.do(ctx, opPing, nil, func(payload []byte) error {
		if len(payload) != 1 {
			return fmt.Errorf("%w: ping response carries %d bytes", ErrProtocol, len(payload))
		}
		cl.draining.Store(payload[0] != 0)
		return nil
	})
}

// ServerStats fetches the shard server's serving counters.
func (cl *Client) ServerStats(ctx context.Context) (Stats, error) {
	var st Stats
	err := cl.do(ctx, opStats, nil, func(payload []byte) error {
		var perr error
		st, perr = parseStats(payload)
		return perr
	})
	return st, err
}

// Addr returns the server address the client dials.
func (cl *Client) Addr() string { return cl.addr }

// Close severs every pooled connection. In-flight requests fail.
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	for cc := range cl.conns {
		cc.c.Close()
	}
	cl.mu.Unlock()
	// Drain idle so retained conns don't linger in the channel.
	for {
		select {
		case <-cl.idle:
		default:
			return nil
		}
	}
}
