package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tablenet"
	"repro/internal/tables"
)

// spanKind names the layer seam a span crossed.
type spanKind uint8

const (
	spanOps        spanKind = iota // ops.Middleware.ServeHTTP
	spanHandler                    // the handler ops.Middleware wraps
	spanService                    // service.Synthesizer.Synthesize
	spanFederation                 // core's reads of its backend, a Federation
	spanTier0                      // the Federation's reads of its k=3 tier
	spanTier1                      // the Federation's reads of its k=6 tier
	spanClient                     // a Router's reads of one shard client
	spanShard                      // a shard server's reads of its store
	spanExpand                     // extbuild's expand phase, from Progress
	spanMerge                      // extbuild's merge phase
	spanEmit                       // extbuild's emit phase
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"ops", "handler", "service", "federation", "tier0", "tier1", "client", "shard", "expand", "merge", "emit"}

// span is one timed call across a layer seam. Spans caused by the same
// request share its root through parent links; a shard server's spans
// are roots of their own, because the request crossed a socket. A
// fleet-mix run records millions, so the struct is kept small.
type span struct {
	start, end time.Duration // since the tracer's origin
	// n is the call's work count: keys for a lookup, candidates for a
	// query, the level for a build phase.
	n          int64
	id, parent uint32
	kind       spanKind
	// direct marks a query answered by direct lookup.
	direct bool
}

func (s span) dur() time.Duration { return s.end - s.start }

// spanChunk is the capacity of one block of recorded spans: blocks are
// never copied as the record grows.
const spanChunk = 1 << 16

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing.
type tracer struct {
	origin time.Time
	ids    atomic.Uint32
	mu     sync.Mutex
	chunks [][]span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

type spanKey struct{}

// openSpan is a span begun and not yet ended.
type openSpan struct {
	id, parent uint32
	kind       spanKind
	start      time.Duration
}

// begin opens a span of the given kind under the span carried by ctx,
// if any, and returns a context carrying the new span.
func (t *tracer) begin(ctx context.Context, kind spanKind) (context.Context, openSpan) {
	if t == nil {
		return ctx, openSpan{}
	}
	parent, _ := ctx.Value(spanKey{}).(uint32)
	o := openSpan{id: t.ids.Add(1), parent: parent, kind: kind, start: time.Since(t.origin)}
	return context.WithValue(ctx, spanKey{}, o.id), o
}

// end records an open span with its work count.
func (t *tracer) end(o openSpan, n int64, direct bool) {
	if t == nil {
		return
	}
	t.add(span{id: o.id, parent: o.parent, kind: o.kind, start: o.start, end: time.Since(t.origin), n: n, direct: direct})
}

// call runs fn as a span of the given kind, handing it the span's
// context.
func (t *tracer) call(ctx context.Context, kind spanKind, n int64, fn func(context.Context) error) error {
	ctx, o := t.begin(ctx, kind)
	err := fn(ctx)
	t.end(o, n, false)
	return err
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if n := len(t.chunks); n == 0 || len(t.chunks[n-1]) == spanChunk {
		t.chunks = append(t.chunks, make([]span, 0, spanChunk))
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, s)
	t.mu.Unlock()
}

// each calls fn on every recorded span, in the order they ended. Call
// it once recording has stopped.
func (t *tracer) each(fn func(span)) {
	for _, c := range t.chunks {
		for _, s := range c {
			fn(s)
		}
	}
}

// reset drops the spans recorded so far (the set-up's), keeping ids
// unique.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.chunks = nil
	t.mu.Unlock()
}

// write stores the spans as text, one per line:
// id parent kind start_ns end_ns n direct.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.each(func(s span) {
		fmt.Fprintf(w, "%d %d %s %d %d %d %t\n", s.id, s.parent, spanNames[s.kind], s.start, s.end, s.n, s.direct)
	})
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime returns a span's duration minus the part of its interval
// that its children cover. Children may overlap one another (a
// prefetch runs beside a lookup), so the covered part is the length of
// the union of their intervals, clipped to the parent's.
func selfTime(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// timedHandler records a span around an http.Handler and carries the
// span into the request's context.
type timedHandler struct {
	next http.Handler
	t    *tracer
	kind spanKind
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.t.call(r.Context(), h.kind, 0, func(ctx context.Context) error {
		h.next.ServeHTTP(w, r.WithContext(ctx))
		return nil
	})
}

// The backend decorators below time the reads one layer makes of the
// next. Each embeds the concrete backend it wraps, so every method —
// and with it every optional interface the backend implements
// (tables.BoundedLookuper, TierResolver, RangeOwner, CacheStatser,
// SparseLevels, and the fleet's health and drain hooks) — is forwarded
// unchanged; only the read calls are overridden. None of the wrapped
// types implements tables.Localized: wrapping a local table would move
// core off its direct probe loop (see mustNotBeLocal).

// timedFederation times core's reads of its Federation backend.
type timedFederation struct {
	*tablenet.Federation
	t *tracer
}

func (b timedFederation) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	return b.t.call(ctx, spanFederation, int64(len(keys)), func(ctx context.Context) error {
		return b.Federation.LookupBatch(ctx, keys, vals, found)
	})
}

func (b timedFederation) LookupBatchBounded(ctx context.Context, keys []uint64, vals []uint16, found []bool, bound int) error {
	return b.t.call(ctx, spanFederation, int64(len(keys)), func(ctx context.Context) error {
		return b.Federation.LookupBatchBounded(ctx, keys, vals, found, bound)
	})
}

func (b timedFederation) LevelKeys(ctx context.Context, c, lo int, out []uint64) error {
	return b.t.call(ctx, spanFederation, 0, func(ctx context.Context) error {
		return b.Federation.LevelKeys(ctx, c, lo, out)
	})
}

// timedRouter times a Federation's reads of one tier.
type timedRouter struct {
	*tablenet.Router
	t    *tracer
	kind spanKind
}

func (b timedRouter) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	return b.t.call(ctx, b.kind, int64(len(keys)), func(ctx context.Context) error {
		return b.Router.LookupBatch(ctx, keys, vals, found)
	})
}

func (b timedRouter) LevelKeys(ctx context.Context, c, lo int, out []uint64) error {
	return b.t.call(ctx, b.kind, 0, func(ctx context.Context) error {
		return b.Router.LevelKeys(ctx, c, lo, out)
	})
}

// timedClient times a Router's reads of one shard client.
type timedClient struct {
	*tablenet.Client
	t *tracer
}

func (b timedClient) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	return b.t.call(ctx, spanClient, int64(len(keys)), func(ctx context.Context) error {
		return b.Client.LookupBatch(ctx, keys, vals, found)
	})
}

func (b timedClient) LevelKeys(ctx context.Context, c, lo int, out []uint64) error {
	return b.t.call(ctx, spanClient, 0, func(ctx context.Context) error {
		return b.Client.LevelKeys(ctx, c, lo, out)
	})
}

func (b timedClient) LevelKeysSparse(ctx context.Context, c, lo, n int, filterLo, filterHi uint64, pos []uint32, keys []uint64) (int, error) {
	var got int
	err := b.t.call(ctx, spanClient, 0, func(ctx context.Context) error {
		var err error
		got, err = b.Client.LevelKeysSparse(ctx, c, lo, n, filterLo, filterHi, pos, keys)
		return err
	})
	return got, err
}

// timedPartial times a shard server's reads of its split store.
type timedPartial struct {
	*tables.Partial
	t *tracer
}

func (b timedPartial) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	return b.t.call(ctx, spanShard, int64(len(keys)), func(ctx context.Context) error {
		return b.Partial.LookupBatch(ctx, keys, vals, found)
	})
}

func (b timedPartial) LevelKeys(ctx context.Context, c, lo int, out []uint64) error {
	return b.t.call(ctx, spanShard, 0, func(ctx context.Context) error {
		return b.Partial.LevelKeys(ctx, c, lo, out)
	})
}

func (b timedPartial) LevelKeysSparse(ctx context.Context, c, lo, n int, filterLo, filterHi uint64, pos []uint32, keys []uint64) (int, error) {
	var got int
	err := b.t.call(ctx, spanShard, 0, func(ctx context.Context) error {
		var err error
		got, err = b.Partial.LevelKeysSparse(ctx, c, lo, n, filterLo, filterHi, pos, keys)
		return err
	})
	return got, err
}

// Compile-time checks that the decorators keep the optional interfaces
// their layers rely on.
var (
	_ tables.BoundedLookuper = timedFederation{}
	_ tables.TierResolver    = timedFederation{}
	_ tables.CacheStatser    = timedFederation{}
	_ tables.TierStatser     = timedFederation{}
	_ tables.CacheStatser    = timedRouter{}
	_ tables.HealthStatser   = timedRouter{}
	_ tables.RangeOwner      = timedClient{}
	_ tables.SparseLevels    = timedClient{}
	_ tables.CacheStatser    = timedClient{}
	_ tables.RangeOwner      = timedPartial{}
	_ tables.SparseLevels    = timedPartial{}
)

// mustNotBeLocal panics if a decorator was handed a backend that core
// would read through its local probe loop: a bug in the benchmark.
func mustNotBeLocal(b tables.Backend) tables.Backend {
	if _, ok := b.(tables.Localized); ok {
		panic(fmt.Sprintf("perfbench: refusing to wrap local backend %T", b))
	}
	return b
}
