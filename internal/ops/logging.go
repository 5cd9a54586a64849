package ops

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLogQueue is the AsyncHandler queue depth when NewAsyncHandler
// gets 0.
const DefaultLogQueue = 8192

// drainInterval is how long the drain goroutine sleeps when the queue
// is empty. Sleeping here instead of parking on the channel keeps the
// hot path honest: a send to a parked receiver pays a goroutine wakeup
// (several hundred ns of runtime handoff), while a send to a buffered
// channel nobody is blocked on is a plain enqueue. Logs tolerate
// milliseconds of delivery latency; requests don't.
const drainInterval = 5 * time.Millisecond

// AsyncHandler is a slog.Handler that moves record serialization off
// the caller's path: Handle clones the record into a bounded queue
// drained by one background goroutine, which runs the wrapped handler.
// Serializing a request log record costs microseconds — real money on
// a cached-query path — while the clone-and-enqueue costs a fraction
// of that.
//
// When the queue is full the record is dropped and counted (Dropped):
// an overloaded server must shed its own logging before it blocks its
// request path on it.
type AsyncHandler struct {
	inner slog.Handler
	q     *asyncQueue
}

// asyncQueue is the channel and drain goroutine shared by an
// AsyncHandler and every WithAttrs/WithGroup view derived from it.
type asyncQueue struct {
	ch      chan asyncEntry
	dropped atomic.Uint64
	closed  atomic.Bool
	once    sync.Once
	drained chan struct{}
}

// asyncEntry carries the record together with the handler view that
// accepted it, so WithAttrs/WithGroup transformations apply at
// serialization time. When isAccess is set the flat access entry is
// serialized directly instead (HandleAccess).
type asyncEntry struct {
	h        slog.Handler
	r        slog.Record
	access   AccessEntry
	isAccess bool
}

// AccessEntry is the per-request log record Middleware hands an
// AsyncHandler as a flat value: enqueueing one allocates nothing (the
// struct is copied into the channel buffer), and the drain goroutine
// either serializes it directly (FastJSONHandler) or expands it into
// the equivalent slog.Record for any other wrapped handler.
type AccessEntry struct {
	Time      time.Time
	Method    string
	Path      string
	Client    string
	Outcome   string
	Status    int
	Specs     int
	LatencyUS int64
	Bytes     int64
}

// record expands the entry into the slog.Record the synchronous
// logging path would have produced (same message, keys, and order).
func (e *AccessEntry) record() slog.Record {
	rec := slog.NewRecord(e.Time, slog.LevelInfo, "request", 0)
	rec.AddAttrs(
		slog.String("method", e.Method),
		slog.String("path", e.Path),
		slog.Int("status", e.Status),
		slog.Int64("latency_us", e.LatencyUS),
		slog.String("client", e.Client),
		slog.Int("specs", e.Specs),
		slog.String("outcome", e.Outcome),
		slog.Int64("bytes", e.Bytes),
	)
	return rec
}

// NewAsyncHandler wraps inner with a queue of the given depth
// (0: DefaultLogQueue). Call Close on shutdown to flush.
func NewAsyncHandler(inner slog.Handler, depth int) *AsyncHandler {
	if depth <= 0 {
		depth = DefaultLogQueue
	}
	q := &asyncQueue{ch: make(chan asyncEntry, depth), drained: make(chan struct{})}
	go func() {
		defer close(q.drained)
		for {
			select {
			case e := <-q.ch:
				if e.h == nil { // Close sentinel: everything before it is flushed
					return
				}
				switch {
				case e.isAccess:
					if fj, ok := e.h.(*FastJSONHandler); ok {
						fj.handleAccess(&e.access)
					} else {
						e.h.Handle(context.Background(), e.access.record())
					}
				default:
					e.h.Handle(context.Background(), e.r)
				}
			default:
				time.Sleep(drainInterval)
			}
		}
	}()
	return &AsyncHandler{inner: inner, q: q}
}

// Enabled reports whether the wrapped handler handles the level.
func (h *AsyncHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

// Handle clones r into the queue, never blocking: a full queue drops
// the record and counts it instead.
func (h *AsyncHandler) Handle(ctx context.Context, r slog.Record) error {
	if h.q.closed.Load() {
		return nil
	}
	select {
	case h.q.ch <- asyncEntry{h: h.inner, r: r.Clone()}:
	default:
		h.q.dropped.Add(1)
	}
	return nil
}

// HandleAccess enqueues a request-log entry without allocating: the
// struct is copied into the channel buffer, and both serialization and
// even record construction (when the wrapped handler needs one) happen
// on the drain goroutine. A full queue drops the entry like Handle
// does.
func (h *AsyncHandler) HandleAccess(e AccessEntry) {
	if h.q.closed.Load() {
		return
	}
	select {
	case h.q.ch <- asyncEntry{h: h.inner, access: e, isAccess: true}:
	default:
		h.q.dropped.Add(1)
	}
}

// WithAttrs returns a view sharing this handler's queue; the attrs are
// applied by the wrapped handler at serialization time.
func (h *AsyncHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &AsyncHandler{inner: h.inner.WithAttrs(attrs), q: h.q}
}

// WithGroup returns a view sharing this handler's queue.
func (h *AsyncHandler) WithGroup(name string) slog.Handler {
	return &AsyncHandler{inner: h.inner.WithGroup(name), q: h.q}
}

// Dropped returns how many records were discarded on a full queue.
func (h *AsyncHandler) Dropped() uint64 { return h.q.dropped.Load() }

// Close stops accepting records and returns once every record accepted
// before the call has reached the wrapped handler.
func (h *AsyncHandler) Close() {
	h.q.once.Do(func() {
		h.q.closed.Store(true)
		h.q.ch <- asyncEntry{} // FIFO: flushes everything enqueued before
	})
	<-h.q.drained
}
