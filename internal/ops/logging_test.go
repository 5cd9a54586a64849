package ops

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncWriter serializes concurrent writes from the drain goroutine and
// the test's reads.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

func TestAsyncHandlerFlushOnClose(t *testing.T) {
	var buf syncWriter
	h := NewAsyncHandler(slog.NewJSONHandler(&buf, nil), 64)
	logger := slog.New(h)
	for i := 0; i < 10; i++ {
		logger.Info("request", "i", i)
	}
	h.Close()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("%d records flushed, want 10", len(lines))
	}
	// FIFO: serialization must preserve enqueue order.
	for i, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if rec["i"] != float64(i) {
			t.Fatalf("line %d has i=%v, want %d", i, rec["i"], i)
		}
	}
	if h.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", h.Dropped())
	}
	// Records after Close are ignored, not a panic.
	logger.Info("late")
}

func TestAsyncHandlerDropsOnFullQueue(t *testing.T) {
	blocked := make(chan struct{})
	var buf syncWriter
	inner := slog.NewJSONHandler(&buf, nil)
	h := NewAsyncHandler(&gatedHandler{Handler: inner, gate: blocked}, 2)
	logger := slog.New(h)
	// The drainer stalls on the first record; two more fill the queue;
	// everything beyond that must drop, not block.
	for i := 0; i < 10; i++ {
		logger.Info("request", "i", i)
	}
	if h.Dropped() == 0 {
		t.Fatal("full queue did not drop")
	}
	close(blocked)
	h.Close()
	if got := h.Dropped(); got < 7 {
		t.Fatalf("Dropped = %d, want >= 7", got)
	}
}

// gatedHandler blocks every Handle until gate closes, simulating a
// slow log sink.
type gatedHandler struct {
	slog.Handler
	gate <-chan struct{}
}

func (g *gatedHandler) Handle(ctx context.Context, r slog.Record) error {
	<-g.gate
	return g.Handler.Handle(ctx, r)
}

func TestAsyncHandlerWithAttrs(t *testing.T) {
	var buf syncWriter
	h := NewAsyncHandler(slog.NewJSONHandler(&buf, nil), 16)
	logger := slog.New(h).With("role", "router")
	logger.Info("request", "status", 200)
	h.Close()
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["role"] != "router" || rec["status"] != float64(200) {
		t.Fatalf("record = %v", rec)
	}
}

// The middleware's claim: enqueueing an access entry allocates nothing
// on the request path.
func TestHandleAccessAllocs(t *testing.T) {
	ah := NewAsyncHandler(NewFastJSONHandler(io.Discard, nil), 1<<15)
	defer ah.Close()
	e := AccessEntry{
		Time: time.Now(), Method: "GET", Path: "/synthesize",
		Client: "10.0.0.7", Outcome: "cached",
		Status: 200, Specs: 1, LatencyUS: 412, Bytes: 57,
	}
	if allocs := testing.AllocsPerRun(1000, func() { ah.HandleAccess(e) }); allocs != 0 {
		t.Errorf("HandleAccess allocates %.1f per call, want 0", allocs)
	}
}
