package ops

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestGateAdmissionAndShed(t *testing.T) {
	g := NewGate(2, 3*time.Second)
	rel1, _, ok := g.Acquire()
	if !ok {
		t.Fatal("first acquire rejected")
	}
	rel2, _, ok := g.Acquire()
	if !ok {
		t.Fatal("second acquire rejected")
	}
	_, retryAfter, ok := g.Acquire()
	if ok {
		t.Fatal("acquire beyond bound admitted")
	}
	if retryAfter != 3*time.Second {
		t.Fatalf("retryAfter = %v, want 3s", retryAfter)
	}
	if g.Depth() != 2 || g.Shed() != 1 {
		t.Fatalf("depth=%d shed=%d, want 2, 1", g.Depth(), g.Shed())
	}
	rel1()
	rel1() // double release must not free a second slot
	if g.Depth() != 1 {
		t.Fatalf("depth after double release = %d, want 1", g.Depth())
	}
	if _, _, ok := g.Acquire(); !ok {
		t.Fatal("acquire after release rejected")
	}
	rel2()
}

func TestMiddlewareRateLimit429(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, "test")
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}), MiddlewareConfig{
		Limiter: NewRateLimiter(RateConfig{Rate: 0.001, Burst: 1}),
		Metrics: m,
	})
	req := httptest.NewRequest("GET", "/synthesize", nil)
	req.RemoteAddr = "10.0.0.1:4444"
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("first request status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want whole positive seconds", ra)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("rejection content type %q", ct)
	}
	var body struct {
		Err        string `json:"err"`
		RetryAfter int    `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("rejection body not JSON: %v (%q)", err, rec.Body.String())
	}
	if body.RetryAfter < 1 {
		t.Fatalf("retry_after_seconds = %d", body.RetryAfter)
	}
	if m.ratelimited.Value() != 1 {
		t.Fatalf("ratelimited counter = %d, want 1", m.ratelimited.Value())
	}
	// A different API key is a different principal: still admitted.
	req2 := httptest.NewRequest("GET", "/synthesize", nil)
	req2.RemoteAddr = "10.0.0.1:4444"
	req2.Header.Set("X-Api-Key", "tenant-b")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req2)
	if rec.Code != http.StatusOK {
		t.Fatalf("keyed client status %d, want 200", rec.Code)
	}
}

func TestMiddlewareShed503(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, "test")
	entered := make(chan struct{})
	unblock := make(chan struct{})
	var enterOnce sync.Once
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enterOnce.Do(func() { close(entered) })
		<-unblock
		w.Write([]byte("ok"))
	}), MiddlewareConfig{Gate: NewGate(1, 0), Metrics: m})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/synthesize", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("admitted request status %d", rec.Code)
		}
	}()
	<-entered // the slot is held
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/synthesize", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-depth request status %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want %q (DefaultRetryAfter rounded)", ra, "1")
	}
	if m.shed.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", m.shed.Value())
	}
	close(unblock)
	wg.Wait()
	// The slot came back: the next request is admitted.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/synthesize", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-drain request status %d, want 200", rec.Code)
	}
}

func TestMiddlewareStructuredLog(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ri := Info(w); ri != nil {
			ri.Specs = 3
			ri.Outcome = "ok"
		}
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("body!"))
	}), MiddlewareConfig{Logger: logger})
	req := httptest.NewRequest("POST", "/synthesize", nil)
	req.RemoteAddr = "192.0.2.9:1234"
	h.ServeHTTP(httptest.NewRecorder(), req)

	var rec map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &rec); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, buf.String())
	}
	want := map[string]any{
		"msg": "request", "method": "POST", "path": "/synthesize",
		"status": float64(http.StatusTeapot), "client": "192.0.2.9",
		"specs": float64(3), "outcome": "ok", "bytes": float64(5),
	}
	for k, v := range want {
		if rec[k] != v {
			t.Errorf("log[%q] = %v, want %v", k, rec[k], v)
		}
	}
	if _, ok := rec["latency_us"]; !ok {
		t.Error("log missing latency_us")
	}
}

func TestMiddlewareLogsRejections(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}),
		MiddlewareConfig{
			Limiter: NewRateLimiter(RateConfig{Rate: 0.001, Burst: 1}),
			Logger:  logger,
		})
	req := httptest.NewRequest("GET", "/synthesize", nil)
	req.RemoteAddr = "10.1.1.1:9"
	h.ServeHTTP(httptest.NewRecorder(), req)
	h.ServeHTTP(httptest.NewRecorder(), req)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d log lines, want 2", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["outcome"] != "ratelimited" || rec["status"] != float64(429) {
		t.Fatalf("rejection log = %v", rec)
	}
}

func TestStatusWriterDefaults(t *testing.T) {
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("implicit 200"))
	}), MiddlewareConfig{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Body.String() != "implicit 200" {
		t.Fatalf("body %q", rec.Body.String())
	}
}

func TestClientKeyDefault(t *testing.T) {
	r := httptest.NewRequest("GET", "/", nil)
	r.RemoteAddr = "198.51.100.7:55555"
	if got := ClientKeyDefault(r); got != "198.51.100.7" {
		t.Fatalf("ip key = %q", got)
	}
	r.Header.Set("X-Api-Key", "tenant-a")
	if got := ClientKeyDefault(r); got != "tenant-a" {
		t.Fatalf("api key = %q", got)
	}
}

func TestMiddlewareAsyncLogMatchesSync(t *testing.T) {
	// The HandleAccess fast path must emit the same record fields as the
	// synchronous slog path.
	run := func(logger *slog.Logger) {
		h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if ri := Info(w); ri != nil {
				ri.Specs = 2
				ri.Outcome = "ok"
			}
			w.Write([]byte("ok!")) // implicit 200
		}), MiddlewareConfig{Logger: logger})
		req := httptest.NewRequest("GET", "/synthesize?spec=x", nil)
		req.RemoteAddr = "192.0.2.7:99"
		h.ServeHTTP(httptest.NewRecorder(), req)
	}

	var syncBuf strings.Builder
	run(slog.New(slog.NewJSONHandler(&syncBuf, nil)))

	var asyncBuf strings.Builder
	ah := NewAsyncHandler(slog.NewJSONHandler(&asyncBuf, nil), 16)
	run(slog.New(ah))
	ah.Close()

	parse := func(s string) map[string]any {
		var rec map[string]any
		if err := json.Unmarshal([]byte(strings.TrimSpace(s)), &rec); err != nil {
			t.Fatalf("log line not JSON: %v (%q)", err, s)
		}
		// Timing fields necessarily differ between the two runs.
		delete(rec, "time")
		delete(rec, "latency_us")
		return rec
	}
	syncRec, asyncRec := parse(syncBuf.String()), parse(asyncBuf.String())
	if !reflect.DeepEqual(syncRec, asyncRec) {
		t.Fatalf("async record %v != sync record %v", asyncRec, syncRec)
	}
	for _, k := range []string{"method", "path", "status", "client", "specs", "outcome", "bytes"} {
		if _, ok := asyncRec[k]; !ok {
			t.Errorf("async record missing %q", k)
		}
	}
}

// BenchmarkMiddlewareOverhead prices the traffic layer in process,
// where a ~1 µs effect is resolvable (differencing two loopback HTTP
// runs of tens of µs is not). bare and middleware serve a no-op
// handler without and with Middleware (rate limiter, admission gate
// and metrics; logging off): their difference is the request path's
// tax. async-log prices the production log pipeline per record:
// AccessEntry records enqueued in batches into an AsyncHandler over a
// FastJSONHandler, each batch flushed by Close, so every record's
// serialization is charged and none is dropped. The middleware's full
// cost is (middleware − bare) + async-log.
func BenchmarkMiddlewareOverhead(b *testing.B) {
	noop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	wrapped := Middleware(noop, MiddlewareConfig{
		Limiter: NewRateLimiter(RateConfig{Rate: 1e12, Burst: 1e12}),
		Gate:    NewGate(1<<20, 0),
		Metrics: NewHTTPMetrics(NewRegistry(), "bench"),
	})
	for _, tc := range []struct {
		name string
		h    http.Handler
	}{{"bare", noop}, {"middleware", wrapped}} {
		b.Run(tc.name, func(b *testing.B) {
			req := httptest.NewRequest("GET", "/synthesize?spec=x", nil)
			req.RemoteAddr = "10.0.0.7:4242"
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.h.ServeHTTP(httptest.NewRecorder(), req)
			}
		})
	}
	b.Run("async-log", func(b *testing.B) {
		const batch = 4096
		e := AccessEntry{
			Time: time.Now(), Method: "GET", Path: "/synthesize",
			Client: "10.0.0.7", Outcome: "cached",
			Status: 200, Specs: 1, LatencyUS: 412, Bytes: 57,
		}
		for left := b.N; left > 0; left -= batch {
			ah := NewAsyncHandler(NewFastJSONHandler(io.Discard, nil), 2*batch)
			for j := min(left, batch); j > 0; j-- {
				ah.HandleAccess(e)
			}
			ah.Close()
			if n := ah.Dropped(); n > 0 {
				b.Fatalf("%d records dropped", n)
			}
		}
	})
}
