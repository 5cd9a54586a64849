package main

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/ops"
	"repro/internal/service"
	"repro/internal/tablenet"
	"repro/internal/tables"
)

// opsOptions configures the traffic layer from flags.
type opsOptions struct {
	// Rate/Burst bound each client (X-Api-Key, else remote IP);
	// GlobalRate/GlobalBurst bound the whole process. Zero disables the
	// corresponding bucket.
	Rate        float64
	Burst       int
	GlobalRate  float64
	GlobalBurst int
	// MaxInflight is the load-shed admission bound on concurrent API
	// requests: 0 derives 8× the worker-pool size (the pool plus a
	// bounded queue), negative disables shedding.
	MaxInflight int
	Workers     int
	// RequestLog emits one structured JSON record per API request.
	RequestLog bool
	// LogWriter receives the request log (nil: os.Stderr).
	LogWriter io.Writer
}

// opsLayer bundles the traffic layer revserve wraps its API endpoints
// with: rate limiter, admission gate, metric registry, request logger.
type opsLayer struct {
	registry *ops.Registry
	limiter  *ops.RateLimiter
	gate     *ops.Gate
	metrics  *ops.HTTPMetrics
	logger   *slog.Logger
	asyncLog *ops.AsyncHandler
}

// fleetCollector is the metrics-facing slice of a shard-fleet backend,
// satisfied by both *tablenet.Router and *tablenet.SwapBackend.
type fleetCollector interface {
	HealthStats() []tables.Health
	DrainRerouted() uint64
	OwnershipMismatches() uint64
	Residency(ctx context.Context) []tablenet.ShardResidency
}

// newOpsLayer builds the traffic layer and registers every /metrics
// collector: middleware families, service counters and query-latency
// histogram, result-LRU counters, tablenet client cache tiers, and —
// when serving as a router — per-replica breaker state, drain/ownership
// counters, per-replica store residency, and (under -topology) the
// installed generation via generation.
func newOpsLayer(svc *service.Synthesizer, fleet fleetCollector, generation func() uint64, opt opsOptions) *opsLayer {
	l := &opsLayer{registry: ops.NewRegistry()}
	l.metrics = ops.NewHTTPMetrics(l.registry, "revserve")
	if opt.Rate > 0 || opt.GlobalRate > 0 {
		l.limiter = ops.NewRateLimiter(ops.RateConfig{
			Rate:        opt.Rate,
			Burst:       float64(opt.Burst),
			GlobalRate:  opt.GlobalRate,
			GlobalBurst: float64(opt.GlobalBurst),
		})
	}
	switch {
	case opt.MaxInflight > 0:
		l.gate = ops.NewGate(opt.MaxInflight, 0)
	case opt.MaxInflight == 0:
		workers := opt.Workers
		if workers < 1 {
			workers = 1
		}
		l.gate = ops.NewGate(8*workers, 0)
	}
	if opt.RequestLog {
		w := opt.LogWriter
		if w == nil {
			w = os.Stderr
		}
		// Record assembly and serialization run on a background
		// goroutine (AsyncHandler over the flat-JSON handler): the
		// request path pays only a closure and a buffered send, and an
		// overloaded process drops log records rather than blocking
		// requests on its own logging. close() flushes at shutdown.
		l.asyncLog = ops.NewAsyncHandler(ops.NewFastJSONHandler(w, nil), 0)
		l.logger = slog.New(l.asyncLog)
	}
	registerServiceCollectors(l.registry, svc)
	registerTrafficCollectors(l.registry, l.limiter, l.gate)
	if fleet != nil {
		registerRouterCollectors(l.registry, fleet, generation)
	}
	return l
}

// close flushes the request log queue. Call after the HTTP server has
// stopped accepting requests.
func (l *opsLayer) close() {
	if l.asyncLog != nil {
		if dropped := l.asyncLog.Dropped(); dropped > 0 {
			l.logger.Warn("request log records dropped under load", "dropped", dropped)
		}
		l.asyncLog.Close()
	}
}

// wrap applies the traffic layer to one API endpoint.
func (l *opsLayer) wrap(h http.Handler) http.Handler {
	return ops.Middleware(h, ops.MiddlewareConfig{
		Limiter: l.limiter,
		Gate:    l.gate,
		Metrics: l.metrics,
		Logger:  l.logger,
	})
}

// registerServiceCollectors exports the Synthesizer's serving counters,
// result-LRU counters, pool gauges, the end-to-end query-latency
// histogram, and — when the backend keeps them — the tiered remote
// cache counters. Everything reads one Stats snapshot per sample at
// scrape time: counters live in the service, not duplicated here.
func registerServiceCollectors(r *ops.Registry, svc *service.Synthesizer) {
	counter := func(name, help string, get func(service.Stats) uint64) {
		r.Collect(name, help, "counter", func(emit func([]ops.Label, float64)) {
			emit(nil, float64(get(svc.Stats())))
		})
	}
	gauge := func(name, help string, get func(service.Stats) float64) {
		r.Collect(name, help, "gauge", func(emit func([]ops.Label, float64)) {
			emit(nil, get(svc.Stats()))
		})
	}
	counter("revserve_service_queries_total", "Queries received (including cache hits and rejections).",
		func(st service.Stats) uint64 { return st.Queries })
	counter("revserve_service_errors_total", "Failed queries.",
		func(st service.Stats) uint64 { return st.Errors })
	counter("revserve_service_canceled_total", "Failed queries that were context cancellations/timeouts.",
		func(st service.Stats) uint64 { return st.Canceled })
	counter("revserve_cache_hits_total", "Result-LRU hits.",
		func(st service.Stats) uint64 { return st.CacheHits })
	counter("revserve_cache_misses_total", "Result-LRU misses.",
		func(st service.Stats) uint64 { return st.CacheMisses })
	counter("revserve_direct_total", "Successful direct-lookup answers.",
		func(st service.Stats) uint64 { return st.Direct })
	counter("revserve_mitm_total", "Successful meet-in-the-middle answers.",
		func(st service.Stats) uint64 { return st.MITM })
	gauge("revserve_service_ready", "1 once the tables are servable.",
		func(st service.Stats) float64 {
			if st.Ready {
				return 1
			}
			return 0
		})
	gauge("revserve_service_workers", "Worker-pool bound.",
		func(st service.Stats) float64 { return float64(st.Workers) })
	gauge("revserve_service_in_flight", "Queries currently holding a worker slot.",
		func(st service.Stats) float64 { return float64(st.InFlight) })
	gauge("revserve_service_waiting", "Queries blocked waiting for a worker slot.",
		func(st service.Stats) float64 { return float64(st.Waiting) })
	r.HistogramFrom("revserve_query_duration_seconds",
		"End-to-end query latency (every query, cached and failed alike).",
		service.LatencyBucketBounds,
		func() []uint64 { return svc.Stats().LatencyBuckets },
		func() float64 { return svc.Stats().LatencySum })

	// Remote-cache tiers: present only when the backend keeps caches (a
	// tablenet client or router); the collectors emit nothing otherwise.
	remote := func(name, help, typ string, emitStats func(emit func([]ops.Label, float64), rc service.Stats)) {
		r.Collect(name, help, typ, func(emit func([]ops.Label, float64)) {
			st := svc.Stats()
			if st.RemoteCache == nil {
				return
			}
			emitStats(emit, st)
		})
	}
	remote("revserve_remote_cache_hits_total", "Remote-cache hits by tier.", "counter",
		func(emit func([]ops.Label, float64), st service.Stats) {
			emit([]ops.Label{{Name: "tier", Value: "key"}}, float64(st.RemoteCache.KeyHits))
			emit([]ops.Label{{Name: "tier", Value: "level"}}, float64(st.RemoteCache.LevelHits))
		})
	remote("revserve_remote_cache_misses_total", "Remote-cache misses by tier.", "counter",
		func(emit func([]ops.Label, float64), st service.Stats) {
			emit([]ops.Label{{Name: "tier", Value: "key"}}, float64(st.RemoteCache.KeyMisses))
			emit([]ops.Label{{Name: "tier", Value: "level"}}, float64(st.RemoteCache.LevelMisses))
		})
	remote("revserve_remote_cache_bytes", "Memory held by the remote-read caches.", "gauge",
		func(emit func([]ops.Label, float64), st service.Stats) {
			emit(nil, float64(st.RemoteCache.CacheBytes))
		})
	remote("revserve_remote_wire_bytes_total", "Protocol bytes moved, by direction.", "counter",
		func(emit func([]ops.Label, float64), st service.Stats) {
			emit([]ops.Label{{Name: "dir", Value: "read"}}, float64(st.RemoteCache.WireBytesRead))
			emit([]ops.Label{{Name: "dir", Value: "written"}}, float64(st.RemoteCache.WireBytesWritten))
		})
	remote("revserve_remote_wire_retries_total", "Request attempts re-sent after retryable transport failures.", "counter",
		func(emit func([]ops.Label, float64), st service.Stats) {
			emit(nil, float64(st.RemoteCache.WireRetries))
		})
	remote("revserve_remote_cache_hit_ratio", "Remote-cache hit fraction by tier (derived at scrape time).", "gauge",
		func(emit func([]ops.Label, float64), st service.Stats) {
			emit([]ops.Label{{Name: "tier", Value: "key"}}, st.RemoteCache.KeyHitRatio())
			emit([]ops.Label{{Name: "tier", Value: "level"}}, st.RemoteCache.LevelHitRatio())
		})

	// Federation tiers: present only when the backend routes over
	// per-k fleets; one series per tier, labeled by table depth.
	tier := func(name, help, typ string, get func(tables.TierStats) float64) {
		r.Collect(name, help, typ, func(emit func([]ops.Label, float64)) {
			for _, ts := range svc.Stats().Tiers {
				emit([]ops.Label{{Name: "k", Value: strconv.Itoa(ts.K)}}, get(ts))
			}
		})
	}
	tier("revserve_tier_probes_total", "Keys offered to each federation tier.", "counter",
		func(ts tables.TierStats) float64 { return float64(ts.Probes) })
	tier("revserve_tier_hits_total", "Keys answered by each federation tier.", "counter",
		func(ts tables.TierStats) float64 { return float64(ts.Hits) })
	tier("revserve_tier_level_reads_total", "Level-range reads routed to each federation tier.", "counter",
		func(ts tables.TierStats) float64 { return float64(ts.LevelReads) })
	tier("revserve_tier_errors_total", "Reads (probe batches and level reads) that failed on each federation tier; each moves on to the next deeper tier, if any.", "counter",
		func(ts tables.TierStats) float64 { return float64(ts.TierErrors) })
	tier("revserve_tier_horizon", "Each federation tier's synthesis horizon.", "gauge",
		func(ts tables.TierStats) float64 { return float64(ts.Horizon) })
}

// registerTrafficCollectors exports the rate limiter's and admission
// gate's own state (the rejection counters live in HTTPMetrics).
func registerTrafficCollectors(r *ops.Registry, limiter *ops.RateLimiter, gate *ops.Gate) {
	if limiter != nil {
		r.Collect("revserve_ratelimit_allowed_total", "Requests admitted by the rate limiter.", "counter",
			func(emit func([]ops.Label, float64)) {
				allowed, _ := limiter.Stats()
				emit(nil, float64(allowed))
			})
		r.GaugeFunc("revserve_ratelimit_clients", "Client buckets currently tracked.",
			func() float64 { return float64(limiter.Clients()) })
	}
	if gate != nil {
		r.GaugeFunc("revserve_admission_depth", "Admitted API requests in flight.",
			func() float64 { return float64(gate.Depth()) })
		r.GaugeFunc("revserve_admission_max", "Admission bound (-max-inflight).",
			func() float64 { return float64(gate.Max()) })
	}
}

// registerRouterCollectors exports the fleet-facing families for the
// router roles: per-replica breaker state (one-hot plus the
// failure/ejection counters the health trackers keep), the live-fleet
// counters (drain reroutes, ownership-mismatch refusals), per-replica
// store residency (the shards' mincore stats, one bounded probe per
// replica per scrape), and — when generation is non-nil, i.e. under
// -topology — the installed topology generation.
func registerRouterCollectors(r *ops.Registry, router fleetCollector, generation func() uint64) {
	replicaLabels := func(addr string, rng int) []ops.Label {
		return []ops.Label{
			{Name: "addr", Value: addr},
			{Name: "range", Value: strconv.Itoa(rng)},
		}
	}
	r.Collect("revserve_replica_state", `Replica breaker state, one-hot over state="healthy|half-open|ejected".`, "gauge",
		func(emit func([]ops.Label, float64)) {
			for _, h := range router.HealthStats() {
				labels := append(replicaLabels(h.Addr, h.Range), ops.Label{Name: "state", Value: h.State})
				emit(labels, 1)
			}
		})
	r.Collect("revserve_replica_ejections_total", "Lifetime breaker ejections per replica.", "counter",
		func(emit func([]ops.Label, float64)) {
			for _, h := range router.HealthStats() {
				emit(replicaLabels(h.Addr, h.Range), float64(h.Ejections))
			}
		})
	r.Collect("revserve_replica_consecutive_failures", "Current unbroken failure run per replica.", "gauge",
		func(emit func([]ops.Label, float64)) {
			for _, h := range router.HealthStats() {
				emit(replicaLabels(h.Addr, h.Range), float64(h.ConsecutiveFailures))
			}
		})
	r.Collect("revserve_drain_rerouted_total", "Lookup sub-batches and level reads steered away from a draining replica to a live sibling.", "counter",
		func(emit func([]ops.Label, float64)) {
			emit(nil, float64(router.DrainRerouted()))
		})
	r.Collect("revserve_ownership_mismatches_total", "Reconnects refused because a shard's advertised key range changed.", "counter",
		func(emit func([]ops.Label, float64)) {
			emit(nil, float64(router.OwnershipMismatches()))
		})
	r.Collect("revserve_replica_resident_bytes", "Page-cache-resident bytes of each replica's mapped store (mincore).", "gauge",
		func(emit func([]ops.Label, float64)) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			for _, res := range router.Residency(ctx) {
				emit(replicaLabels(res.Addr, res.Range), float64(res.ResidentBytes))
			}
		})
	r.Collect("revserve_replica_mapped_bytes", "Mapped store size of each replica.", "gauge",
		func(emit func([]ops.Label, float64)) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			for _, res := range router.Residency(ctx) {
				emit(replicaLabels(res.Addr, res.Range), float64(res.MappedBytes))
			}
		})
	if generation != nil {
		r.GaugeFunc("revserve_topology_generation", "Installed fleet topology generation (-topology).",
			func() float64 { return float64(generation()) })
	}
}
