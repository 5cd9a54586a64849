package main

import (
	"fmt"
	"runtime"
	"time"
)

// layerMetrics lists every per-layer metric a traced run reports, with
// its unit. Every workload reports all of them; a layer the workload
// does not exercise reads 0. A count that is the base of a ratio is
// listed beside it. LAYERS.md says which end-to-end metric each should
// move, and on which workload.
var layerMetrics = []struct{ name, unit string }{
	{"ops.requests", "count"},
	{"ops.rejected", "count"},
	{"ops.self_us", "us"},

	{"service.queries", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.self_us", "us"},

	{"core.served", "count"},
	{"core.direct_share", "ratio"},
	{"core.direct_us", "us"},
	{"core.mitm_queries", "count"},
	{"core.mitm_ms", "ms"},
	{"core.candidates_per_query", "count"},
	{"core.candidates_per_s", "1/s"},
	{"core.backend_calls_per_query", "count"},
	{"core.keys_per_lookup", "count"},

	{"federation.tier0_probes", "count"},
	{"federation.escalation_share", "ratio"},
	{"federation.tier0_us", "us"},
	{"federation.tier1_us", "us"},

	{"router.shard_call_us", "us"},
	{"router.shards_per_batch", "count"},

	{"client.key_lookups", "count"},
	{"client.key_hit_ratio", "ratio"},
	{"client.level_reads", "count"},
	{"client.level_hit_ratio", "ratio"},
	{"client.key_misses", "count"},
	{"client.coalesced", "count"},
	{"client.admission_rejects", "count"},
	{"client.wire_kb_per_query", "KB"},
	{"client.wire_retries", "count"},

	{"shard.serve_us", "us"},
	{"shard.wire_share", "ratio"},

	{"tablesio.load_ms", "ms"},
	{"setup.warmup_s", "s"},

	{"extbuild.expand_s", "s"},
	{"extbuild.merge_s", "s"},
	{"extbuild.emit_s", "s"},
	{"extbuild.candidates", "count"},
	{"extbuild.candidates_per_s", "1/s"},
	{"extbuild.survivor_ratio", "ratio"},
	{"extbuild.spill_written_mb", "MB"},
	{"extbuild.spill_read_mb", "MB"},
	{"extbuild.write_amp", "ratio"},
	{"extbuild.peak_tracked_mb", "MiB"},
	{"extbuild.budget_mb", "MiB"},

	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles", "count"},

	{"trace.overhead.setup_s", "ratio"},
	{"trace.overhead.throughput", "ratio"},
	{"trace.overhead.p50_ms", "ratio"},
	{"trace.overhead.tail_ms", "ratio"},
	{"trace.overhead.peak_rss_mb", "ratio"},
}

// layers collects one traced run's per-layer metrics.
type layers struct{ m map[string]metric }

func zeroLayers() *layers {
	l := &layers{m: map[string]metric{}}
	for _, lm := range layerMetrics {
		l.m[lm.name] = metric{0, lm.unit}
	}
	return l
}

// set records a listed metric; an unlisted name is a bug.
func (l *layers) set(name string, v float64) {
	m, ok := l.m[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: unlisted per-layer metric %q", name))
	}
	m.Value = v
	l.m[name] = m
}

func ratio[T ~int | ~int64 | ~uint64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// medianDur returns the median of ds.
func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(median(seconds(ds)) * float64(time.Second))
}

// coreFromOps sets core's metrics from the queries that reached it
// (cache misses): direct and meet-in-the-middle latencies, candidates.
// direct and mitm are the service's own counts of them.
func (l *layers) coreFromOps(recs []opRecord, direct, mitm uint64) {
	var dl, ml []time.Duration
	var cands int64
	var mitmTime time.Duration
	for _, r := range recs {
		if r.direct {
			dl = append(dl, r.lat)
			continue
		}
		ml = append(ml, r.lat)
		cands += r.cands
		mitmTime += r.lat
	}
	l.set("core.served", float64(direct+mitm))
	l.set("core.direct_share", ratio(direct, direct+mitm))
	l.set("core.direct_us", us(medianDur(dl)))
	l.set("core.mitm_queries", float64(len(ml)))
	l.set("core.mitm_ms", medianDur(ml).Seconds()*1e3)
	l.set("core.candidates_per_query", ratio(cands, int64(len(ml))))
	if mitmTime > 0 {
		l.set("core.candidates_per_s", float64(cands)/mitmTime.Seconds())
	}
}

// runtimeProbe measures the Go runtime over the timed phase, which a
// build run splits into one interval per timed build.
type runtimeProbe struct {
	before     runtime.MemStats
	alloc, gcs uint64
}

func startRuntime() *runtimeProbe {
	p := &runtimeProbe{}
	p.resume()
	return p
}

// resume starts an interval of the timed phase.
func (p *runtimeProbe) resume() { runtime.ReadMemStats(&p.before) }

// pause ends an interval of the timed phase.
func (p *runtimeProbe) pause() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	p.alloc += now.TotalAlloc - p.before.TotalAlloc
	p.gcs += uint64(now.NumGC - p.before.NumGC)
}

// finish ends the timed phase and returns its runtime metrics.
func (p *runtimeProbe) finish(ops int) map[string]metric {
	p.pause()
	return p.metrics(ops)
}

// metrics returns the runtime metrics of ops operations over the
// intervals measured so far.
func (p *runtimeProbe) metrics(ops int) map[string]metric {
	return map[string]metric{
		"runtime.alloc_kb_per_op": {ratio(p.alloc, uint64(ops)) / 1024, "KB"},
		"runtime.gc_cycles":       {float64(p.gcs), "count"},
	}
}
