// Command revbench runs the repository's headline performance
// experiments — multicore BFS search, cold-start table loading across
// store formats, serving-layer query throughput, remote-backend
// (tablenet shard/router) throughput, fault-tolerance latency, and the
// traffic-layer (ops middleware) overhead on the warm cached HTTP path
// — and emits one machine-readable JSON report. CI uploads the report
// as an artifact (BENCH_10.json) so the scaling curves are tracked per
// commit; ROADMAP.md records the curves measured on reference hardware.
//
// Usage:
//
//	revbench [-k 6] [-workers 1,2,4,8] [-o BENCH_10.json]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// One run builds the k-tables exactly once and reuses them for every
// experiment, so the dominant cost is the first search plus one extra
// search per worker count. The remote section serves those tables over
// loopback TCP — a single tablenet shard and a router over two shards,
// each measured cold (client caches disabled: the raw wire tax,
// comparable to BENCH_4) and warm (the tiered client caches primed by
// one pass over the spec set) — so the report captures both the network
// seam's overhead and what the immutable-result caches claw back on
// identical hardware. The faults section prices resilience: batched
// lookup p50/p99 through a replicated fleet (2 ranges × 2 replicas),
// healthy versus with one replica killed mid-run, so the failover +
// breaker tail is a tracked number rather than folklore.
// -cpuprofile/-memprofile attach pprof evidence to a perf
// investigation without rebuilding the harness.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/canon"
	"repro/internal/circuit"
	"repro/internal/extbuild"
	"repro/internal/gate"
	"repro/internal/ops"
	"repro/internal/perm"
	"repro/internal/randperm"
	"repro/internal/service"
	"repro/internal/tablenet"
	"repro/internal/tables"
	"repro/internal/tablesio"
)

type hostReport struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

type searchPoint struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	Speedup float64 `json:"speedup_vs_workers1"`
}

type coldStartReport struct {
	Entries           int     `json:"entries"`
	V2Bytes           int64   `json:"v2_store_bytes"`
	V2MmapSeconds     float64 `json:"v2_mmap_seconds"`
	V2StreamSeconds   float64 `json:"v2_stream_verify_seconds"`
	V2HeapBytesPerRep float64 `json:"v2_mmap_heap_bytes_per_rep"`
	MemoryMapped      bool    `json:"memory_mapped"`
}

type queryReport struct {
	CachedNsPerOp   float64 `json:"cached_ns_per_op"`
	UncachedNsPerOp float64 `json:"uncached_ns_per_op"`
	CachedQPS       float64 `json:"cached_qps_per_core"`
	UncachedQPS     float64 `json:"uncached_qps_per_core"`
}

type kernelReport struct {
	CanonicalRandomNs     float64 `json:"canonical_random_ns"`
	CanonicalInvolutionNs float64 `json:"canonical_involution_ns"`
}

// remoteReport compares uncached serving throughput across table
// backends on identical tables: in-process (the query_report baseline),
// one tablenet shard over loopback, and a shard-by-key router over two
// — each cold (client caches disabled; directly comparable to
// BENCH_4's remote section) and warm (tiered client caches primed by
// one pass over the spec set; the service result-LRU stays off, so
// every query still runs its full scan — the caches only remove wire
// round trips).
type remoteReport struct {
	OneShardColdNsPerOp float64 `json:"one_shard_cold_ns_per_op"`
	OneShardColdQPS     float64 `json:"one_shard_cold_qps_per_core"`
	RouterColdNsPerOp   float64 `json:"router_2shard_cold_ns_per_op"`
	RouterColdQPS       float64 `json:"router_2shard_cold_qps_per_core"`
	OneShardWarmNsPerOp float64 `json:"one_shard_warm_ns_per_op"`
	OneShardWarmQPS     float64 `json:"one_shard_warm_qps_per_core"`
	RouterWarmNsPerOp   float64 `json:"router_2shard_warm_ns_per_op"`
	RouterWarmQPS       float64 `json:"router_2shard_warm_qps_per_core"`
	// ColdOverheadVsLocal is one-shard cold ns/op over the in-process
	// uncached ns/op: the raw price of the network seam per query.
	// WarmOverheadVsLocal is the same ratio with the caches warm, and
	// WarmSpeedupVsCold is what the tiers claw back.
	ColdOverheadVsLocal float64 `json:"one_shard_cold_overhead_vs_local"`
	WarmOverheadVsLocal float64 `json:"one_shard_warm_overhead_vs_local"`
	WarmSpeedupVsCold   float64 `json:"one_shard_warm_speedup_vs_cold"`
}

// faultsReport prices fault tolerance: batched-lookup latency through
// a replicated router (2 hash ranges × 2 replicas over loopback),
// healthy versus with one replica of range 0 killed immediately before
// the measured run. The degraded numbers include the first failed
// attempts, the retry backoff, the failover to the sibling, and the
// breaker ejecting the dead replica — the p99 is the failover tail, the
// p50 is the steady state once the breaker routes around the corpse.
type faultsReport struct {
	BatchKeys              int     `json:"lookup_batch_keys"`
	Rounds                 int     `json:"rounds"`
	HealthyP50Ns           float64 `json:"healthy_p50_ns"`
	HealthyP99Ns           float64 `json:"healthy_p99_ns"`
	ReplicaDownP50Ns       float64 `json:"one_replica_down_p50_ns"`
	ReplicaDownP99Ns       float64 `json:"one_replica_down_p99_ns"`
	ReplicaDownP50Overhead float64 `json:"one_replica_down_p50_overhead"`
	ReplicaDownP99Overhead float64 `json:"one_replica_down_p99_overhead"`
}

// opsReport prices the traffic layer on the warm cached-query HTTP
// path. The baseline is real loopback HTTP; the middleware's own cost
// is the sum of two stable in-process measurements — the request path
// (rate limiter + admission gate + metrics tight loop, wrapped minus
// bare) and the async log pipeline (enqueue plus drain serialization,
// every record flushed) — because differencing two ~30 µs loopback
// measurements cannot resolve a ~1 µs effect under this box's
// run-to-run drift. The fraction is the per-request tax of traffic
// management — the acceptance bound is < 5% on this path.
type opsReport struct {
	BaselineNsPerOp    float64 `json:"http_cached_baseline_ns_per_op"`
	MiddlewareNsPerOp  float64 `json:"middleware_ns_per_op"`
	LogPipelineNsPerOp float64 `json:"middleware_log_pipeline_ns_per_op"`
	OverheadFraction   float64 `json:"middleware_overhead_fraction"`
}

// federationReport prices multi-k federation against big-k-only
// serving on the same host and the same paper-distribution key mix —
// keys sampled from the table levels with weights matching the spec
// set's cost histogram, i.e. the bottom-heavy distribution the paper
// measures for realistic functions. The serving unit is the batched
// lookup (the scan's wire shape): the federation answers the
// within-small-k majority from a small always-cache-hot table behind
// one shard while only the hard tail touches the big fleet, so its
// µs/op undercuts the same batch scattered across the big fleet alone.
// Both legs run cold clients (caches disabled) — the numbers compare
// serving work, not cache hits — and the identity over every key and
// every synthesized spec is asserted in-run: a nonzero IdentityDiffs
// never reaches the report, the bench aborts.
type federationReport struct {
	SmallK    int `json:"small_k"`
	BatchKeys int `json:"lookup_batch_keys"`
	// WithinSmallShare is the fraction of the key mix whose cost fits
	// the small tier; EscalationShare is what actually escaped tier 0
	// during the measured runs (absent keys escalate too).
	WithinSmallShare float64 `json:"mix_within_small_k_share"`
	EscalationShare  float64 `json:"escalation_share"`
	FederatedUsPerOp float64 `json:"federated_batch_us_per_op"`
	BigOnlyUsPerOp   float64 `json:"big_only_batch_us_per_op"`
	BatchSpeedup     float64 `json:"federated_batch_speedup"`
	// Synthesis legs: the full query engine (direct probe → MITM scan →
	// reconstruct) over the spec mix, federated vs big-only backend.
	SynthFederatedUsPerOp float64 `json:"synth_federated_us_per_op"`
	SynthBigOnlyUsPerOp   float64 `json:"synth_big_only_us_per_op"`
	SynthSpeedup          float64 `json:"synth_speedup"`
	IdentityDiffs         int     `json:"identity_diffs"`
	Caveat                string  `json:"caveat,omitempty"`
}

// buildReport prices the out-of-core table build (extbuild) against
// the in-memory search at the same k: entry throughput, spill traffic,
// and the builder's tracked-memory peak under a budget deliberately
// smaller than the finished store. Byte-identity with the in-memory
// build's SaveFile is asserted in-run — a diff aborts the bench.
// MaxRSSBytes is the whole process's high-water mark (it includes the
// earlier in-memory sections, so it bounds, not measures, the build).
type buildReport struct {
	Entries          int64   `json:"entries"`
	MemBudgetBytes   int64   `json:"mem_budget_bytes"`
	StoreBytes       int64   `json:"store_bytes"`
	Seconds          float64 `json:"seconds"`
	EntriesPerSec    float64 `json:"entries_per_sec"`
	CandidatesPerSec float64 `json:"candidates_per_sec"`
	SpillWritten     int64   `json:"spill_written_bytes"`
	SpillRead        int64   `json:"spill_read_bytes"`
	PeakTracked      int64   `json:"peak_tracked_bytes"`
	MaxRSSBytes      int64   `json:"process_max_rss_bytes"`
	ByteIdentical    bool    `json:"byte_identical_to_in_memory"`
}

type report struct {
	GeneratedAt string     `json:"generated_at"`
	Host        hostReport `json:"host"`
	// Note flags measurement caveats (set automatically on single-CPU
	// hosts, where the search "speedup" column shows insert batching,
	// not parallelism).
	Note       string           `json:"note,omitempty"`
	K          int              `json:"k"`
	Search     []searchPoint    `json:"search_parallel"`
	ColdStart  coldStartReport  `json:"cold_start"`
	Build      buildReport      `json:"build"`
	Query      queryReport      `json:"service_queries"`
	Remote     remoteReport     `json:"remote_backend"`
	Federation federationReport `json:"federation"`
	Faults     faultsReport     `json:"faults"`
	Ops        opsReport        `json:"ops"`
	Kernels    kernelReport     `json:"kernels"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("revbench: ")
	var (
		k          = flag.Int("k", 6, "BFS depth for the table set under test")
		workers    = flag.String("workers", "1,2,4,8", "comma-separated worker counts for the search curve")
		out        = flag.String("o", "BENCH_10.json", "output path (- for stdout)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	)
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			log.Printf("wrote CPU profile to %s", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		// Failures here must not log.Fatal: os.Exit would skip the
		// CPU-profile defer above and corrupt that artifact too.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Printf("heap profile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("heap profile: %v", err)
				return
			}
			log.Printf("wrote heap profile to %s", *memprofile)
		}()
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host: hostReport{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			CPUs:       runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
		},
		K: *k,
	}
	if rep.Host.CPUs == 1 {
		rep.Note = "single-CPU host: search_parallel speedups reflect insert batching, not parallel scaling; re-run on a multi-core machine for the true curve (ROADMAP open item)"
	}

	// --- Search scaling curve -------------------------------------------
	var res *bfs.Result
	var base float64
	for _, ws := range strings.Split(*workers, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(ws))
		if err != nil || w < 1 {
			log.Fatalf("bad worker count %q", ws)
		}
		start := time.Now()
		r, err := bfs.Search(bfs.GateAlphabet(), *k, &bfs.Options{Workers: w})
		if err != nil {
			log.Fatal(err)
		}
		secs := time.Since(start).Seconds()
		if base == 0 {
			base = secs
		}
		rep.Search = append(rep.Search, searchPoint{Workers: w, Seconds: round(secs), Speedup: round(base / secs)})
		log.Printf("search k=%d workers=%d: %.2fs", *k, w, secs)
		res = r
	}

	// --- Cold start: v2 mmap vs v2 verifying stream ---------------------
	dir, err := os.MkdirTemp("", "revbench-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	v2Path := filepath.Join(dir, "v2.tables")
	if err := tablesio.SaveFile(v2Path, res); err != nil {
		log.Fatal(err)
	}
	entries := res.TotalStored()
	rep.ColdStart.Entries = entries
	rep.ColdStart.V2Bytes = fileSize(v2Path)

	load := func(path string, opts *tablesio.LoadOptions) (float64, float64, tablesio.LoadInfo) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		loaded, info, err := tablesio.LoadFile(path, bfs.GateAlphabet(), opts)
		if err != nil {
			log.Fatal(err)
		}
		if !loaded.Contains(perm.Identity) {
			log.Fatal("loaded tables unusable")
		}
		secs := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		heapPerRep := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(entries)
		loaded.Frozen.Close()
		return secs, heapPerRep, info
	}
	v2Secs, v2Heap, v2Info := load(v2Path, nil)
	v2sSecs, _, _ := load(v2Path, &tablesio.LoadOptions{DisableMmap: true})
	rep.ColdStart.V2MmapSeconds = round(v2Secs)
	rep.ColdStart.V2StreamSeconds = round(v2sSecs)
	rep.ColdStart.V2HeapBytesPerRep = round(v2Heap)
	rep.ColdStart.MemoryMapped = v2Info.MemoryMapped
	log.Printf("cold start: v2+mmap %.6fs (heap %.3f B/rep), v2 stream+verify %.3fs",
		v2Secs, v2Heap, v2sSecs)

	// --- Out-of-core build ----------------------------------------------
	// Budget: a quarter of the finished store (min 4 MiB) — small enough
	// that frontiers must spill and the prior-level dedup table is
	// dropped for the disk merge-join on bigger k.
	oocBudget := max64(rep.ColdStart.V2Bytes/4, 4<<20)
	oocPath := filepath.Join(dir, "ooc.tables")
	// The byte-identity oracle is the *sequential* in-memory build —
	// extbuild's contract. The scaling-curve result above may come from
	// the parallel builder, which resolves duplicate candidates by
	// insertion race and so freezes arbitrary equal-cost winners.
	refPath := filepath.Join(dir, "ref.tables")
	refRes, err := bfs.Search(bfs.GateAlphabet(), *k, &bfs.Options{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	if err := tablesio.SaveFile(refPath, refRes); err != nil {
		log.Fatal(err)
	}
	refRes = nil
	oocStart := time.Now()
	oocStats, err := extbuild.Build(extbuild.Options{
		Alphabet:  bfs.GateAlphabet(),
		K:         *k,
		WorkDir:   filepath.Join(dir, "ooc.work"),
		MemBudget: oocBudget,
		OutPath:   oocPath,
	})
	if err != nil {
		log.Fatal(err)
	}
	oocSecs := time.Since(oocStart).Seconds()
	identical, err := filesEqual(oocPath, refPath)
	if err != nil {
		log.Fatal(err)
	}
	if !identical {
		log.Fatalf("out-of-core store %s differs from sequential in-memory SaveFile %s", oocPath, refPath)
	}
	rep.Build = buildReport{
		Entries:          oocStats.Entries,
		MemBudgetBytes:   oocBudget,
		StoreBytes:       fileSize(oocPath),
		Seconds:          round(oocSecs),
		EntriesPerSec:    round(float64(oocStats.Entries) / oocSecs),
		CandidatesPerSec: round(float64(oocStats.Candidates) / oocSecs),
		SpillWritten:     oocStats.SpillWrittenBytes,
		SpillRead:        oocStats.SpillReadBytes,
		PeakTracked:      oocStats.PeakTrackedBytes,
		MaxRSSBytes:      maxRSSBytes(),
		ByteIdentical:    identical,
	}
	log.Printf("out-of-core build k=%d: %.2fs under %d MiB budget (%.0f entries/s, %d MiB spilled, byte-identical)",
		*k, oocSecs, oocBudget>>20, float64(oocStats.Entries)/oocSecs, oocStats.SpillWrittenBytes>>20)

	// --- Serving throughput ---------------------------------------------
	rng := rand.New(rand.NewSource(42))
	specs := make([]perm.Perm, 256)
	for i := range specs {
		c := make(circuit.Circuit, 2+rng.Intn(min(*k, 6)))
		for j := range c {
			c[j] = gate.FromIndex(rng.Intn(gate.Count))
		}
		specs[i] = c.Perm()
	}
	queryBench := func(cacheSize int, warm bool) float64 {
		svc, err := service.New(service.Config{Tables: res, QueryWorkers: 1, CacheSize: cacheSize})
		if err != nil {
			log.Fatal(err)
		}
		defer svc.Close(context.Background())
		if warm {
			for _, s := range specs {
				if _, _, err := svc.Synthesize(context.Background(), s); err != nil {
					log.Fatal(err)
				}
			}
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, _, err := svc.Synthesize(context.Background(), specs[i%len(specs)]); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
		return float64(r.NsPerOp())
	}
	cached := queryBench(len(specs), true)
	uncached := queryBench(-1, false)
	rep.Query = queryReport{
		CachedNsPerOp:   round(cached),
		UncachedNsPerOp: round(uncached),
		CachedQPS:       round(1e9 / cached),
		UncachedQPS:     round(1e9 / uncached),
	}
	log.Printf("queries: cached %.1f ns/op (%.0f QPS/core), uncached %.0f ns/op (%.0f QPS/core)",
		cached, 1e9/cached, uncached, 1e9/uncached)

	// --- Remote backend (tablenet) throughput ---------------------------
	startShard := func(r *bfs.Result) (string, func()) {
		local, err := tables.NewLocal(r)
		if err != nil {
			log.Fatal(err)
		}
		srv, err := tablenet.NewServer(local)
		if err != nil {
			log.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve(l)
		return l.Addr().String(), func() { srv.Close() }
	}
	// Each configuration runs cold (client caches disabled — the raw
	// wire tax, comparable to BENCH_4's remote section) and warm (the
	// tiered client caches primed by one pass over the spec set). The
	// service result-LRU stays off in both, so warm queries still run
	// their full direct-probe/reconstruct/scan — the caches only remove
	// wire round trips.
	remoteBench := func(shards int, cached bool) float64 {
		var backends []tables.Backend
		var closers []func()
		for i := 0; i < shards; i++ {
			addr, closeShard := startShard(res)
			closers = append(closers, closeShard)
			copts := &tablenet.ClientOptions{Conns: 2 * runtime.GOMAXPROCS(0)}
			if !cached {
				copts.CacheKeys = -1
				copts.LevelCacheBytes = -1
			}
			cl, err := tablenet.Dial(addr, copts)
			if err != nil {
				log.Fatal(err)
			}
			backends = append(backends, cl)
		}
		router, err := tablenet.NewRouter(backends)
		if err != nil {
			log.Fatal(err)
		}
		svc, err := service.New(service.Config{Backend: router, QueryWorkers: 1, CacheSize: -1})
		if err != nil {
			log.Fatal(err)
		}
		if cached {
			for _, s := range specs { // prime the client caches
				if _, _, err := svc.Synthesize(context.Background(), s); err != nil {
					log.Fatal(err)
				}
			}
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, _, err := svc.Synthesize(context.Background(), specs[i%len(specs)]); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
		svc.Close(context.Background())
		router.Close()
		for _, c := range closers {
			c()
		}
		return float64(r.NsPerOp())
	}
	oneCold := remoteBench(1, false)
	oneWarm := remoteBench(1, true)
	twoCold := remoteBench(2, false)
	twoWarm := remoteBench(2, true)
	rep.Remote = remoteReport{
		OneShardColdNsPerOp: round(oneCold),
		OneShardColdQPS:     round(1e9 / oneCold),
		RouterColdNsPerOp:   round(twoCold),
		RouterColdQPS:       round(1e9 / twoCold),
		OneShardWarmNsPerOp: round(oneWarm),
		OneShardWarmQPS:     round(1e9 / oneWarm),
		RouterWarmNsPerOp:   round(twoWarm),
		RouterWarmQPS:       round(1e9 / twoWarm),
		ColdOverheadVsLocal: round(oneCold / uncached),
		WarmOverheadVsLocal: round(oneWarm / uncached),
		WarmSpeedupVsCold:   round(oneCold / oneWarm),
	}
	log.Printf("remote cold: 1 shard %.0f ns/op (%.0f QPS/core), router over 2 shards %.0f ns/op, %.1f× local uncached",
		oneCold, 1e9/oneCold, twoCold, oneCold/uncached)
	log.Printf("remote warm: 1 shard %.0f ns/op (%.0f QPS/core, %.1f× over cold), router over 2 shards %.0f ns/op, %.1f× local uncached",
		oneWarm, 1e9/oneWarm, oneCold/oneWarm, twoWarm, oneWarm/uncached)

	// --- Multi-k federation vs big-k-only serving -----------------------
	// The federation fronts the 2-shard big-k fleet with one small-k
	// shard. The key mix is paper-distribution sampled: costs drawn from
	// the spec set's own cost histogram (bottom-heavy), keys drawn from
	// the big table's level lists at those costs — so the
	// within-small-k majority resolves against a table a few hundred KB
	// big and permanently cache-hot, and only the tail (plus absent
	// keys) ever reaches the big fleet. Clients run cold in both legs:
	// the comparison is serving work, not cache luck.
	kSmall := max(*k-2, 2)
	resSmall, err := bfs.Search(bfs.GateAlphabet(), kSmall, nil)
	if err != nil {
		log.Fatal(err)
	}
	// The mix is the paper-distribution realistic workload: the paper's
	// motivating application (§1, peephole optimization) re-synthesizes
	// short 4-wire windows of wide circuits, so lookup traffic is
	// bottom-heavy — each extra gate of optimal cost roughly halves a
	// window's frequency. Costs are drawn with weight ∝ 2^−c over
	// [1, K], keys uniformly from the big table's level list at the
	// drawn cost; the report records the realized within-small share so
	// the numbers carry their own conditions.
	const fedBatch = 2048
	fedRng := rand.New(rand.NewSource(99))
	var mixCosts []int
	for c := 1; c <= res.MaxCost; c++ {
		for w := 1 << max(res.MaxCost-c, 0); w > 0; w-- {
			mixCosts = append(mixCosts, c)
		}
	}
	fedKeys := make([]uint64, fedBatch)
	within := 0
	for i := range fedKeys {
		c := mixCosts[fedRng.Intn(len(mixCosts))]
		lv := res.Level(c)
		fedKeys[i] = uint64(lv.At(fedRng.Intn(lv.Len())))
		if c <= kSmall {
			within++
		}
	}

	mkBig := func() (*tablenet.Router, func()) {
		var backends []tables.Backend
		var closers []func()
		for i := 0; i < 2; i++ {
			addr, closeShard := startShard(res)
			closers = append(closers, closeShard)
			cl, err := tablenet.Dial(addr, &tablenet.ClientOptions{CacheKeys: -1, LevelCacheBytes: -1})
			if err != nil {
				log.Fatal(err)
			}
			backends = append(backends, cl)
		}
		router, err := tablenet.NewRouter(backends)
		if err != nil {
			log.Fatal(err)
		}
		return router, func() {
			router.Close()
			for _, c := range closers {
				c()
			}
		}
	}
	bigRouter, closeBig := mkBig()
	fedBig, closeFedBig := mkBig()
	smallAddr, closeSmall := startShard(resSmall)
	smallCl, err := tablenet.Dial(smallAddr, &tablenet.ClientOptions{CacheKeys: -1, LevelCacheBytes: -1})
	if err != nil {
		log.Fatal(err)
	}
	fed, err := tablenet.NewFederation([]tables.Backend{smallCl, fedBig})
	if err != nil {
		log.Fatal(err)
	}

	// Identity gate before any timing: every key of the mix must answer
	// the same both ways, or the bench aborts — a speedup bought with a
	// wrong answer is not a number worth reporting.
	fv, ff := make([]uint16, fedBatch), make([]bool, fedBatch)
	bigv, bigf := make([]uint16, fedBatch), make([]bool, fedBatch)
	if err := fed.LookupBatch(context.Background(), fedKeys, fv, ff); err != nil {
		log.Fatal(err)
	}
	if err := bigRouter.LookupBatch(context.Background(), fedKeys, bigv, bigf); err != nil {
		log.Fatal(err)
	}
	for i := range fedKeys {
		if ff[i] != bigf[i] || (ff[i] && fv[i] != bigv[i]) {
			log.Fatalf("federation identity diff on key %#x: federated (%v,%v) vs big-k (%v,%v)",
				fedKeys[i], fv[i], ff[i], bigv[i], bigf[i])
		}
	}

	batchBench := func(b tables.Backend) float64 {
		vals := make([]uint16, fedBatch)
		found := make([]bool, fedBatch)
		r := testing.Benchmark(func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				if err := b.LookupBatch(context.Background(), fedKeys, vals, found); err != nil {
					bb.Fatal(err)
				}
			}
		})
		return float64(r.NsPerOp())
	}
	fedNs := batchBench(fed)
	bigNs := batchBench(bigRouter)
	fts := fed.TierStats()
	escShare := float64(fts[0].Escalations) / float64(fts[0].Probes)

	// Synthesis legs: the whole query engine (direct probe, MITM scan
	// with cost-horizon routing, reconstruction) over the spec mix,
	// identity-checked spec by spec before timing.
	fedSvc, err := service.New(service.Config{Backend: fed, QueryWorkers: 1, CacheSize: -1})
	if err != nil {
		log.Fatal(err)
	}
	bigSvc, err := service.New(service.Config{Backend: bigRouter, QueryWorkers: 1, CacheSize: -1})
	if err != nil {
		log.Fatal(err)
	}
	for _, sp := range specs {
		fc, fi, ferr := fedSvc.Synthesize(context.Background(), sp)
		bc, bi, berr := bigSvc.Synthesize(context.Background(), sp)
		if (ferr == nil) != (berr == nil) {
			log.Fatalf("federation synthesis diverged on %v: %v vs %v", sp, ferr, berr)
		}
		if ferr == nil && (fi.Cost != bi.Cost || fc.String() != bc.String()) {
			log.Fatalf("federation synthesis identity diff on %v: cost %d %v vs cost %d %v",
				sp, fi.Cost, fc, bi.Cost, bc)
		}
	}
	synthBench := func(svc *service.Synthesizer) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := svc.Synthesize(context.Background(), specs[i%len(specs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(r.NsPerOp())
	}
	synthFed := synthBench(fedSvc)
	synthBig := synthBench(bigSvc)
	fedSvc.Close(context.Background())
	bigSvc.Close(context.Background())
	closeSmall()
	smallCl.Close()
	closeFedBig()
	closeBig()
	rep.Federation = federationReport{
		SmallK:                kSmall,
		BatchKeys:             fedBatch,
		WithinSmallShare:      round(float64(within) / fedBatch),
		EscalationShare:       round(escShare),
		FederatedUsPerOp:      round(fedNs / 1e3),
		BigOnlyUsPerOp:        round(bigNs / 1e3),
		BatchSpeedup:          round(bigNs / fedNs),
		SynthFederatedUsPerOp: round(synthFed / 1e3),
		SynthBigOnlyUsPerOp:   round(synthBig / 1e3),
		SynthSpeedup:          round(synthBig / synthFed),
		IdentityDiffs:         0, // a nonzero count aborts above
	}
	if rep.Host.CPUs == 1 {
		rep.Federation.Caveat = "single-core host: both legs share one CPU with their shard servers; re-run on ≥8 cores for fleet-parallel numbers"
	}
	log.Printf("federation: batch %.1f µs/op vs big-only %.1f µs/op (%.2f×), %.0f%% of the mix within k=%d, %.1f%% escalated",
		fedNs/1e3, bigNs/1e3, bigNs/fedNs, 100*float64(within)/fedBatch, kSmall, 100*escShare)
	log.Printf("federation: synthesis %.1f µs/op vs big-only %.1f µs/op (%.2f×)",
		synthFed/1e3, synthBig/1e3, synthBig/synthFed)

	// --- Fault tolerance: lookup latency with a replica down ------------
	const (
		faultBatchKeys = 64
		faultRounds    = 400
	)
	keyGen := randperm.New(11)
	faultKeys := make([]uint64, faultBatchKeys)
	for i := range faultKeys {
		if i%2 == 0 { // half present (real table keys), half almost surely absent
			lv := res.Level(1 + i%res.MaxCost)
			faultKeys[i] = uint64(lv.At(i % lv.Len()))
		} else {
			faultKeys[i] = uint64(keyGen.Next())
		}
	}
	// One measured round = one LookupBatch over the fixed key batch.
	// killOne closes a replica of range 0 right before the measured
	// rounds, so the degraded distribution includes the failover tail.
	faultBench := func(killOne bool) (p50, p99 float64) {
		var groups [][]tables.Backend
		var closers []func()
		var killReplica func()
		for g := 0; g < 2; g++ {
			var reps []tables.Backend
			for rr := 0; rr < 2; rr++ {
				addr, closeShard := startShard(res)
				closers = append(closers, closeShard)
				if g == 0 && rr == 0 {
					killReplica = closeShard
				}
				cl, err := tablenet.Dial(addr, &tablenet.ClientOptions{
					CacheKeys:       -1,
					LevelCacheBytes: -1,
					Retry: tablenet.RetryPolicy{
						MaxAttempts:    3,
						BaseBackoff:    time.Millisecond,
						MaxBackoff:     10 * time.Millisecond,
						AttemptTimeout: time.Second,
						Seed:           1,
					},
				})
				if err != nil {
					log.Fatal(err)
				}
				reps = append(reps, cl)
			}
			groups = append(groups, reps)
		}
		// The prober stays off so the measured distribution is purely
		// traffic-driven: breaker ejection, then periodic re-probes of
		// the corpse as ejection windows expire (the realistic p99).
		router, err := tablenet.NewReplicatedRouter(groups, tablenet.RouterOptions{ProbeInterval: -1})
		if err != nil {
			log.Fatal(err)
		}
		vals := make([]uint16, len(faultKeys))
		found := make([]bool, len(faultKeys))
		ctx := context.Background()
		if err := router.LookupBatch(ctx, faultKeys, vals, found); err != nil { // warm the conns
			log.Fatal(err)
		}
		if killOne {
			killReplica()
		}
		durs := make([]float64, faultRounds)
		for i := range durs {
			start := time.Now()
			if err := router.LookupBatch(ctx, faultKeys, vals, found); err != nil {
				log.Fatal(err)
			}
			durs[i] = float64(time.Since(start).Nanoseconds())
		}
		router.Close()
		for _, c := range closers {
			c()
		}
		sort.Float64s(durs)
		return durs[faultRounds/2], durs[faultRounds*99/100]
	}
	healthyP50, healthyP99 := faultBench(false)
	downP50, downP99 := faultBench(true)
	rep.Faults = faultsReport{
		BatchKeys:              faultBatchKeys,
		Rounds:                 faultRounds,
		HealthyP50Ns:           round(healthyP50),
		HealthyP99Ns:           round(healthyP99),
		ReplicaDownP50Ns:       round(downP50),
		ReplicaDownP99Ns:       round(downP99),
		ReplicaDownP50Overhead: round(downP50 / healthyP50),
		ReplicaDownP99Overhead: round(downP99 / healthyP99),
	}
	log.Printf("faults: lookup p50/p99 healthy %.0f/%.0f ns, one replica down %.0f/%.0f ns (%.2f×/%.2f×)",
		healthyP50, healthyP99, downP50, downP99, downP50/healthyP50, downP99/healthyP99)

	// --- Traffic-layer overhead -----------------------------------------
	// The same warm cached-query HTTP path, bare vs wrapped in the full
	// ops middleware. Real HTTP over loopback (httptest), sequential
	// requests on a keep-alive connection: the baseline is tens of µs,
	// the scale the <5% middleware budget is judged against.
	opsSvc, err := service.New(service.Config{Tables: res, QueryWorkers: 1, CacheSize: len(specs)})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range specs { // prime the result LRU: every request below is a hit
		if _, _, err := opsSvc.Synthesize(context.Background(), s); err != nil {
			log.Fatal(err)
		}
	}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, err := perm.Parse(r.URL.Query().Get("spec"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_, info, err := opsSvc.Synthesize(r.Context(), f)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"cost\":%d}\n", info.Cost)
	})
	// Baseline: real loopback HTTP, sequential requests on a keep-alive
	// connection, best of three runs (single runs swing with scheduler
	// noise by more than the middleware costs).
	httpBench := func(h http.Handler) float64 {
		ts := httptest.NewServer(h)
		defer ts.Close()
		client := ts.Client()
		urls := make([]string, len(specs))
		for i, s := range specs {
			urls[i] = ts.URL + "/synthesize?spec=" + url.QueryEscape(s.String())
		}
		best := math.Inf(1)
		for run := 0; run < 3; run++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					resp, err := client.Get(urls[i%len(urls)])
					if err != nil {
						b.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("status %d", resp.StatusCode)
					}
				}
			})
			best = math.Min(best, float64(r.NsPerOp()))
		}
		return best
	}
	opsBase := httpBench(inner)

	// Middleware cost, measured as two stable components and summed —
	// loopback differencing cannot resolve it (the baseline's
	// run-to-run drift on this box exceeds the ~1 µs being measured):
	//
	//  1. Request path: in-process tight loop over a no-op handler,
	//     wrapped (rate limiter + admission gate + metrics, logging
	//     off) minus bare.
	//  2. Log pipeline: the production async logger (ops.AsyncHandler
	//     over ops.FastJSONHandler) priced end to end without drops —
	//     enqueue a batch, then Close, which flushes every accepted
	//     record through the drain's serializer. A free-running tight
	//     loop would outrun the drain and drop most records, silently
	//     excluding their serialization cost; batch-and-flush charges
	//     the send and the formatting of every single record.
	noop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	wrappedNoop := ops.Middleware(noop, ops.MiddlewareConfig{
		Limiter: ops.NewRateLimiter(ops.RateConfig{Rate: 1e12, Burst: 1e12}),
		Gate:    ops.NewGate(1<<20, 0),
		Metrics: ops.NewHTTPMetrics(ops.NewRegistry(), "bench"),
	})
	tight := func(h http.Handler) float64 {
		req := httptest.NewRequest("GET", "/synthesize?spec=x", nil)
		req.RemoteAddr = "10.0.0.7:4242"
		best := math.Inf(1)
		for run := 0; run < 3; run++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					h.ServeHTTP(httptest.NewRecorder(), req)
				}
			})
			best = math.Min(best, float64(r.NsPerOp()))
		}
		return best
	}
	tightBare := tight(noop)
	tightWrapped := tight(wrappedNoop)

	const logBatch = 4096
	logEntry := ops.AccessEntry{
		Time: time.Now(), Method: "GET", Path: "/synthesize",
		Client: "10.0.0.7", Outcome: "cached",
		Status: 200, Specs: 1, LatencyUS: 412, Bytes: 57,
	}
	var logDropped uint64
	logRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ah := ops.NewAsyncHandler(ops.NewFastJSONHandler(io.Discard, nil), 2*logBatch)
			for j := 0; j < logBatch; j++ {
				ah.HandleAccess(logEntry)
			}
			ah.Close()
			logDropped += ah.Dropped()
		}
	})
	if logDropped > 0 {
		log.Printf("ops: warning: %d log records dropped during pipeline bench", logDropped)
	}
	opsLog := float64(logRes.NsPerOp()) / logBatch
	opsMW := tightWrapped - tightBare + opsLog
	opsSvc.Close(context.Background())
	rep.Ops = opsReport{
		BaselineNsPerOp:    round(opsBase),
		MiddlewareNsPerOp:  round(opsMW),
		LogPipelineNsPerOp: round(opsLog),
		OverheadFraction:   round(opsMW / opsBase),
	}
	log.Printf("ops: warm HTTP %.0f ns/op bare; middleware %.0f ns/op (request path %.0f → %.0f, log pipeline %.0f) = %.1f%% of the path",
		opsBase, opsMW, tightBare, tightWrapped, opsLog, opsMW/opsBase*100)

	// --- Canonicalization kernel ----------------------------------------
	random := make([]perm.Perm, 1024)
	invs := make([]perm.Perm, 1024)
	gen := randperm.New(7)
	for i := range random {
		random[i] = gen.Next()
		g1 := gate.FromIndex(rng.Intn(gate.Count)).Perm()
		g2 := gate.FromIndex(rng.Intn(gate.Count)).Perm()
		invs[i] = g1.Then(g2).Then(g1)
	}
	kernel := func(ps []perm.Perm) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			var acc perm.Perm
			for i := 0; i < b.N; i++ {
				v, _, _ := canon.Canonical(ps[i&1023])
				acc ^= v
			}
			_ = acc
		})
		return float64(r.NsPerOp())
	}
	rep.Kernels = kernelReport{
		CanonicalRandomNs:     round(kernel(random)),
		CanonicalInvolutionNs: round(kernel(invs)),
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		fmt.Print(string(blob))
		return
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// round trims float noise so the JSON diffs stay readable.
func round(x float64) float64 {
	if x < 0 {
		return -round(-x)
	}
	return float64(int64(x*1000+0.5)) / 1000
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// filesEqual streams both files and compares bytes.
func filesEqual(a, b string) (bool, error) {
	fa, err := os.Open(a)
	if err != nil {
		return false, err
	}
	defer fa.Close()
	fb, err := os.Open(b)
	if err != nil {
		return false, err
	}
	defer fb.Close()
	ba, bb := make([]byte, 1<<20), make([]byte, 1<<20)
	for {
		na, ea := io.ReadFull(fa, ba)
		nb, eb := io.ReadFull(fb, bb)
		if na != nb || !bytes.Equal(ba[:na], bb[:nb]) {
			return false, nil
		}
		if ea == io.EOF || ea == io.ErrUnexpectedEOF {
			return eb == io.EOF || eb == io.ErrUnexpectedEOF, nil
		}
		if ea != nil {
			return false, ea
		}
		if eb != nil {
			return false, eb
		}
	}
}

// maxRSSBytes reports the process's resident-set high-water mark
// (Linux rusage counts kilobytes).
func maxRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}
