// Package repro is a from-scratch Go reproduction of Golubitsky,
// Falconer, Maslov, "Synthesis of the Optimal 4-bit Reversible Circuits"
// (DAC 2010, arXiv:1003.1914): provably gate-count-optimal synthesis of
// any 4-bit reversible function over the NOT/CNOT/Toffoli/Toffoli-4
// library, plus the paper's full experimental apparatus.
//
// # Quick start
//
//	synth, err := repro.NewSynthesizer(6)      // BFS depth k = 6
//	if err != nil { ... }
//	spec, err := repro.ParseSpec("[0,7,6,9,4,11,10,13,8,15,14,1,12,3,2,5]")
//	if err != nil { ... }
//	circ, err := synth.Synthesize(spec)        // provably minimal
//	fmt.Println(circ)                          // TOF(a,b,d) CNOT(a,b) ...
//	fmt.Println(repro.Render(circ))            // ASCII diagram
//
// The packed-word permutation arithmetic, symmetry reduction, hash
// tables, breadth-first search, meet-in-the-middle search, linear-circuit
// tooling, random-permutation experiments, Table 6 benchmark suite and
// the peephole optimizer live in the internal packages; this package
// re-exports the surface a downstream user needs.
//
// # Parallelism
//
// Both the table build and the meet-in-the-middle query stage run
// multicore by default, over runtime.GOMAXPROCS(0) goroutines: every
// build phase (expansion, merge, emission) splits its work by slab or
// hash shard, and prefix scans fan out over chunks of a level against
// a frozen table whose reads are lock-free — each cost level expands
// independently per representative, which is what lets the paper
// reach k = 9 on a large multicore machine (§4.1 reports a 16-CPU
// run). Set SynthConfig.Workers to bound the fan-out. Neither the
// stored tables nor any query's answer depend on it: the build orders
// candidates by deterministic sequence numbers, and parallel prefix
// scans commit their chunks in scan order.
//
// # Paper-scale builds
//
// An in-memory BFS needs the whole table resident, which caps the
// reachable depth at the build machine's RAM — the paper's k = 9 run
// took "over 100 GB" (§4.1). Every build here goes through the
// out-of-core builder (internal/extbuild, driven by revtables -save and
// by every fresh in-process build), which removes that cap: each
// frontier streams to sorted spill runs on disk, new levels merge-dedup
// against all prior levels by external k-way merge under a -mem-budget
// target, and the finished store is emitted directly, without
// materializing the table; every -split shard file is then cut from it
// (tablesio.SaveSplitFiles, one shard in memory at a time). A
// fresh in-process build (NewSynthesizer, a NewService without a
// stored table file) spills under TMPDIR and memory-maps the store it
// emitted:
//
//	go run ./cmd/revtables -table none -k 8 -save k8.tables -mem-budget 2GiB
//	go run ./cmd/revtables -table none -k 9 -save k9 -split 16 -mem-budget 8GiB
//
// The budget is a ledger: every buffer the build holds, but a split
// cut's one-shard buffers, is a view of one workspace arena, which each
// phase carves afresh, and the stats report the arena's size. The arena
// is mapped outside the Go heap, and a block it outgrows is unmapped,
// so the build's resident set follows the ledger. A new level is deduped against every prior level by
// one merge-join against their sorted level files on disk, so no table
// of earlier levels is held in memory. The budget divides as follows:
//
//   - expansion: half the budget across the workers' slab buffers, each
//     counted twice because the spill run's radix sort needs an equally
//     long scratch buffer;
//   - the sequence sorter: a quarter, split between its (seq, key) pair
//     buffer and its radix scratch;
//   - merge read buffers: up to a quarter, one per open run or level
//     file plus a part-file write buffer, charged per merge worker — so
//     the buffer size is the quarter divided by the worker count; the
//     runs are consolidated to leave room for the level files, down to
//     a floor of 2 runs;
//   - emission: per worker, the fullest shard's entries and slot arrays,
//     the placement scratch (a home-slot histogram and the entries
//     regrouped by home) and one index chunk; emission runs on fewer
//     workers when their buffers would pass half the budget.
//
// Every phase runs on all workers (extbuild.Options.Workers, GOMAXPROCS
// by default): slabs expand in parallel, merges split by hash shard,
// and emission places shards and resolves the level index in parallel
// while the store is written in order.
//
// Every sort on the build path is linear-time: the spill runs and the
// sequence sorter use LSD radix sorts, and emission lays each shard out
// with a counting sort by home slot.
//
// The output is byte-identical to tablesio.SaveFile of the sequential
// bfs.Search, for any budget, worker count, or crash history —
// per-shard merges assign the same deterministic sequence numbers the
// sequential builder would, so the emitted file is independent of the
// spill schedule. Both lay the store out in hashtab.StoreShards = 8 hash
// shards, so its bytes do not depend on the building machine. Days-long
// builds survive interruption: the work directory (-build-workdir,
// default <save>.work) carries a generation-stamped checkpoint
// manifest with per-artifact fingerprints, and -resume picks the build up with at most one level
// of rework, even under a different budget. Progress streams per level
// (slabs, candidates, spill traffic, ETA) and the final level counts
// are diffed against the paper's Table 4 before the store is declared
// good. CI proves the byte-identity and kill/-resume paths end-to-end
// on every push. perfbench's "build" workload records a k=6 build's
// candidates/s, spill traffic and peak tracked memory
// (extbuild.candidates_per_s, extbuild.spill_written_mb,
// extbuild.peak_tracked_mb), and BenchmarkBuild in internal/extbuild
// times its expand, merge and emit phases. See examples/build for the
// programmatic walkthrough.
//
// # Serving
//
// The paper's production shape is precompute-once/query-many: tables
// are built "in advance, on a larger machine" (§3.1), persisted, and
// every query is a fast lookup against the frozen store. The service
// layer packages that as a long-lived daemon:
//
//	svc, err := repro.NewService(repro.ServiceConfig{K: 7, TablesPath: "k7.tables"})
//	if err != nil { ... }
//	defer svc.Close(context.Background())
//	circ, info, err := svc.Synthesize(ctx, spec) // concurrent, cached, cancellable
//
// The first run builds the tables, writing them straight to
// TablesPath as a tablesio v2 zero-copy store, and every run — the
// first included — memory-maps that store, so a later
// cold start is O(pages touched), milliseconds even for table sets whose
// parse-and-rehash would take seconds to minutes, and concurrent
// server processes share one page-cache copy. The service then answers
// any number of concurrent queries through a bounded worker pool with an
// LRU cache of recent results and atomic serving counters
// (Service.Stats, including the table format and byte footprint). The
// same layer runs standalone as cmd/revserve, a JSON-over-HTTP daemon:
//
//	go run ./cmd/revserve -k 6 -tables k6.tables -addr :8080 &
//	curl 'localhost:8080/healthz'           # 503 while loading, 200 when ready
//	curl -g 'localhost:8080/synthesize?spec=[0,7,6,9,4,11,10,13,8,15,14,1,12,3,2,5]'
//	curl 'localhost:8080/stats'
//
// See examples/serve for the end-to-end walkthrough.
//
// # Distributed serving
//
// The query engine is programmed against a small table-backend
// interface (canonical-key batch lookup, per-level iteration, table
// metadata), so the tables do not have to live in the serving process.
// Beyond one host — the paper's k ≥ 9 tables are multi-GB, and the hot
// page set is what stops fitting — the same revserve binary plays two
// more roles:
//
//	# shard servers export a (memory-mapped) store over a compact
//	# binary protocol; replicas of the same store are cheap because
//	# mmap shares page-cache copies:
//	revserve -shard-serve -tables k9.tables -addr :9091
//
//	# a router serves the normal HTTP API, resolving every lookup
//	# batch through the shard fleet: canonical keys are partitioned on
//	# their high Wang-hash bits (the same bits that pick a store's
//	# hash shard), so each shard's resident set converges to
//	# ~1/N of the table. "," separates hash ranges; "|" separates
//	# replicas within one:
//	revserve -router 'a1:9091|a2:9091,b1:9091|b2:9091' -addr :8080
//
// Routed answers are byte-identical to single-host serving (the scan
// order is preserved; tests enforce it). ServiceConfig.Backend injects
// the same seam programmatically. See examples/cluster for the
// end-to-end walkthrough, including killing a shard mid-run.
//
// # Fault tolerance
//
// The fleet is built to keep answering — identically — while shards
// misbehave. Three layers compose:
//
//   - Retries. Every shard client retries transport faults (dial
//     failures, resets, timeouts, torn frames) with capped exponential
//     backoff and full jitter, under a per-attempt deadline carved from
//     the query context's fair share and a retry budget shared across a
//     batch's wire chunks. Frames carry an FNV-1a checksum, so
//     corruption is detected and retried instead of mis-decoded;
//     protocol and server-side errors are never retried. Knobs:
//     -retry-attempts, -retry-backoff, -attempt-timeout (programmatic:
//     ClientOptions.Retry).
//   - Failover. With replicas configured, a read that exhausts one
//     replica's retries — a keyed sub-batch or a level read — fails
//     over to a sibling, safe to resend because a table generation is
//     immutable and the handshake pins every replica to the same one.
//     Every read kind goes through the same loop and the same order:
//     healthy replicas first, then half-open trials, then draining,
//     then ejected ones. When all of a range's replicas fail, the error
//     names the range, the read kind and every failing replica's
//     address. A per-replica breaker ejects hosts after consecutive
//     failures (ejection window doubles per streak) and a background
//     prober (-probe-interval) re-admits them via half-open trials, so
//     recovered shards rejoin within seconds.
//   - Health surfaces. /healthz distinguishes "degraded" (replicas
//     unreachable but every hash range still covered — HTTP 200, keep
//     serving) from "down" (some range has no live replica — 503,
//     naming the dark ranges). /stats reports per-replica breaker
//     state, consecutive failures, and ejection counts under
//     "replicas"; programmatic equivalents are Router.Health and
//     ServiceStats.Replicas.
//
// The contract under faults is all-or-nothing: a routed query returns
// the byte-identical circuit or a clean typed error within its
// deadline — never a wrong answer, never a hang. internal/faultnet
// (a deterministic, seeded fault-injecting net.Listener wrapper:
// delays, resets, torn writes, corruption, silent drops, refused
// connections, and frozen-process stalls that ignore deadlines)
// exists to prove exactly that, and the fault-matrix tests drive
// every fault class, a SIGKILLed shard, a replicated failover, and a
// shard that freezes mid-drain through it.
//
// # Zero-downtime operations
//
// On top of fault absorption, the fleet supports planned change with
// the same identical-answers contract:
//
//   - Partitioned stores. revtables -save x.tables -split N cuts the
//     v2 store into N shard-local files; each shard mounts ONLY its
//     slice (~1/N of the bytes, not just 1/N hot). A split store knows
//     its owned high-hash key range, rejects out-of-range lookups with
//     a typed error, and revserve -shard-serve advertises the range in
//     the tablenet handshake — so a shard wired into the wrong range
//     is refused at connect time (and at every reconnect) with
//     ErrOwnership, never silently wrong. Programmatic:
//     extbuild.Options.SplitN, tables.NewPartial.
//   - Live membership. revserve -topology fleet.json wires the fleet
//     from a generation-stamped topology document (members are
//     assigned to the ranges they own by rendezvous hashing, so edits
//     move as little as possible) and reloads it on SIGHUP or POST
//     /admin/topology. The swap is atomic: in-flight queries finish on
//     the generation they started on, stale generations are refused,
//     and a topology that fails to wire (unreachable member, ownership
//     mismatch, uncovered range) is rejected 409 with the running
//     fleet intact. Programmatic: tablenet.Topology,
//     tablenet.BuildFleet, tablenet.SwapBackend.
//   - Graceful drain. SIGTERM on a shard begins a drain: in-flight
//     requests finish, the drain is advertised to routers (which steer
//     new lookups and level reads to siblings), and only then does the
//     process exit, bounded by -drain-timeout. Rolling every shard of a
//     fleet under sustained load drops zero queries — the chaos tests
//     prove it under the race detector. Programmatic:
//     tablenet.Server.Drain.
//
// /metrics exposes the operational surfaces: topology generation, the
// ownership-mismatch counter, the drain-rerouted counter (lookup
// sub-batches and level reads steered off a draining replica), and
// per-replica resident/mapped store bytes. See examples/cluster for the
// end-to-end walkthrough, including a full rolling restart.
//
// # Multi-k federation
//
// Table depth is a cost/coverage dial: a small-k store is a few MB and
// stays page-cache-hot, while the big-k stores that guarantee every
// function are multi-GB and often split across shards. A federation
// serves both behind one front door:
//
//	# one fleet per depth; ';' separates tiers, each tier uses the
//	# -router fleet syntax, order is irrelevant (sorted by depth):
//	revserve -federation 'small:9090;big1:9091|big2:9092' -addr :8080
//
// The federation has one routing rule: each read goes to the shallowest
// tier whose depth covers what the caller needs, and fails over to a
// deeper tier only on error. A bounded lookup needs its bound, a level
// read its level, and an unbounded lookup the top tier's depth (only
// the top tier's miss is authoritative), so each key is probed on one
// tier. Routed answers are byte-identical to big-k-only serving
// because every tier must come from the same build family: same
// alphabet fingerprint, same reduction, strictly increasing depths,
// level lists that are exact prefixes of each deeper tier's. All of
// that is validated when the federation is wired and mismatches are
// refused with a typed error (tablenet.ErrTierMismatch), never served.
// tables.Meta carries a Horizon (the max synthesizable cost) in store
// headers and the wire hello, so the federation advertises its top
// tier's guarantee and the query engine trusts a federated "beyond
// horizon" answer without re-scanning per tier.
//
// The query engine passes a bound on every probe
// (tables.BoundedLookuper): the direct probe and the meet-in-the-middle
// scan are bounded by the full table depth and go to the top tier, and
// each reconstruction step — where each stripped element lowers the
// remaining cost — goes to the shallowest tier covering that cost. The
// small tier does not filter hard traffic away: the cost distribution
// is top-heavy (paper Table 3: random functions average 11.94 gates),
// and in fleet-mix 95% of direct probes missed a k=3 tier when it was
// probed first. It serves the cheap reconstruction steps and the
// dense, cached reads of the levels it holds, which a split top tier
// would fan out as sparse, uncached requests.
//
// /stats and /metrics expose per-tier probe/hit/level-read/error
// counters ("tiers"); /healthz folds tier health: Down only when the
// top tier — the only authoritative one — is down, Degraded when any
// lower tier is out (the federation collapses gracefully to
// big-k-only serving). Programmatic: tablenet.NewFederation;
// Topology.K pins a member fleet's expected depth so one topology
// document can describe a heterogeneous federation. perfbench's
// "fleet-mix" workload serves through a federation of a k=3 tier and
// split k=6 shards; its federation.tier0_probes and
// federation.tier0_us/tier1_us metrics price the tiers
// (federation.escalation_share reads 0). See
// examples/federation for the end-to-end walkthrough.
//
// # Cache tiering and tuning
//
// The remote read path is tiered. Frozen tables are immutable — the
// handshake pins each network client to one table generation (alphabet
// fingerprint plus table geometry), and a reconnect onto anything else
// fails loudly — so every fetched result is cacheable for the client's
// lifetime with no invalidation protocol at all. Each shard client
// therefore keeps two tiers:
//
//   - a hot-key cache over lookup results (present and absent alike:
//     a key's absence from an immutable table is as permanent as its
//     value). Batches split on partial hits — only miss keys travel.
//     Every fetched result is inserted, evicting by LRU within a
//     4-way set that fills one 64-byte cache line (16 B per entry),
//     so a probe touches one line. The default 1M entries hold the
//     whole candidate-key working set of repeated k = 6 scans, so
//     there is no admission filter: one would only turn away keys
//     that hit later;
//   - an immutable level-block cache, so repeated meet-in-the-middle
//     scans stop re-fetching the hot low-level key ranges entirely.
//
// A miss of either tier travels on its caller's goroutine and is never
// shared with concurrent callers.
//
// The query engine runs one scan over every backend: each chunk of
// level representatives is resolved in one lookup batch, and chunks
// commit strictly in scan order, so remote circuits stay byte-identical
// to single-host serving, caches on or off.
//
// Tuning: revserve -router takes -remote-cache N (hot-key entries per
// shard client; 0 picks the default, negative disables every tier for
// A/B measurement). Warm-up is traffic-driven — the first pass over a
// working set pays the wire once, after which warm queries run within a
// small factor of in-process serving (perfbench's "fleet-mix" reports
// client.key_hit_ratio and client.level_hit_ratio). Cache
// hit/miss/byte counters surface through ServiceStats.RemoteCache and
// the /stats endpoint ("clients" holds the router's aggregate over its
// shard clients).
//
// # Operations
//
// Both HTTP roles of revserve (front door and -router) wrap their API
// endpoints (/synthesize, /size) in a stdlib-only traffic layer:
//
//   - Rate limiting: -rate R -burst B run a token bucket per client —
//     the X-Api-Key header when present, else the remote IP — and
//     -global-rate/-global-burst add a whole-process bucket. Over-rate
//     requests are rejected with 429, a Retry-After header (whole
//     seconds, computed from the token deficit), and a JSON error body.
//     A rejection consumes no tokens, so rejected traffic cannot starve
//     admitted traffic.
//   - Load shedding: -max-inflight N bounds concurrent API requests;
//     arrivals beyond the bound get an immediate 503 + Retry-After
//     instead of queueing into their own deadline. 0 derives 8× the
//     worker pool (the pool plus a bounded wait queue); negative
//     disables shedding.
//   - Metrics: GET /metrics serves Prometheus text exposition
//     (version 0.0.4) — HTTP request counts by status code, latency
//     histograms, the service's end-to-end query-latency histogram,
//     result-LRU and remote-cache-tier counters, wire bytes and
//     retries, per-replica breaker state on a router, and the
//     rate-limit/shed counters. All hand-rolled over the stdlib; no
//     client library dependency.
//   - Request logging: one structured JSON record per API request
//     (log/slog — method, path, status, latency, client, spec count,
//     outcome, bytes; rejected requests log their rejection as the
//     outcome). Records are assembled and serialized on a background
//     goroutine so the request path pays nanoseconds, and an
//     overloaded process drops log records rather than blocking
//     requests on its own logging. -request-log=false silences it.
//
// /healthz, /stats, and /metrics sit outside the traffic layer so
// orchestrator probes and metric scrapes are never rate-limited or
// shed. Per-query HTTP statuses form a fixed taxonomy: 200 OK,
// 422 beyond the table horizon, 400 malformed spec or parameter,
// 504 deadline exceeded, 499 client closed request, 503 service
// closed, shard fleet unavailable, or load shed, 500 anything else. A
// batch answers 200 unless every result failed, in which case it
// carries the worst per-result status. BenchmarkMiddlewareOverhead in
// internal/ops prices the middleware's request path and log pipeline;
// perfbench's "fleet-mix" reports its per-request share as ops.self_us.
package repro

import (
	"io"

	"repro/internal/benchfuncs"
	"repro/internal/bfs"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/heuristic"
	"repro/internal/linear"
	"repro/internal/peephole"
	"repro/internal/perm"
	"repro/internal/randperm"
	"repro/internal/render"
	"repro/internal/rewrite"
	"repro/internal/service"
	"repro/internal/tablesio"
)

// Perm is a 4-bit reversible function packed into a 64-bit word (nibble i
// holds f(i)).
type Perm = perm.Perm

// Identity is the identity function.
const Identity = perm.Identity

// Gate is one NOT/CNOT/TOF/TOF4 gate placement on the four wires.
type Gate = gate.Gate

// Circuit is a gate sequence applied left to right.
type Circuit = circuit.Circuit

// Synthesizer answers optimal-synthesis queries (paper Algorithm 1). It
// is immutable and safe for concurrent use.
type Synthesizer = core.Synthesizer

// SynthConfig configures NewSynthesizerConfig; see core.Config.
type SynthConfig = core.Config

// Info carries query diagnostics (how a synthesis was answered).
type Info = core.Info

// Benchmark is one row of the paper's Table 6 suite.
type Benchmark = benchfuncs.Benchmark

// Affine is a linear reversible function x ↦ Mx ⊕ c (paper §4.3).
type Affine = linear.Affine

// ErrBeyondHorizon reports a query outside the synthesizer's guaranteed
// range; raise K or MaxSplit.
var ErrBeyondHorizon = core.ErrBeyondHorizon

// NewSynthesizer precomputes the lookup tables with BFS depth k and full
// meet-in-the-middle range (synthesis horizon 2k). Memory and
// precomputation grow steeply with k: k = 5 is instant (≈10⁵ classes),
// k = 6 takes seconds (≈1.6M classes), k = 7 takes under a minute and
// maps a ≈0.4 GB store (≈21M classes). The build spills under TMPDIR
// within a 256 MiB working-memory target. The paper's reference
// configuration is k = 9 on a 64 GB machine.
func NewSynthesizer(k int) (*Synthesizer, error) {
	return core.New(core.Config{K: k})
}

// NewSynthesizerConfig is NewSynthesizer with full control (weighted or
// depth alphabets, split bounds, worker counts, progress callbacks).
func NewSynthesizerConfig(cfg SynthConfig) (*Synthesizer, error) {
	return core.New(cfg)
}

// ParseSpec parses a truth-vector specification in the paper's format,
// e.g. "[0,7,6,9,4,11,10,13,8,15,14,1,12,3,2,5]".
func ParseSpec(s string) (Perm, error) { return perm.Parse(s) }

// ParseCircuit parses the paper's circuit notation, e.g.
// "TOF(a,b,d) CNOT(a,b) TOF(b,c,d) CNOT(b,c)".
func ParseCircuit(s string) (Circuit, error) { return circuit.Parse(s) }

// ParseGate parses a single gate, e.g. "TOF4(a,b,d,c)".
func ParseGate(s string) (Gate, error) { return gate.Parse(s) }

// Render draws a circuit as a Unicode text diagram in the style of the
// paper's figures.
func Render(c Circuit) string { return render.Circuit(c, render.Unicode) }

// RenderASCII draws a circuit using 7-bit glyphs only.
func RenderASCII(c Circuit) string { return render.Circuit(c, render.ASCII) }

// Benchmarks returns the paper's Table 6 suite.
func Benchmarks() []Benchmark { return benchfuncs.All() }

// BenchmarkByName looks up one Table 6 function.
func BenchmarkByName(name string) (Benchmark, bool) { return benchfuncs.ByName(name) }

// RandomPerms draws n uniformly random reversible functions with the
// paper's generator (Mersenne twister + Fisher–Yates).
func RandomPerms(n int, seed uint32) []Perm {
	return randperm.New(seed).Sample(n)
}

// IsLinear reports whether f is a linear reversible function (computable
// with NOT and CNOT gates only, paper §4.3).
func IsLinear(f Perm) bool { return linear.IsLinear(f) }

// LinearAlphabet exposes the NOT/CNOT building-block set for restricted
// synthesis (Table 5 experiments).
func LinearAlphabet() *bfs.Alphabet { return bfs.LinearAlphabet() }

// LayerAlphabet exposes the 103 disjoint-support gate layers for
// depth-optimal synthesis (paper §5 extension).
func LayerAlphabet() *bfs.Alphabet { return bfs.LayerAlphabet() }

// QuantumCostAlphabet exposes the 32 gates weighted by NCV quantum cost
// (NOT/CNOT 1, TOF 5, TOF4 13) for cost-optimal synthesis (paper §5
// extension).
func QuantumCostAlphabet() (*bfs.Alphabet, error) {
	return bfs.WeightedGateAlphabet(gate.Gate.QuantumCost)
}

// WideCircuit is a reversible circuit on up to 24 wires, the input to the
// peephole optimizer.
type WideCircuit = peephole.Circuit

// WideGate is a multiple-control Toffoli gate on a wide register.
type WideGate = peephole.Gate

// PeepholeOptimizer rewrites wide circuits by optimally re-synthesizing
// 4-wire windows (the paper's §1 motivating application).
type PeepholeOptimizer = peephole.Optimizer

// NewPeepholeOptimizer wraps a synthesizer for window re-synthesis.
func NewPeepholeOptimizer(s *Synthesizer) *PeepholeOptimizer {
	return peephole.NewOptimizer(s)
}

// SynthesizeHeuristic runs the transformation-based (MMD-style)
// bidirectional heuristic: fast and correct but generally far from
// minimal — the baseline the paper proposes scoring against optima (§1).
func SynthesizeHeuristic(f Perm) (Circuit, error) {
	return heuristic.SynthesizeBidirectional(f)
}

// RewriteDB is a template database for rule-based circuit simplification
// (the paper's ref [13] machinery).
type RewriteDB = rewrite.DB

// NewRewriteDB enumerates all minimal identity templates up to maxSize
// (capped at 6) and returns a simplifier; apply with (*RewriteDB).Apply.
func NewRewriteDB(maxSize int) *RewriteDB { return rewrite.NewDB(maxSize) }

// SaveTables persists a synthesizer's precomputed search tables to path
// — the paper's compute-once-on-a-big-machine workflow (§3.1, §4.1) —
// atomically, in the tablesio v2 zero-copy layout, which
// LoadSynthesizerFile memory-maps straight back into a servable
// synthesizer.
func SaveTables(path string, s *Synthesizer) error {
	return tablesio.SaveFile(path, s.Result())
}

// Service is the long-lived serving layer: tables loaded (or built and
// persisted) exactly once, then concurrent synthesis/size queries with a
// bounded worker pool, per-query cancellation, an LRU result cache and
// serving counters. Safe for concurrent use at every lifecycle point.
type Service = service.Synthesizer

// ServiceConfig configures NewService; see service.Config.
type ServiceConfig = service.Config

// ServiceStats is a snapshot of a Service's serving counters.
type ServiceStats = service.Stats

// ServiceBatchResult is one entry of a Service.SynthesizeAll reply.
type ServiceBatchResult = service.BatchResult

// ErrServiceClosed reports a query issued after Service.Close began.
var ErrServiceClosed = service.ErrClosed

// NewService builds or loads the search tables synchronously and
// returns a ready serving layer.
func NewService(cfg ServiceConfig) (*Service, error) { return service.New(cfg) }

// NewServiceAsync returns immediately with the tables building or
// loading in the background; queries block until readiness (or their
// context expires), and <-svc.Ready() plus svc.Err() observe startup —
// the shape an HTTP daemon wants so /healthz can gate traffic during a
// cold multi-minute k = 9 load.
func NewServiceAsync(cfg ServiceConfig) *Service { return service.NewAsync(cfg) }

// LoadSynthesizer rehydrates tables written by SaveTables from a
// stream, verifying them in full (LoadSynthesizerFile is the
// memory-mapped path for a store on disk). The alphabet must match the
// saved one; pass nil for the standard 32-gate library.
func LoadSynthesizer(r io.Reader, alphabet *bfs.Alphabet) (*Synthesizer, error) {
	if alphabet == nil {
		alphabet = bfs.GateAlphabet()
	}
	res, err := tablesio.Load(r, alphabet)
	if err != nil {
		return nil, err
	}
	return core.FromResult(res, 0)
}

// LoadSynthesizerFile rehydrates a table store from disk through the
// fastest safe path — a v2 store on a little-endian Unix host is
// memory-mapped, making cold start O(pages touched) instead of
// O(parse + rehash). Pass nil for the standard 32-gate library.
func LoadSynthesizerFile(path string, alphabet *bfs.Alphabet) (*Synthesizer, error) {
	if alphabet == nil {
		alphabet = bfs.GateAlphabet()
	}
	res, _, err := tablesio.LoadFile(path, alphabet, nil)
	if err != nil {
		return nil, err
	}
	return core.FromResult(res, 0)
}
