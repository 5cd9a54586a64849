// Package service is the long-lived serving layer over the paper's
// precompute-once/query-many workflow (§3.1): the search tables are
// built or loaded exactly once, frozen for lock-free reads, and then an
// arbitrary number of concurrent synthesis/size queries run against them
// through a bounded worker pool with per-query cancellation, an LRU
// cache of recent results, and atomic serving counters.
//
// Table acquisition is zero-copy whenever the store allows it: a
// TablesPath pointing at a tablesio format-v2 store is memory-mapped
// (header check, no parse, no rehash), so a cold start that used to
// stream and re-insert every representative becomes O(pages touched) and
// concurrent server processes share one page-cache copy of the table.
// Fresh builds go through extbuild, which writes a v2 store to
// TablesPath when set (then mapped the same way) or else to a temporary
// file that is read onto the heap.
// Stats reports how the tables were acquired (TableFormat), their
// footprint (TableBytes), and the startup cost (LoadDuration).
//
// The lifecycle mirrors a production daemon:
//
//	svc := service.NewAsync(service.Config{K: 7, TablesPath: "k7.tables"})
//	// svc accepts calls immediately; queries block until the tables are
//	// ready (or their context expires). Readiness is observable:
//	<-svc.Ready()
//	if err := svc.Err(); err != nil { ... }
//	circ, info, err := svc.Synthesize(ctx, f)
//	...
//	svc.Close(shutdownCtx) // drains in-flight queries, rejects new ones
//
// A Service is safe for concurrent use by any number of goroutines at
// every point in its lifecycle, including during startup and shutdown.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bfs"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/tables"
	"repro/internal/tablesio"
)

// ErrClosed reports a query issued after Close began (or an interrupted
// startup).
var ErrClosed = errors.New("service: synthesizer is closed")

// Config configures New / NewAsync.
//
// Exactly one table source is used, resolved in this explicit order:
//
//  1. Backend — an injected tables.Backend (local, network, or router).
//  2. Tables — an injected in-process bfs.Result.
//  3. TablesPath — a persisted store, loaded if present, else built and
//     persisted there.
//  4. A fresh build (K, Alphabet) into a temporary store.
//
// Setting both Backend and Tables is a configuration error and fails
// startup: each is a complete injected table source, and silently
// preferring one would hide a wiring mistake. Tables together with
// TablesPath is allowed — Tables wins and the path is ignored (it is
// NOT used to persist the injected tables); likewise Backend with
// TablesPath.
type Config struct {
	// K is the BFS depth used when tables must be built; see core.Config.
	// Defaults to core.DefaultK.
	K int
	// MaxSplit bounds the meet-in-the-middle prefix size (0: K).
	MaxSplit int
	// Alphabet selects the building blocks (nil: the 32-gate library).
	Alphabet *bfs.Alphabet
	// Backend injects a table backend — the seam that lets one service
	// serve tables held by another process or machine (tablenet.Client),
	// or a shard-by-key fleet of them (tablenet.Router). The backend's
	// alphabet fingerprint must match Alphabet. The caller owns the
	// backend: Close on the service does not close it. Highest
	// precedence; conflicts with Tables.
	Backend tables.Backend
	// Tables injects an already-built frozen table set, skipping both
	// build and load — the zero-copy path for sharing one table across
	// several services (tests, multi-tenant serving). Takes precedence
	// over TablesPath; conflicts with Backend.
	Tables *bfs.Result
	// TablesPath, when non-empty and Backend/Tables are nil, is tried
	// first as a persisted table file (tablesio format); when the file
	// is missing the tables are built and then persisted there — the
	// paper's compute-once-on-a-big-machine workflow. A load error other
	// than "file does not exist" fails startup rather than silently
	// rebuilding, so a corrupt table store is surfaced.
	TablesPath string
	// Workers bounds the number of queries executing simultaneously
	// (the worker pool); 0 or negative means runtime.GOMAXPROCS(0).
	// Queries beyond the bound wait (respecting their context).
	Workers int
	// QueryWorkers is the per-query meet-in-the-middle fan-out passed to
	// core (0: resolved by core to GOMAXPROCS); answers are identical
	// for every value. For a saturated service 1 is usually right:
	// cross-query parallelism already fills the machine, and
	// single-threaded queries avoid fan-out overhead.
	QueryWorkers int
	// CacheSize is the capacity (entries) of the permutation→circuit LRU
	// cache; 0 means DefaultCacheSize, negative disables caching.
	CacheSize int
	// DefaultTimeout, when positive, is applied to any query whose
	// context carries no deadline.
	DefaultTimeout time.Duration
	// Progress is forwarded to the table build (level, new classes) and
	// to the table load (level, entries loaded).
	Progress func(level, entries int)
}

// DefaultCacheSize is the LRU capacity when Config.CacheSize is zero.
const DefaultCacheSize = 4096

// Synthesizer is the long-lived serving object. Create with New or
// NewAsync; always Close it to release the worker pool.
type Synthesizer struct {
	cfg   Config
	start time.Time

	// ready is closed once loading finished (successfully or not);
	// synth/loadErr/loadDur/tableSource are written before the close and
	// read only after it, so the channel provides the happens-before
	// edge.
	ready   chan struct{}
	synth   *core.Synthesizer
	loadErr error
	loadDur time.Duration
	// tableSource records where the tables came from: "injected",
	// "built", or the store format ("v2", "v2+mmap").
	tableSource string

	// sem is the bounded worker pool: a query holds one slot while it
	// runs; Close acquires every slot to drain in-flight work, closing
	// drained when the pool is fully reclaimed.
	sem     chan struct{}
	done    chan struct{}
	drained chan struct{}
	once    sync.Once

	cache *lruCache

	queries   atomic.Uint64
	errors    atomic.Uint64
	canceled  atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	direct    atomic.Uint64
	mitm      atomic.Uint64
	latencyNS atomic.Int64
	inFlight  atomic.Int64
	// waiting counts queries blocked on a worker-pool slot — the queue
	// depth an admission controller wants to watch.
	waiting atomic.Int64
	// latBuckets histograms end-to-end query() latency (every query,
	// cached and failed alike) over LatencyBucketBounds; the extra last
	// slot is the overflow bucket. latSumNS is the matching sum.
	latBuckets []atomic.Uint64
	latSumNS   atomic.Int64
}

// LatencyBucketBounds are the upper bounds, in seconds, of the query
// latency histogram Stats reports. Spanning 1µs–10s they resolve both
// the cached/local path (µs) and remote-fleet tails (ms–s).
var LatencyBucketBounds = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// observeLatency records one end-to-end query duration in the histogram.
func (s *Synthesizer) observeLatency(d time.Duration) {
	secs := d.Seconds()
	i := sort.SearchFloat64s(LatencyBucketBounds, secs)
	s.latBuckets[i].Add(1)
	s.latSumNS.Add(int64(d))
}

// New builds or loads the tables synchronously and returns a ready
// service (or the startup error).
func New(cfg Config) (*Synthesizer, error) {
	s := NewAsync(cfg)
	<-s.Ready()
	if err := s.Err(); err != nil {
		s.Close(context.Background())
		return nil, err
	}
	return s, nil
}

// NewAsync returns immediately; tables build or load in a background
// goroutine. Queries issued before readiness block until the tables are
// up (or their context expires); Ready/Err/WaitReady observe startup.
func NewAsync(cfg Config) *Synthesizer {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Synthesizer{
		cfg:        cfg,
		start:      time.Now(),
		ready:      make(chan struct{}),
		sem:        make(chan struct{}, workers),
		done:       make(chan struct{}),
		drained:    make(chan struct{}),
		latBuckets: make([]atomic.Uint64, len(LatencyBucketBounds)+1),
	}
	switch {
	case cfg.CacheSize < 0:
	case cfg.CacheSize == 0:
		s.cache = newLRU(DefaultCacheSize)
	default:
		s.cache = newLRU(cfg.CacheSize)
	}
	go func() {
		defer close(s.ready)
		begin := time.Now()
		s.synth, s.loadErr = s.acquireTables()
		s.loadDur = time.Since(begin)
	}()
	return s
}

// acquireTables resolves the table source per the Config precedence
// (documented on Config): injected backend, injected result, persisted
// file, fresh build (persisted when a path is configured).
func (s *Synthesizer) acquireTables() (*core.Synthesizer, error) {
	cfg := s.cfg
	if cfg.Backend != nil && cfg.Tables != nil {
		return nil, fmt.Errorf("service: Config.Backend and Config.Tables are both set; inject exactly one table source")
	}
	if cfg.Backend != nil {
		synth, err := core.FromBackend(cfg.Backend, cfg.Alphabet, cfg.MaxSplit)
		if err != nil {
			return nil, err
		}
		synth.SetWorkers(cfg.QueryWorkers)
		s.tableSource = cfg.Backend.Meta().Source
		return synth, nil
	}
	if cfg.Tables != nil {
		synth, err := core.FromResult(cfg.Tables, cfg.MaxSplit)
		if err != nil {
			return nil, err
		}
		synth.SetWorkers(cfg.QueryWorkers)
		s.tableSource = "injected"
		return synth, nil
	}
	alphabet := cfg.Alphabet
	if alphabet == nil {
		alphabet = bfs.GateAlphabet()
	}
	if cfg.TablesPath != "" {
		// LoadFile picks the fastest safe path for the store's format —
		// for a v2 store on a capable host that is the mmap fast path:
		// the file becomes the table and startup is O(pages touched), no
		// parse, no rehash.
		res, info, lerr := tablesio.LoadFile(cfg.TablesPath, alphabet, &tablesio.LoadOptions{Progress: cfg.Progress})
		if lerr == nil {
			synth, serr := core.FromResult(res, cfg.MaxSplit)
			if serr != nil {
				return nil, serr
			}
			synth.SetWorkers(cfg.QueryWorkers)
			s.tableSource = info.String()
			return synth, nil
		}
		if !errors.Is(lerr, os.ErrNotExist) {
			return nil, fmt.Errorf("service: loading %s: %w", cfg.TablesPath, lerr)
		}
	}
	// The build emits its store straight to TablesPath when one is set.
	// A Close stops it at its next checkpoint, before it publishes a
	// store.
	synth, err := core.Build(core.Config{
		K:        cfg.K,
		MaxSplit: cfg.MaxSplit,
		Alphabet: cfg.Alphabet,
		Progress: cfg.Progress,
		Workers:  cfg.QueryWorkers,
	}, cfg.TablesPath, func() error {
		select {
		case <-s.done:
			return ErrClosed
		default:
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	s.tableSource = "built"
	return synth, nil
}

// Ready returns a channel closed once startup finished; check Err after.
func (s *Synthesizer) Ready() <-chan struct{} { return s.ready }

// Err returns the startup error, or nil before readiness / on success.
func (s *Synthesizer) Err() error {
	select {
	case <-s.ready:
		return s.loadErr
	default:
		return nil
	}
}

// WaitReady blocks until the tables are servable, ctx expires, or the
// service closes.
func (s *Synthesizer) WaitReady(ctx context.Context) error {
	select {
	case <-s.ready:
		return s.loadErr
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done:
		return ErrClosed
	}
}

// Core returns the underlying core synthesizer, or nil before readiness.
// It is exposed for read-only introspection (horizon, table sizes).
func (s *Synthesizer) Core() *core.Synthesizer {
	select {
	case <-s.ready:
		return s.synth
	default:
		return nil
	}
}

// Synthesize returns a provably minimal circuit for f with query
// diagnostics, serving from the LRU cache when f was answered recently.
func (s *Synthesizer) Synthesize(ctx context.Context, f perm.Perm) (circuit.Circuit, core.Info, error) {
	return s.query(ctx, f)
}

// Size returns f's minimal cost (gate count for the unit metric).
func (s *Synthesizer) Size(ctx context.Context, f perm.Perm) (int, error) {
	_, info, err := s.query(ctx, f)
	if err != nil {
		return 0, err
	}
	return info.Cost, nil
}

// BatchResult is one entry of a SynthesizeAll reply, index-aligned with
// the request slice.
type BatchResult struct {
	Circuit circuit.Circuit
	Info    core.Info
	Err     error
}

// SynthesizeAll answers a batch of specifications, pipelining the
// queries across the worker pool: up to Workers specifications are in
// canonicalization/meet-in-the-middle concurrently while the rest queue.
// The reply is index-aligned; per-item failures (e.g. beyond-horizon)
// land in the item's Err without failing the batch. A context error
// fails all remaining items.
func (s *Synthesizer) SynthesizeAll(ctx context.Context, fs []perm.Perm) []BatchResult {
	out := make([]BatchResult, len(fs))
	if len(fs) == 0 {
		return out
	}
	fan := min(len(fs), cap(s.sem))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < fan; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(fs) {
					return
				}
				c, info, err := s.query(ctx, fs[i])
				out[i] = BatchResult{Circuit: c, Info: info, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// query is the single entry point every public query funnels through:
// readiness gate, default timeout, cache probe, worker-pool slot,
// core query, counters, cache fill.
func (s *Synthesizer) query(ctx context.Context, f perm.Perm) (circuit.Circuit, core.Info, error) {
	s.queries.Add(1)
	qStart := time.Now()
	defer func() { s.observeLatency(time.Since(qStart)) }()
	// Reject closed services up front: WaitReady alone would race the
	// cache probe (ready and done may both be signalled), letting a
	// cached answer slip out after shutdown.
	select {
	case <-s.done:
		s.noteErr(ErrClosed)
		return nil, core.Info{}, ErrClosed
	default:
	}
	if err := s.WaitReady(ctx); err != nil {
		s.noteErr(err)
		return nil, core.Info{}, err
	}
	if s.cfg.DefaultTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
			defer cancel()
		}
	}
	if s.cache != nil {
		if c, info, err, ok := s.cache.get(f); ok {
			s.hits.Add(1)
			if err != nil {
				// Replayed failures are still failed queries; cached
				// errors are deterministic (never ctx errors), so the
				// Canceled branch of noteErr cannot misfire here.
				s.noteErr(err)
			}
			return c, info, err
		}
		s.misses.Add(1)
	}
	s.waiting.Add(1)
	err := s.acquire(ctx)
	s.waiting.Add(-1)
	if err != nil {
		s.noteErr(err)
		return nil, core.Info{}, err
	}
	s.inFlight.Add(1)
	begin := time.Now()
	c, info, err := s.synth.SynthesizeInfoCtx(ctx, f)
	s.inFlight.Add(-1)
	s.release()
	if err == nil {
		// Only successful queries feed AvgLatency: a 30 s timeout would
		// otherwise swamp the average the denominator (Direct+MITM)
		// describes.
		s.latencyNS.Add(int64(time.Since(begin)))
	}
	if err != nil {
		s.noteErr(err)
		// Only beyond-horizon and invalid-function answers are cached
		// (with their Info diagnostics): they are deterministic
		// properties of the table set. Anything else — context errors,
		// and with Config.Backend any transient network failure (dial
		// refused, reset, remote stall) — must NOT be pinned in the
		// cache, or a one-second shard blip would keep failing its
		// specs until LRU eviction long after the fleet recovered.
		if s.cache != nil && (errors.Is(err, core.ErrBeyondHorizon) || errors.Is(err, core.ErrInvalidFunction)) {
			s.cache.put(f, nil, info, err)
		}
		return nil, info, err
	}
	if info.Direct {
		s.direct.Add(1)
	} else {
		s.mitm.Add(1)
	}
	if s.cache != nil {
		s.cache.put(f, c, info, nil)
	}
	return c, info, nil
}

func (s *Synthesizer) noteErr(err error) {
	s.errors.Add(1)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.canceled.Add(1)
	}
}

// acquire takes a worker-pool slot, honouring cancellation and shutdown.
func (s *Synthesizer) acquire(ctx context.Context) error {
	select {
	case <-s.done:
		return ErrClosed
	default:
	}
	select {
	case s.sem <- struct{}{}:
		// A Close that started while we waited must win: give the slot
		// back so the drain completes, and reject the query.
		select {
		case <-s.done:
			<-s.sem
			return ErrClosed
		default:
			return nil
		}
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done:
		return ErrClosed
	}
}

func (s *Synthesizer) release() { <-s.sem }

// Close rejects new queries and drains the worker pool: it returns once
// every in-flight query finished, or ctx expired (in which case the
// stragglers still drain in the background). An async startup still
// building its tables stops the build at its next checkpoint (a spill
// run sealed or a level merged) and neither persists the tables nor
// serves. Close is idempotent; concurrent calls all wait for the drain.
//
// Tables the service acquired itself — loaded from TablesPath (possibly
// a file mapping on the v2 mmap path) or built — are released once the
// drain completes, so do not use Core() after Close; injected
// Config.Tables belong to the caller and are left untouched.
func (s *Synthesizer) Close(ctx context.Context) error {
	s.once.Do(func() {
		close(s.done)
		go func() {
			// Acquiring every slot proves no query is in flight; the
			// slots are never released — the pool is gone for good.
			for i := 0; i < cap(s.sem); i++ {
				s.sem <- struct{}{}
			}
			close(s.drained)
			// With the pool reclaimed and new queries rejected, nothing
			// can touch the tables again: release a mapping the service
			// owns. Startup may still be running — its result is awaited
			// here, off the Close caller's path. Injected sources
			// (Tables, Backend) belong to the caller and are left
			// untouched.
			<-s.ready
			if s.cfg.Tables == nil && s.cfg.Backend == nil && s.synth != nil {
				if res := s.synth.Result(); res != nil {
					res.Frozen.Close()
				}
			}
		}()
	})
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats is a point-in-time snapshot of the serving counters.
type Stats struct {
	// Ready reports that the tables are loaded and servable; Err carries
	// the startup failure when loading broke.
	Ready bool   `json:"ready"`
	Err   string `json:"err,omitempty"`
	// K, MaxSplit, Horizon and TableEntries describe the frozen table
	// set (zero until ready).
	K            int `json:"k"`
	MaxSplit     int `json:"max_split"`
	Horizon      int `json:"horizon"`
	TableEntries int `json:"table_entries"`
	// TableBytes is the table footprint (hashtab slots plus level
	// structures); for a memory-mapped store these bytes are file-backed
	// and shared, not process heap, and zero when the tables live in a
	// remote backend. TableFormat records the acquisition path:
	// "injected", "built", the store format loaded ("v2", or "v2+mmap" —
	// the zero-copy cold-start fast path), or
	// the backend source ("tablenet(addr)", "router(n)").
	TableBytes  int64  `json:"table_bytes"`
	TableFormat string `json:"table_format,omitempty"`
	// TableResidentBytes/TableResidentFraction report mincore-based page
	// residency of a memory-mapped store: how much of the table this
	// process actually holds hot. The resident set is workload-driven —
	// behind a shard-by-key router it converges to roughly 1/N of the
	// table — so this is the capacity-planning signal for shard sizing.
	// Omitted when the store is not memory-mapped or the platform has no
	// residency probe (non-Linux builds degrade gracefully).
	TableResidentBytes    int64   `json:"table_resident_bytes,omitempty"`
	TableResidentFraction float64 `json:"table_resident_fraction,omitempty"`
	// Workers is the pool bound; InFlight the queries currently holding
	// a slot; Waiting the queries blocked for one — the queue-depth
	// signal load shedding watches.
	Workers  int   `json:"workers"`
	InFlight int64 `json:"in_flight"`
	Waiting  int64 `json:"waiting"`
	// Queries counts every query received (including cache hits and
	// rejected ones); Errors every failed query; Canceled the subset of
	// Errors that were context cancellations/timeouts.
	Queries  uint64 `json:"queries"`
	Errors   uint64 `json:"errors"`
	Canceled uint64 `json:"canceled"`
	// CacheHits/CacheMisses count LRU probes; Direct/MITM successful
	// uncached answers by strategy.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Direct      uint64 `json:"direct"`
	MITM        uint64 `json:"mitm"`
	// RemoteCache surfaces the read-path counters of an injected
	// backend that maintains caches (a tablenet.Client, or a Router's
	// aggregate over its shard clients): hot-key and level-block hits
	// and misses, cache memory, and wire bytes moved. Omitted for local
	// table sources.
	RemoteCache *tables.CacheStats `json:"remote_cache,omitempty"`
	// Replicas surfaces the per-replica health trackers of an injected
	// backend that routes over a replicated fleet (a
	// tablenet.Router): address, hash range, breaker state, failure
	// run, lifetime ejections. Omitted for unreplicated sources.
	Replicas []tables.Health `json:"replicas,omitempty"`
	// Tiers surfaces the per-tier routing counters of an injected tiered
	// backend (a tablenet.Federation): probes, hits, level reads, tier
	// errors, and each tier's own cache view, shallowest tier first.
	// Omitted for untiered sources.
	Tiers []tables.TierStats `json:"tiers,omitempty"`
	// AvgLatency averages the table-query time of uncached queries.
	AvgLatency time.Duration `json:"avg_latency_ns"`
	// LatencyBuckets histograms end-to-end query latency (every query,
	// cached and failed alike) over LatencyBucketBounds; the final extra
	// entry is the overflow bucket. Counts are non-cumulative.
	// LatencySum is the matching total, in seconds.
	LatencyBuckets []uint64 `json:"latency_buckets,omitempty"`
	LatencySum     float64  `json:"latency_sum_seconds,omitempty"`
	// LoadDuration is the startup build/load time; Uptime the age of the
	// service.
	LoadDuration time.Duration `json:"load_duration_ns"`
	Uptime       time.Duration `json:"uptime_ns"`
}

// Stats returns a snapshot of the serving counters. Counters are read
// individually without a global lock, so a snapshot taken under load is
// approximately (not jointly) consistent.
func (s *Synthesizer) Stats() Stats {
	st := Stats{
		Workers:     cap(s.sem),
		InFlight:    s.inFlight.Load(),
		Waiting:     s.waiting.Load(),
		Queries:     s.queries.Load(),
		Errors:      s.errors.Load(),
		Canceled:    s.canceled.Load(),
		CacheHits:   s.hits.Load(),
		CacheMisses: s.misses.Load(),
		Direct:      s.direct.Load(),
		MITM:        s.mitm.Load(),
		Uptime:      time.Since(s.start),
	}
	if served := st.Direct + st.MITM; served > 0 {
		st.AvgLatency = time.Duration(s.latencyNS.Load() / int64(served))
	}
	st.LatencyBuckets = make([]uint64, len(s.latBuckets))
	for i := range s.latBuckets {
		st.LatencyBuckets[i] = s.latBuckets[i].Load()
	}
	st.LatencySum = time.Duration(s.latSumNS.Load()).Seconds()
	select {
	case <-s.ready:
		st.LoadDuration = s.loadDur
		if s.loadErr != nil {
			st.Err = s.loadErr.Error()
			return st
		}
		st.Ready = true
		st.K = s.synth.K()
		st.MaxSplit = s.synth.MaxSplit()
		st.Horizon = s.synth.Horizon()
		st.TableEntries = s.synth.Meta().Entries
		st.TableFormat = s.tableSource
		if res := s.synth.Result(); res != nil {
			st.TableBytes = res.MemoryBytes()
			if resident, mapped, ok := res.Frozen.Residency(); ok && mapped > 0 {
				st.TableResidentBytes = resident
				st.TableResidentFraction = float64(resident) / float64(mapped)
			}
		}
		if cs, ok := s.cfg.Backend.(tables.CacheStatser); ok {
			rc := cs.CacheStats()
			st.RemoteCache = &rc
		}
		if hs, ok := s.cfg.Backend.(tables.HealthStatser); ok {
			st.Replicas = hs.HealthStats()
		}
		if ts, ok := s.cfg.Backend.(tables.TierStatser); ok {
			st.Tiers = ts.TierStats()
		}
	default:
	}
	return st
}
