package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bfs"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/perm"
	"repro/internal/service"
	"repro/internal/tablenet"
	"repro/internal/tables"
	"repro/internal/tablesio"
)

// fleet-mix round composition: hot requests re-ask a seeded hot set;
// one-shot specs are asked once. Costs 1 and 2 are left out: they are
// only 37 classes, so nearly every such request would hit the result
// cache.
var (
	fleetHotPerRound = 10
	fleetHotSet      = 1024
	// fleetLight[c] seeded one-shot specs of cost c per round; the hot
	// set is drawn with the same weights.
	fleetLight = map[int]int{3: 1, 4: 4, 5: 6, 6: 7, 7: 2}
	// One one-shot spec of cost c every fleetHeavyEvery[c] rounds, from
	// the fixed corpus. Cost-9 specs take 5 to 100 ms here, so they set
	// the tail; asking them rarely puts the tail's eleventh-slowest op
	// in the dense part of their distribution instead of its extreme.
	fleetHeavyEvery = map[int]int{8: 1, 9: 8}
)

const fleetCallers = 2

// fleetWarmRounds is the length of the set-up's warm-up pass, in rounds
// of one-shot specs with one cost-8 and one cost-9 spec each.
const fleetWarmRounds = 6

// partition returns a disjoint share of the pool's classes: 3 in 7 for
// each caller (i = 0, 1) and 1 in 7 for the hot set and warm-up (i = 2),
// so no two of them can ask the same function. The callers get the
// larger shares: their one-shot specs use up the members of their
// classes over a run, while the hot set needs only fleetHotSet specs.
func (p *pool) partition(i int) *pool {
	owner := func(j int) int {
		if j%7 == 6 {
			return 2
		}
		return j % 7 % 2
	}
	var out pool
	for c, classes := range p {
		for j, f := range classes {
			if owner(j) == i {
				out[c] = append(out[c], f)
			}
		}
	}
	return &out
}

// drawCosts appends, for each cost c in counts, counts[c] unused specs.
func drawCosts(out []spec, rng *rand.Rand, used map[perm.Perm]bool, p *pool, counts map[int]int) ([]spec, error) {
	for _, c := range costs(counts) {
		for i := 0; i < counts[c]; i++ {
			s, err := drawSpec(rng, used, p, c)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// fleetInputs are the specs shared by both callers: the hot set and the
// warm-up pass.
type fleetInputs struct {
	hot, warm []spec
}

func newFleetInputs(p *pool, seed uint64) (*fleetInputs, error) {
	shared := p.partition(2)
	used := map[perm.Perm]bool{}
	rng := newRNG(seed, 20)
	in := &fleetInputs{}
	for len(in.hot) < fleetHotSet {
		var err error
		if in.hot, err = drawCosts(in.hot, rng, used, shared, fleetLight); err != nil {
			return nil, err
		}
	}
	in.hot = in.hot[:fleetHotSet]
	var err error
	for i := 0; i < fleetWarmRounds; i++ {
		if in.warm, err = drawCosts(in.warm, rng, used, shared, fleetLight); err != nil {
			return nil, err
		}
		if in.warm, err = drawCosts(in.warm, newRNG(heavySeed, 20), used, shared, map[int]int{8: 1, 9: 1}); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// fleetGen generates one caller's rounds.
type fleetGen struct {
	in           *fleetInputs
	part         *pool
	light, heavy *rand.Rand
	used         map[perm.Perm]bool
	rounds       int
}

func newFleetGen(in *fleetInputs, p *pool, seed uint64, caller int) *fleetGen {
	return &fleetGen{
		in:    in,
		part:  p.partition(caller),
		light: newRNG(seed, 10+uint64(caller)),
		heavy: newRNG(heavySeed, 10+uint64(caller)),
		used:  map[perm.Perm]bool{},
	}
}

func (g *fleetGen) round() ([]spec, error) {
	var out []spec
	for i := 0; i < fleetHotPerRound; i++ {
		out = append(out, g.in.hot[g.light.IntN(len(g.in.hot))])
	}
	out, err := drawCosts(out, g.light, g.used, g.part, fleetLight)
	if err != nil {
		return nil, err
	}
	heavy := map[int]int{}
	for c, every := range fleetHeavyEvery {
		if g.rounds%every == 0 {
			heavy[c] = 1
		}
	}
	if out, err = drawCosts(out, g.heavy, g.used, g.part, heavy); err != nil {
		return nil, err
	}
	g.rounds++
	g.light.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// fleetStores names a fleet's stores: a small full store for tier 0
// and the split files of the large one for tier 1.
type fleetStores struct {
	small  string
	splits []string
}

// fleet is a running fleet-mix system: shard servers on loopback TCP,
// a Federation of a k=3 router and a router over the split k=6 store,
// service.Synthesizer on top, and ops.Middleware in front of it.
type fleet struct {
	servers  []*tablenet.Server
	serving  sync.WaitGroup
	fed      *tablenet.Federation
	closers  []io.Closer // clients, routers, federation: closed newest first
	svc      *service.Synthesizer
	gate     *ops.Gate
	asyncLog *ops.AsyncHandler
	handler  http.Handler
	results  []*bfs.Result // mapped stores, unmapped on close
	loadTime time.Duration // time spent in tablesio.LoadFile
}

// startFleet brings a fleet up with revserve's defaults: a worker pool
// of 2, one query worker, a 4096-entry result cache, TinyLFU admission
// on the shard clients, and load shedding at 8× the pool. With a
// tracer, every seam between layers is timed.
func startFleet(st fleetStores, maxSplit int, tr *tracer) (_ *fleet, err error) {
	f := &fleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	serve := func(b tables.Backend) (string, error) {
		srv, err := tablenet.NewServer(b)
		if err != nil {
			return "", err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		f.servers = append(f.servers, srv)
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			srv.Serve(l)
		}()
		return l.Addr().String(), nil
	}
	load := func(path string) (*bfs.Result, tablesio.LoadInfo, error) {
		t0 := time.Now()
		res, info, err := tablesio.LoadFile(path, bfs.GateAlphabet(), &tablesio.LoadOptions{AllowSplit: true})
		f.loadTime += time.Since(t0)
		if err == nil {
			f.results = append(f.results, res)
		}
		return res, info, err
	}
	// Clients, routers and the federation each close what they wrap,
	// and closing twice is harmless, so on failure close() closes
	// everything made so far, newest first.
	dial := func(addr string) (*tablenet.Client, error) {
		cl, err := tablenet.Dial(addr, &tablenet.ClientOptions{})
		if err == nil {
			f.closers = append(f.closers, cl)
		}
		return cl, err
	}
	route := func(groups [][]tables.Backend) (*tablenet.Router, error) {
		r, err := tablenet.NewReplicatedRouter(groups, tablenet.RouterOptions{})
		if err == nil {
			f.closers = append(f.closers, r)
		}
		return r, err
	}

	// Tier 0: the small store, served whole.
	small, _, err := load(st.small)
	if err != nil {
		return nil, err
	}
	local, err := tables.NewLocal(small)
	if err != nil {
		return nil, err
	}
	addr, err := serve(local)
	if err != nil {
		return nil, err
	}
	c0, err := dial(addr)
	if err != nil {
		return nil, err
	}
	r0, err := route([][]tables.Backend{{c0}})
	if err != nil {
		return nil, err
	}

	// Tier 1: one shard server per split file.
	var groups [][]tables.Backend
	for _, path := range st.splits {
		res, info, err := load(path)
		if err != nil {
			return nil, err
		}
		part, err := tables.NewPartial(res, info.Split)
		if err != nil {
			return nil, err
		}
		var b tables.Backend = part
		if tr != nil {
			b = timedPartial{part, tr}
		}
		addr, err := serve(b)
		if err != nil {
			return nil, err
		}
		cl, err := dial(addr)
		if err != nil {
			return nil, err
		}
		var cb tables.Backend = cl
		if tr != nil {
			cb = timedClient{cl, tr}
		}
		groups = append(groups, []tables.Backend{cb})
	}
	r1, err := route(groups)
	if err != nil {
		return nil, err
	}

	tiers := []tables.Backend{r0, r1}
	if tr != nil {
		tiers = []tables.Backend{timedRouter{r0, tr, spanTier0}, timedRouter{r1, tr, spanTier1}}
	}
	if f.fed, err = tablenet.NewFederation(tiers); err != nil {
		return nil, err
	}
	f.closers = append(f.closers, f.fed)
	var backend tables.Backend = f.fed
	if tr != nil {
		backend = mustNotBeLocal(timedFederation{f.fed, tr})
	}
	f.svc, err = service.New(service.Config{
		Backend:        backend,
		MaxSplit:       maxSplit,
		Workers:        2,
		QueryWorkers:   1,
		CacheSize:      service.DefaultCacheSize,
		DefaultTimeout: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}

	f.gate = ops.NewGate(8*2, 0)
	f.asyncLog = ops.NewAsyncHandler(ops.NewFastJSONHandler(io.Discard, nil), 0)
	var inner http.Handler = synthHandler{f.svc, tr}
	if tr != nil {
		inner = timedHandler{inner, tr, spanHandler}
	}
	f.handler = ops.Middleware(inner, ops.MiddlewareConfig{
		Gate:    f.gate,
		Metrics: ops.NewHTTPMetrics(ops.NewRegistry(), "revserve"),
		Logger:  slog.New(f.asyncLog),
	})
	if tr != nil {
		f.handler = timedHandler{f.handler, tr, spanOps}
	}
	return f, nil
}

func (f *fleet) close() {
	if f.svc != nil {
		f.svc.Close(context.Background())
	}
	if f.asyncLog != nil {
		f.asyncLog.Close()
	}
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i].Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	f.serving.Wait()
	for _, r := range f.results {
		if r.Frozen != nil {
			r.Frozen.Close()
		}
	}
}

// answer is the JSON body synthHandler writes.
type answer struct {
	Circuit    string `json:"circuit"`
	Cost       int    `json:"cost"`
	Direct     bool   `json:"direct"`
	Candidates int64  `json:"candidates"`
	Error      string `json:"error,omitempty"`
}

// synthHandler answers GET /synthesize?spec=<16 hex digits> with the
// minimal circuit as JSON.
type synthHandler struct {
	svc *service.Synthesizer
	tr  *tracer
}

func (h synthHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if ri := ops.Info(w); ri != nil {
		ri.Specs = 1
	}
	v, err := strconv.ParseUint(r.URL.Query().Get("spec"), 16, 64)
	if err != nil {
		http.Error(w, `{"error":"bad spec"}`, http.StatusBadRequest)
		return
	}
	var c circuit.Circuit
	var info core.Info
	ctx, o := h.tr.begin(r.Context(), spanService)
	c, info, err = h.svc.Synthesize(ctx, perm.Perm(v))
	h.tr.end(o, info.Candidates, info.Direct)
	a := answer{Cost: info.Cost, Direct: info.Direct, Candidates: info.Candidates}
	status := http.StatusOK
	if err != nil {
		a.Error = err.Error()
		status = http.StatusUnprocessableEntity
	} else {
		a.Circuit = c.String()
	}
	if ri := ops.Info(w); ri != nil {
		ri.Outcome = "ok"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(a)
}

// ask sends one spec through the fleet's HTTP handler in process.
func (f *fleet) ask(s spec) (answer, time.Duration, error) {
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/synthesize?spec=%016x", uint64(s.f)), nil)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	f.handler.ServeHTTP(rec, req)
	lat := time.Since(t0)
	var a answer
	if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
		return a, lat, fmt.Errorf("status %d: %w", rec.Code, err)
	}
	if rec.Code != http.StatusOK {
		return a, lat, fmt.Errorf("status %d: %s", rec.Code, a.Error)
	}
	return a, lat, nil
}

// checkWire verifies an answer as checkAnswer does, after parsing its
// circuit.
func checkWire(s spec, a answer) (circuit.Circuit, error) {
	c, err := circuit.Parse(a.Circuit)
	if err != nil {
		return nil, fmt.Errorf("spec %016x: %w", uint64(s.f), err)
	}
	return c, checkAnswer(s, c, core.Info{Cost: a.Cost}, nil)
}

func fleetStoresIn(dir string) fleetStores {
	return fleetStores{small: storePath(dir, "k3.tables"), splits: []string{storePath(dir, splitName(0)), storePath(dir, splitName(1))}}
}

// runFleetMix drives the fleet with two closed-loop callers. The whole
// fleet runs on one scheduler thread (GOMAXPROCS 1), as on a one-core
// host: its callers, service workers, clients and shard servers are a
// dozen goroutines handing each request across loopback TCP, and with
// two threads on two shared vCPUs every hand-off between them waits on
// the host's scheduler, which spreads runs several times wider
// (LAYERS.md).
func runFleetMix(cfg runConfig) (*report, error) {
	runtime.GOMAXPROCS(1)
	p, err := loadPool()
	if err != nil {
		return nil, err
	}
	in, err := newFleetInputs(p, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{workload: cfg.workload}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var loads, warms []float64
	setup := func() (*fleet, error) {
		runtime.GC() // each set-up starts from the same heap
		start := time.Now()
		f, err := startFleet(fleetStoresIn(cfg.dir), 6, tr)
		if err != nil {
			return nil, err
		}
		w0 := time.Now()
		for _, s := range in.warm {
			a, _, err := f.ask(s)
			if err == nil {
				_, err = checkWire(s, a)
			}
			if err != nil {
				f.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		rep.setups = append(rep.setups, time.Since(start))
		warms = append(warms, time.Since(w0).Seconds())
		loads = append(loads, f.loadTime.Seconds())
		return f, nil
	}
	var f *fleet
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	for i := 0; i < setupsBefore; i++ {
		if f != nil {
			f.close()
		}
		if f, err = setup(); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	svcBefore, cacheBefore, tiersBefore := f.svc.Stats(), f.fed.CacheStats(), f.fed.TierStats()
	tr.reset()
	rt := startRuntime()
	type callerOut struct {
		lats    []time.Duration
		costs   []int
		answers map[perm.Perm]string
		tried   int
		err     error
	}
	outs := make([]callerOut, fleetCallers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	rounds := roundsFor(cfg.seconds, fleetRoundsPerSecond)
	start := time.Now()
	for i := 0; i < fleetCallers; i++ {
		wg.Add(1)
		go func(out *callerOut, gen *fleetGen) {
			defer wg.Done()
			out.answers = map[perm.Perm]string{}
			for r := 0; r < rounds && !stop.Load(); r++ {
				round, err := gen.round()
				if err != nil {
					out.err = err
					stop.Store(true)
					return
				}
				for _, s := range round {
					out.tried++
					a, lat, err := f.ask(s)
					if err == nil {
						_, err = checkWire(s, a)
					}
					if prev, ok := out.answers[s.f]; err == nil && ok && prev != a.Circuit {
						err = fmt.Errorf("spec %016x: answered %s, earlier %s", uint64(s.f), a.Circuit, prev)
					}
					if err != nil {
						out.err = err
						stop.Store(true)
						return
					}
					out.answers[s.f] = a.Circuit
					out.lats = append(out.lats, lat)
					out.costs = append(out.costs, s.cost)
				}
			}
		}(&outs[i], newFleetGen(in, p, cfg.seed, i))
	}
	wg.Wait()
	rep.elapsed = time.Since(start)
	rep.rssMB = peakRSSMB()
	answers := map[perm.Perm]string{}
	for _, o := range outs {
		rep.attempted += o.tried
		rep.latencies = append(rep.latencies, o.lats...)
		rep.costs = append(rep.costs, o.costs...)
		if o.err != nil {
			rep.failed++
			rep.notes = append(rep.notes, "wrong answer: "+o.err.Error())
		}
		for k, v := range o.answers {
			if prev, ok := answers[k]; ok && prev != v {
				rep.failed++
				rep.notes = append(rep.notes, fmt.Sprintf("spec %016x: callers got %s and %s", uint64(k), prev, v))
			}
			answers[k] = v
		}
	}
	rep.runtime = rt.finish(len(rep.latencies))
	svcAfter, cacheAfter, tiersAfter := f.svc.Stats(), f.fed.CacheStats(), f.fed.TierStats()

	// Every circuit must byte-equal the sequential local reference.
	t0 := time.Now()
	diffs, err := compareReference(cfg.dir, answers)
	if err != nil {
		return nil, err
	}
	rep.failed += len(diffs)
	rep.notes = append(rep.notes, diffs...)
	rep.notes = append(rep.notes, fmt.Sprintf("%d distinct specs byte-equal to the sequential local reference (checked in %.1fs)",
		len(answers)-len(diffs), time.Since(t0).Seconds()))

	if cfg.trace {
		l := zeroLayers()
		queries := svcAfter.Queries - svcBefore.Queries
		l.set("ops.requests", float64(len(rep.latencies)))
		l.set("ops.rejected", float64(f.gate.Shed()))
		l.set("service.queries", float64(queries))
		l.set("service.cache_hit_ratio", ratio(svcAfter.CacheHits-svcBefore.CacheHits, queries))
		fleetLayers(l, tr, svcAfter.Direct-svcBefore.Direct, svcAfter.MITM-svcBefore.MITM)
		t0b, t0a := tiersBefore[0], tiersAfter[0]
		l.set("federation.tier0_probes", float64(t0a.Probes-t0b.Probes))
		l.set("federation.escalation_share", ratio(t0a.Escalations-t0b.Escalations, t0a.Probes-t0b.Probes))
		cacheLayers(l, cacheBefore, cacheAfter, svcAfter.Direct-svcBefore.Direct+svcAfter.MITM-svcBefore.MITM)
		rep.layers = l.m
		if err := tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
	}

	f.close()
	f = nil
	for i := 0; i < setupsAfter; i++ {
		g, err := setup()
		if err != nil {
			return nil, err
		}
		g.close()
	}
	if cfg.trace {
		l := &layers{m: rep.layers}
		l.set("tablesio.load_ms", median(loads)*1e3)
		l.set("setup.warmup_s", median(warms))
	}
	return rep, nil
}

// cacheLayers sets the shard clients' cache and wire metrics from the
// federation's aggregate counters; served is the base of the per-query
// wire volume.
func cacheLayers(l *layers, before, after tables.CacheStats, served uint64) {
	keyHits, keyMisses := after.KeyHits-before.KeyHits, after.KeyMisses-before.KeyMisses
	lvHits, lvMisses := after.LevelHits-before.LevelHits, after.LevelMisses-before.LevelMisses
	l.set("client.key_lookups", float64(keyHits+keyMisses))
	l.set("client.key_hit_ratio", ratio(keyHits, keyHits+keyMisses))
	l.set("client.level_reads", float64(lvHits+lvMisses))
	l.set("client.level_hit_ratio", ratio(lvHits, lvHits+lvMisses))
	l.set("client.key_misses", float64(keyMisses))
	l.set("client.coalesced", float64(after.Coalesced-before.Coalesced))
	l.set("client.admission_rejects", float64(after.AdmissionRejects-before.AdmissionRejects))
	wire := after.WireBytesRead - before.WireBytesRead + after.WireBytesWritten - before.WireBytesWritten
	l.set("client.wire_kb_per_query", ratio(wire, served)/1024)
	l.set("client.wire_retries", float64(after.WireRetries-before.WireRetries))
}

// fleetLayers derives the span-based metrics of a fleet-mix run. Spans
// are recorded as they end, so a parent follows its children.
func fleetLayers(l *layers, tr *tracer, direct, mitm uint64) {
	// Children kept per parent: the inner handler of an ops span and
	// the backend calls of a service span; client calls are only
	// counted per tier-1 call.
	children := map[uint32][]span{}
	clients := map[uint32]int{}
	var opsSelf, svcSelf, tier0, tier1, client, shard []time.Duration
	var recs []opRecord
	var backendCalls, lookups, keys int64
	var tier1Children int
	var shardTime, clientTime time.Duration
	tr.each(func(s span) {
		switch s.kind {
		case spanHandler:
			children[s.parent] = append(children[s.parent], s)
		case spanOps:
			opsSelf = append(opsSelf, selfTime(s, children[s.id]))
			delete(children, s.id)
		case spanFederation:
			children[s.parent] = append(children[s.parent], s)
			backendCalls++
			if s.n > 0 {
				lookups++
				keys += s.n
			}
		case spanService:
			ch := children[s.id]
			delete(children, s.id)
			if len(ch) == 0 {
				return // answered from the result cache
			}
			svcSelf = append(svcSelf, selfTime(s, ch))
			recs = append(recs, opRecord{lat: s.dur(), direct: s.direct, cands: s.n})
		case spanTier0:
			tier0 = append(tier0, s.dur())
		case spanTier1:
			tier1 = append(tier1, s.dur())
			tier1Children += clients[s.id]
			delete(clients, s.id)
		case spanClient:
			clients[s.parent]++
			client = append(client, s.dur())
			clientTime += s.dur()
		case spanShard:
			shard = append(shard, s.dur())
			shardTime += s.dur()
		}
	})
	l.set("ops.self_us", us(medianDur(opsSelf)))
	l.set("service.self_us", us(medianDur(svcSelf)))
	l.coreFromOps(recs, direct, mitm)
	l.set("core.backend_calls_per_query", ratio(backendCalls, int64(len(recs))))
	l.set("core.keys_per_lookup", ratio(keys, lookups))
	l.set("federation.tier0_us", us(medianDur(tier0)))
	l.set("federation.tier1_us", us(medianDur(tier1)))
	l.set("router.shard_call_us", us(medianDur(client)))
	l.set("router.shards_per_batch", ratio(tier1Children, len(tier1)))
	l.set("shard.serve_us", us(medianDur(shard)))
	if clientTime > 0 {
		l.set("shard.wire_share", 1-shardTime.Seconds()/clientTime.Seconds())
	}
}

// compareReference answers every spec with the sequential (one worker)
// local synthesizer over the full k=6 store and returns a line for each
// answer that differs from it byte for byte.
func compareReference(dir string, answers map[perm.Perm]string) ([]string, error) {
	res, _, err := tablesio.LoadFile(storePath(dir, "k6.tables"), bfs.GateAlphabet(), nil)
	if err != nil {
		return nil, err
	}
	defer res.Frozen.Close()
	ref, err := core.FromResult(res, 6)
	if err != nil {
		return nil, err
	}
	ref.SetWorkers(1)
	var diffs []string
	for f, got := range answers {
		c, err := ref.Synthesize(f)
		if err != nil {
			return nil, fmt.Errorf("reference for %016x: %w", uint64(f), err)
		}
		if want := c.String(); got != want {
			diffs = append(diffs, fmt.Sprintf("spec %016x: fleet answered %s, local reference %s", uint64(f), got, want))
		}
	}
	return diffs, nil
}
