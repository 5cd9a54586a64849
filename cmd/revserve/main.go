// Command revserve is the long-lived synthesis daemon: it loads (or
// builds and persists) the precomputed search tables exactly once and
// then answers optimal-synthesis queries over HTTP — the paper's
// compute-once/query-many workflow (§3.1) turned into a service.
//
// Usage:
//
//	revserve -addr :8080 -k 6 -tables k6.tables [-metric gates|cost|depth]
//	         [-workers N] [-query-workers N] [-cache 4096] [-timeout 30s]
//	revserve -shard-serve -addr :9090 -tables k6.tables [-drain-timeout 30s]
//	revserve -shard-serve -addr :9090 -tables k6.tables.0of2   # split store
//	revserve -router host1:9090,host2:9090 -addr :8080 [-remote-cache N]
//	revserve -router 'a1:9090|a2:9090,b1:9090|b2:9090' -addr :8080
//	revserve -topology fleet.json -addr :8080
//	revserve -federation 'small:9090;big1:9091|big2:9092' -addr :8080
//
// The daemon starts listening immediately; /healthz reports 503 until
// the tables are servable, so an orchestrator can gate traffic on
// readiness while a cold start proceeds. A tablesio v2 store (what
// -tables writes) is memory-mapped — milliseconds, O(pages touched),
// shared page-cache copy across replicas — where the host supports it,
// and otherwise streams through the verifying copying loader; neither
// re-inserts entries into a hash table (the paper's §4.1 reports an
// 1111-second load). /stats reports the path taken (table_format:
// "v2+mmap", "v2", or "built") alongside table_bytes,
// table_resident_bytes (mincore page residency of a mapped store) and
// load_duration_ns.
//
// # Distributed serving
//
// Beyond one host, the same binary plays two more roles:
//
//   - -shard-serve exports the local (typically memory-mapped) table
//     store over the tablenet binary protocol instead of HTTP: a shard
//     server. It serves either the full store (every shard maps the
//     same v2 file; mmap shares page-cache copies) or a shard-local
//     split file cut by revtables -split N, which holds ONLY that
//     range's ~1/N of the bytes. A split shard advertises its owned
//     key range in the handshake, so wiring it into the wrong range is
//     a typed connect-time refusal (ErrOwnership), checked again at
//     every reconnect. On SIGTERM/SIGINT the shard drains before
//     exiting: in-flight requests finish, the drain is advertised so
//     routers steer new work to siblings, and -drain-timeout bounds
//     the wait.
//   - -router serves the normal HTTP API but reads the tables through a
//     shard-by-key router over the listed shard servers: each lookup
//     batch is partitioned on the high Wang-hash bits of its canonical
//     keys — the same routing the in-process sharded table uses — so
//     every shard's hot (resident) page set converges to ~1/N of the
//     table. That is the deployment shape for table sets too large to
//     keep hot on one machine (the paper's k ≥ 9 regime).
//   - -federation fronts several per-k fleets as cost-horizon tiers:
//     ';'-separated tiers, each in -router syntax, ordered by table
//     depth automatically. Queries probe the smallest-k tier first —
//     its store is a few MB and permanently page-cache-hot — and only
//     the keys it does not hold escalate to the deeper fleets, so the
//     big-k fleet sees only the rare hard traffic (the paper's cost
//     distribution is overwhelmingly bottom-heavy). Tiers must be built
//     from the same alphabet (validated at startup; mismatches refuse
//     typed); answers are byte-identical to big-k-only serving. /stats
//     and /metrics report per-tier probe/hit/escalation counters;
//     /healthz is 503 only when the top (deepest) tier is down — lower
//     tier outages degrade to big-k-only serving.
//   - -topology is the live-membership form of -router: the fleet is
//     wired from a generation-stamped JSON document ({"generation",
//     "ranges", "replication", "members"} — members are assigned to
//     the ranges they own by rendezvous hashing, or pinned explicitly
//     via "groups") and rewired without a restart on SIGHUP or POST
//     /admin/topology (empty body re-reads the file; a JSON body is
//     applied directly). Swaps are atomic — in-flight queries finish
//     on the topology they started on — stale generations are refused,
//     and a document that fails to wire is rejected 409 with the
//     running fleet intact. /stats and /metrics report the installed
//     generation.
//
// The -router argument is "," separated hash ranges, each "|" separated
// replicas: -router 'a1|a2,b1|b2' is two ranges of two replicas each.
// Every request is an idempotent read of an immutable table generation,
// so a sub-batch that fails on one replica with a transport error fails
// over to a sibling; a per-replica circuit breaker (consecutive-failure
// ejection, background probe re-admission, half-open trials) keeps
// traffic off dead replicas, and each shard client retries transport
// faults with capped jittered backoff (-retry-attempts,
// -retry-backoff, -attempt-timeout). A router's /healthz distinguishes
// "degraded" (200 — some replica down, every range still covered: keep
// the instance, it answers everything) from "down" (503 — some hash
// range has no live replica: eject it). Each shard client keeps a
// tiered cache of immutable results (hot keys, level blocks) sized by
// -remote-cache; /stats reports the aggregate client-pool counters
// under "clients" alongside per-replica health, breaker state, and
// counters.
//
// # Traffic layer
//
// Both HTTP roles (front door and -router) wrap the API endpoints in a
// production traffic layer:
//
//   - -rate/-burst token-bucket rate limiting per client (X-Api-Key
//     header, else remote IP), plus -global-rate/-global-burst for the
//     whole process; over-rate requests get 429 with Retry-After.
//   - -max-inflight load-shedding admission control: arrivals beyond
//     the bound are rejected immediately with 503 + Retry-After rather
//     than queued into their own deadline (0 derives 8× the worker
//     pool; negative disables).
//   - GET /metrics serves Prometheus text exposition: request counts
//     and latency histograms, service counters, the query-latency
//     histogram, result-LRU and remote-cache tiers, per-replica
//     breaker state on a router, and the rate-limit/shed counters.
//   - One structured JSON log record per API request (method, status,
//     latency, client, spec count, outcome); -request-log=false
//     silences it.
//
// /healthz, /stats, and /metrics sit outside the traffic layer, so
// orchestrator probes and scrapes are never rate-limited or shed.
//
// Endpoints (all JSON unless noted):
//
//	GET  /synthesize?spec=[0,7,6,...]   one specification
//	POST /synthesize {"spec": "..."}    one specification
//	POST /synthesize {"specs": [...]}   a batch, pipelined across workers
//	GET  /size?spec=[...]               minimal cost only
//	GET  /stats                         serving counters (+ replica health on a router)
//	GET  /healthz                       200 once ready (or degraded), 503 loading/down
//	GET  /metrics                       Prometheus text exposition
//
// SIGINT/SIGTERM trigger a graceful shutdown: listeners stop, in-flight
// queries drain, then the process exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/ops"
	"repro/internal/perm"
	"repro/internal/render"
	"repro/internal/service"
	"repro/internal/tablenet"
	"repro/internal/tables"
	"repro/internal/tablesio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("revserve: ")
	var (
		addr       = flag.String("addr", ":8080", "listen address (HTTP, or the tablenet protocol with -shard-serve)")
		k          = flag.Int("k", core.DefaultK, "BFS depth when tables must be built")
		maxSplit   = flag.Int("maxsplit", 0, "meet-in-the-middle prefix bound (0: k)")
		tablesPath = flag.String("tables", "", "table store: loaded when present, written after a fresh build")
		metric     = flag.String("metric", "gates", "cost metric: gates, cost (NCV quantum cost), or depth")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent queries (worker pool bound)")
		qworkers   = flag.Int("query-workers", 1, "per-query meet-in-the-middle fan-out (1 is right for saturated serving)")
		cache      = flag.Int("cache", service.DefaultCacheSize, "LRU result-cache entries (negative disables)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-query timeout (0 disables)")
		shardServe = flag.Bool("shard-serve", false, "export the table store over the tablenet protocol on -addr instead of serving HTTP")
		router     = flag.String("router", "", "shard fleet topology: comma-separated hash ranges, each a |-separated replica list "+
			"(e.g. 'a1|a2,b1|b2'); serve HTTP against a shard-by-key router with replica failover over them")
		topology = flag.String("topology", "", "fleet topology file for router serving with live membership: JSON "+
			`{"generation", "ranges", "replication", "members"}; rendezvous hashing assigns ranges, `+
			"SIGHUP or POST /admin/topology reloads it, and the swap applies atomically (in-flight queries finish on the old fleet)")
		federation = flag.String("federation", "", "tiered multi-k serving: ';'-separated tiers, each a -router style fleet spec "+
			"(e.g. 'small:9090;big1:9091|big2:9092') ordered by table depth automatically; queries probe the smallest-k tier "+
			"first and only beyond-horizon keys escalate to the deeper fleets")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound for -shard-serve: SIGTERM announces "+
			"draining in the handshake, in-flight requests finish, then the process exits")
		shardConns  = flag.Int("shard-conns", 0, "connection-pool size per shard backend (0: default)")
		remoteCache = flag.Int("remote-cache", 0, "per-shard client hot-key cache entries for -router "+
			"(0: default, negative: disable all client caches). Frozen tables are immutable, so cached entries are valid for the process lifetime")
		retryAttempts = flag.Int("retry-attempts", 0, "per-request transport retry attempts per shard client (0: default)")
		retryBackoff  = flag.Duration("retry-backoff", 0, "first retry backoff; doubles, capped, jittered (0: default)")
		attemptTO     = flag.Duration("attempt-timeout", 0, "per-attempt deadline for shard requests (0: default, negative: ctx-bound only)")
		probeInterval = flag.Duration("probe-interval", 0, "background replica re-admission probe period (0: default, negative: disable)")
		rate          = flag.Float64("rate", 0, "per-client rate limit in req/s on /synthesize and /size; over-rate clients get 429 + Retry-After (0 disables)")
		burst         = flag.Int("burst", 0, "per-client burst size for -rate (0: max(rate,1))")
		globalRate    = flag.Float64("global-rate", 0, "whole-process rate limit in req/s (0 disables)")
		globalBurst   = flag.Int("global-burst", 0, "global burst size for -global-rate (0: max(global-rate,1))")
		maxInflight   = flag.Int("max-inflight", 0, "load-shed bound on concurrent API requests; over-depth arrivals get 503 + Retry-After (0: 8x workers, negative disables)")
		requestLog    = flag.Bool("request-log", true, "emit one structured JSON log record per API request")
	)
	flag.Parse()
	fleetRoles := 0
	for _, set := range []bool{*router != "", *topology != "", *federation != ""} {
		if set {
			fleetRoles++
		}
	}
	if *shardServe && fleetRoles > 0 {
		log.Fatal("-shard-serve and -router/-topology/-federation are mutually exclusive roles")
	}
	if fleetRoles > 1 {
		log.Fatal("-router (static wiring), -topology (live membership), and -federation (tiered fleets) are mutually exclusive; pick one")
	}
	if fleetRoles > 0 && *tablesPath != "" {
		// Mirror the service layer's explicit-precedence stance: two
		// complete table sources is a wiring mistake, not a fallback.
		log.Fatal("a router serves tables from the shard fleet; -tables conflicts (drop one)")
	}

	var alphabet *bfs.Alphabet
	switch *metric {
	case "gates":
	case "cost":
		a, err := bfs.WeightedGateAlphabet(gate.Gate.QuantumCost)
		if err != nil {
			log.Fatal(err)
		}
		alphabet = a
	case "depth":
		alphabet = bfs.LayerAlphabet()
	default:
		log.Fatalf("unknown metric %q", *metric)
	}

	if *shardServe {
		runShardServer(*addr, *tablesPath, *k, alphabet, *qworkers, *drainTimeout)
		return
	}

	cfg := service.Config{
		K:              *k,
		MaxSplit:       *maxSplit,
		Alphabet:       alphabet,
		TablesPath:     *tablesPath,
		Workers:        *workers,
		QueryWorkers:   *qworkers,
		CacheSize:      *cache,
		DefaultTimeout: *timeout,
		Progress: func(level, entries int) {
			log.Printf("tables level %d: %d entries", level, entries)
		},
	}
	newClientOptions := func() *tablenet.ClientOptions {
		copts := &tablenet.ClientOptions{
			Conns:     *shardConns,
			CacheKeys: *remoteCache,
			Retry: tablenet.RetryPolicy{
				MaxAttempts:    *retryAttempts,
				BaseBackoff:    *retryBackoff,
				AttemptTimeout: *attemptTO,
			},
		}
		if *remoteCache < 0 {
			copts.LevelCacheBytes = -1 // disabling the knob disables every tier
		}
		return copts
	}
	// dialRouterSpec wires one '-router'-syntax fleet spec (','-separated
	// hash ranges of '|'-separated replicas) into a replicated router,
	// recording each dialed client for /stats annotation.
	dialRouterSpec := func(spec, role string, shardClients map[string]*tablenet.Client) *tablenet.Router {
		var groups [][]tables.Backend
		for _, rangeSpec := range strings.Split(spec, ",") {
			var reps []tables.Backend
			for _, a := range strings.Split(rangeSpec, "|") {
				a = strings.TrimSpace(a)
				if a == "" {
					continue
				}
				cl, err := tablenet.Dial(a, newClientOptions())
				if err != nil {
					log.Fatalf("dialing shard %s: %v", a, err)
				}
				reps = append(reps, cl)
				shardClients[a] = cl
				log.Printf("%s shard %s (range %d): k=%d entries=%d", role, a, len(groups), cl.Meta().K, cl.Meta().Entries)
			}
			if len(reps) > 0 {
				groups = append(groups, reps)
			}
		}
		r, err := tablenet.NewReplicatedRouter(groups, tablenet.RouterOptions{ProbeInterval: *probeInterval})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	var fleet fleetView
	var genFn func() uint64
	reg := &clientRegistry{}
	var admin *topologyAdmin
	switch {
	case *router != "":
		shardClients := map[string]*tablenet.Client{}
		r := dialRouterSpec(*router, "router", shardClients)
		defer r.Close()
		reg.replace(shardClients)
		fleet = r
		cfg.Backend = r
		cfg.TablesPath = "" // the tables live in the shard fleet
	case *federation != "":
		shardClients := map[string]*tablenet.Client{}
		var tiers []tables.Backend
		for ti, tierSpec := range strings.Split(*federation, ";") {
			tierSpec = strings.TrimSpace(tierSpec)
			if tierSpec == "" {
				continue
			}
			tiers = append(tiers, dialRouterSpec(tierSpec, fmt.Sprintf("tier %d", ti), shardClients))
		}
		fed, err := tablenet.NewFederation(tiers)
		if err != nil {
			log.Fatal(err)
		}
		defer fed.Close()
		reg.replace(shardClients)
		fleet = fed
		cfg.Backend = fed
		cfg.TablesPath = "" // the tables live in the tiered fleets
		for _, ts := range fed.TierStats() {
			log.Printf("federation tier k=%d horizon=%d (%s)", ts.K, ts.Horizon, ts.Source)
		}
	case *topology != "":
		buildFleetRouter := func(t *tablenet.Topology) (*tablenet.Router, map[string]*tablenet.Client, error) {
			clients := map[string]*tablenet.Client{}
			groups, err := tablenet.BuildFleet(t, func(addr string) (tables.Backend, error) {
				cl, err := tablenet.Dial(addr, newClientOptions())
				if err != nil {
					return nil, err
				}
				clients[addr] = cl
				return cl, nil
			})
			if err != nil {
				return nil, nil, err
			}
			r, err := tablenet.NewReplicatedRouter(groups, tablenet.RouterOptions{ProbeInterval: *probeInterval})
			if err != nil {
				for _, reps := range groups {
					for _, b := range reps {
						b.Close()
					}
				}
				return nil, nil, err
			}
			return r, clients, nil
		}
		t, err := tablenet.LoadTopologyFile(*topology)
		if err != nil {
			log.Fatal(err)
		}
		r, clients, err := buildFleetRouter(t)
		if err != nil {
			log.Fatal(err)
		}
		swap := tablenet.NewSwapBackend(r, t.Generation)
		defer swap.Close()
		reg.replace(clients)
		fleet = swap
		genFn = swap.Generation
		cfg.Backend = swap
		cfg.TablesPath = "" // the tables live in the shard fleet
		log.Printf("topology generation %d: %d ranges, %d shards", t.Generation, swap.Ranges(), swap.Shards())
		// apply is the one reload path, shared by SIGHUP and the admin
		// endpoint: build the whole new fleet off to the side, swap it in
		// atomically, and on any failure keep serving the old one.
		apply := func(t *tablenet.Topology) error {
			r, clients, err := buildFleetRouter(t)
			if err != nil {
				return err
			}
			if err := swap.Swap(r, t.Generation); err != nil {
				r.Close()
				return err
			}
			reg.replace(clients)
			log.Printf("topology swapped to generation %d: %d ranges, %d shards", t.Generation, swap.Ranges(), swap.Shards())
			return nil
		}
		admin = &topologyAdmin{swap: swap, path: *topology, apply: apply}
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				t, err := tablenet.LoadTopologyFile(*topology)
				if err == nil {
					err = apply(t)
				}
				if err != nil {
					log.Printf("topology reload (SIGHUP): %v", err)
				}
			}
		}()
	}

	svc := service.NewAsync(cfg)
	go func() {
		<-svc.Ready()
		if err := svc.Err(); err != nil {
			// Keep serving: /healthz reports the failure as a 500 so the
			// orchestrator that gated traffic on readiness can see why
			// and recycle the pod, rather than the process vanishing
			// mid-drain. Queries fail fast with the same error.
			log.Printf("table startup FAILED (serving /healthz as failed): %v", err)
			return
		}
		st := svc.Stats()
		log.Printf("tables ready in %v: k=%d horizon=%d entries=%d format=%s bytes=%d",
			st.LoadDuration.Round(time.Millisecond), st.K, st.Horizon, st.TableEntries,
			st.TableFormat, st.TableBytes)
	}()

	layer := newOpsLayer(svc, fleet, genFn, opsOptions{
		Rate:        *rate,
		Burst:       *burst,
		GlobalRate:  *globalRate,
		GlobalBurst: *globalBurst,
		MaxInflight: *maxInflight,
		Workers:     *workers,
		RequestLog:  *requestLog,
	})
	handler := buildHandler(svc, fleet, reg, admin, layer)

	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Reap slow/dead clients: without these a trickled header or an
		// abandoned keep-alive pins a goroutine and fd forever on a
		// long-lived daemon. Handler time is governed separately by the
		// service's per-query timeout, so no WriteTimeout here — a cold
		// k = 9 startup keeps /healthz responsive regardless.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("listening on %s (metric=%s, workers=%d)", *addr, *metric, *workers)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("shutting down...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Close(shutdownCtx); err != nil {
		log.Printf("service drain: %v", err)
	}
	layer.close()
	log.Print("bye")
}

// fleetView is what the HTTP surface needs from a shard-fleet backend.
// Both router shapes satisfy it: the static -router wiring
// (*tablenet.Router) and the live -topology wiring
// (*tablenet.SwapBackend, which delegates to whichever router its
// current epoch holds).
type fleetView interface {
	fleetCollector
	Health(ctx context.Context) tablenet.FleetHealth
	Check(ctx context.Context) []tablenet.ShardStatus
	CacheStats() tables.CacheStats
}

// clientRegistry maps shard address to its dialed client for /stats
// annotation. Under -topology the map is replaced on every applied
// reload (the old clients belong to the superseded router, which closes
// them once its in-flight queries drain).
type clientRegistry struct {
	mu sync.Mutex
	m  map[string]*tablenet.Client
}

func (r *clientRegistry) replace(m map[string]*tablenet.Client) {
	r.mu.Lock()
	r.m = m
	r.mu.Unlock()
}

func (r *clientRegistry) get(addr string) *tablenet.Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[addr]
}

// topologyAdmin is the /admin/topology surface: report the installed
// generation, apply a posted topology, or re-read the file.
type topologyAdmin struct {
	swap  *tablenet.SwapBackend
	path  string
	apply func(*tablenet.Topology) error
}

// buildHandler assembles the HTTP surface: the API endpoints
// (/synthesize, /size) wrapped in the traffic layer, the observability
// and admin endpoints (/stats, /healthz, /metrics, /admin/topology)
// left outside it so health polling, scraping, and topology pushes can
// never be rate-limited or shed.
func buildHandler(svc *service.Synthesizer, fleet fleetView, reg *clientRegistry, admin *topologyAdmin, layer *opsLayer) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/synthesize", layer.wrap(handleSynthesize(svc, true)))
	mux.Handle("/size", layer.wrap(handleSynthesize(svc, false)))
	mux.Handle("/metrics", layer.registry.Handler())
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if fleet == nil {
			writeJSON(w, http.StatusOK, svc.Stats())
			return
		}
		// On a router, annotate the serving stats with per-replica health
		// (probe result plus breaker state) and counters, plus the
		// aggregate client-pool counters (cache tiers, coalescing, wire
		// bytes) so one scrape sees the whole fleet and what the caches
		// are saving it.
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		defer cancel()
		type shardStats struct {
			Addr     string             `json:"addr"`
			Range    int                `json:"range"`
			State    string             `json:"state"`
			Draining bool               `json:"draining,omitempty"`
			Err      string             `json:"err,omitempty"`
			Stats    *tablenet.Stats    `json:"stats,omitempty"`
			Clients  *tables.CacheStats `json:"clients,omitempty"`
		}
		var shards []shardStats
		for _, st := range fleet.Check(ctx) {
			s := shardStats{Addr: st.Addr, Range: st.Range, State: st.State, Draining: st.Draining}
			if st.Err != nil {
				s.Err = st.Err.Error()
			}
			if cl := reg.get(st.Addr); cl != nil {
				cs := cl.CacheStats()
				s.Clients = &cs
				if st.Err == nil {
					if counters, err := cl.ServerStats(ctx); err == nil {
						s.Stats = &counters
					}
				}
			}
			shards = append(shards, s)
		}
		out := map[string]any{
			"service":  svc.Stats(),
			"clients":  fleet.CacheStats(),
			"replicas": fleet.HealthStats(),
			"shards":   shards,
		}
		if ts, ok := fleet.(tables.TierStatser); ok {
			// A federation: per-tier routing counters (probes, hits,
			// escalations) — the signal that says how much traffic never
			// left the small always-warm tier.
			out["tiers"] = ts.TierStats()
		}
		if admin != nil {
			out["topology_generation"] = admin.swap.Generation()
		}
		writeJSON(w, http.StatusOK, out)
	})
	if admin != nil {
		mux.HandleFunc("/admin/topology", func(w http.ResponseWriter, r *http.Request) {
			switch r.Method {
			case http.MethodGet:
				writeJSON(w, http.StatusOK, map[string]any{
					"generation": admin.swap.Generation(),
					"ranges":     admin.swap.Ranges(),
					"shards":     admin.swap.Shards(),
				})
			case http.MethodPost:
				body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
				if err != nil {
					writeJSON(w, http.StatusBadRequest, map[string]string{"err": err.Error()})
					return
				}
				var t *tablenet.Topology
				if len(strings.TrimSpace(string(body))) > 0 {
					t, err = tablenet.ParseTopology(body)
				} else {
					// An empty POST means "re-read your -topology file" —
					// the kick a config pusher sends after writing it.
					t, err = tablenet.LoadTopologyFile(admin.path)
				}
				if err != nil {
					writeJSON(w, http.StatusBadRequest, map[string]string{"err": err.Error()})
					return
				}
				if err := admin.apply(t); err != nil {
					// 409, not 500: the running topology is intact; the
					// pushed one was refused (stale generation, unreachable
					// member, ownership hole) and the pusher must fix it.
					writeJSON(w, http.StatusConflict, map[string]string{"err": err.Error()})
					return
				}
				writeJSON(w, http.StatusOK, map[string]any{"generation": t.Generation})
			default:
				w.Header().Set("Allow", "GET, POST")
				writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"err": "use GET or POST"})
			}
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := svc.Stats()
		switch {
		case st.Err != "":
			writeJSON(w, http.StatusInternalServerError, map[string]string{"status": "failed", "err": st.Err})
		case !st.Ready:
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "loading"})
		default:
			if fleet != nil {
				// Degraded vs down: a fleet with dead replicas but every
				// hash range still covered answers every query (with less
				// headroom) — 200 "degraded", keep it in rotation. A hash
				// range with no live replica fails its share of keyed
				// lookups — 503 "down", eject the instance.
				ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
				defer cancel()
				fh := fleet.Health(ctx)
				unreachable := map[string]string{}
				for _, s := range fh.Replicas {
					if s.Err != nil {
						unreachable[s.Addr] = s.Err.Error()
					}
				}
				switch {
				case fh.Down():
					writeJSON(w, http.StatusServiceUnavailable, map[string]any{
						"status": "down", "down_ranges": fh.DownRanges, "unreachable_replicas": unreachable})
					return
				case fh.Degraded:
					writeJSON(w, http.StatusOK, map[string]any{
						"status": "degraded", "unreachable_replicas": unreachable})
					return
				}
			}
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		}
	})
	return mux
}

// runShardServer is the -shard-serve role: acquire the table store
// (memory-mapping a v2 file when present — full or split — building and
// persisting one otherwise) and export it over the tablenet protocol
// until SIGTERM. A split store (one of the files revtables -split N
// writes) serves as a range-owning partial backend: its hello advertises the owned range
// and the router verifies it against the wiring. The mmap path is what
// makes shards cheap: N shard processes on one host share a single
// page-cache copy, and across hosts each replica's resident set is
// only the partition the router sends it.
//
// SIGTERM (or SIGINT) begins a graceful drain rather than an abrupt
// close: the handshake and pings announce draining (so routers steer
// new sub-batches to siblings), in-flight requests finish, the
// listener closes, and only then — or after drainTimeout — does the
// process exit. A rolling restart is therefore invisible to queries.
func runShardServer(addr, tablesPath string, k int, alphabet *bfs.Alphabet, queryWorkers int, drainTimeout time.Duration) {
	if alphabet == nil {
		alphabet = bfs.GateAlphabet()
	}
	var res *bfs.Result
	var split *tables.Split
	start := time.Now()
	if tablesPath != "" {
		loaded, info, err := tablesio.LoadFile(tablesPath, alphabet, &tablesio.LoadOptions{AllowSplit: true})
		switch {
		case err == nil:
			res = loaded
			split = info.Split
			log.Printf("tables %s: %s, %d entries in %v", tablesPath, info, loaded.TotalStored(), time.Since(start).Round(time.Millisecond))
		case !errors.Is(err, os.ErrNotExist):
			log.Fatalf("loading %s: %v", tablesPath, err)
		}
	}
	if res == nil {
		log.Printf("building k=%d tables...", k)
		// The build emits its store straight to tablesPath when one is
		// set.
		synth, err := core.Build(core.Config{K: k, Alphabet: alphabet, Workers: queryWorkers}, tablesPath, nil)
		if err != nil {
			log.Fatal(err)
		}
		res = synth.Result()
		log.Printf("tables built: %d entries in %v", res.TotalStored(), time.Since(start).Round(time.Millisecond))
	}
	var backend tables.Backend
	var err error
	if split != nil {
		backend, err = tables.NewPartial(res, split)
		if err == nil {
			p := backend.(*tables.Partial)
			lo, hi := p.OwnedRange()
			log.Printf("split store %d/%d: owned range [%#x, %#x)", split.I, split.N, lo, hi)
		}
	} else {
		backend, err = tables.NewLocal(res)
	}
	if err != nil {
		log.Fatal(err)
	}
	srv, err := tablenet.NewServer(backend)
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("shard serving on %s (k=%d, %d entries)", l.Addr(), res.MaxCost, res.TotalStored())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("draining (bound %v)...", drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("drain cut short: %v", err)
	}
	srv.Close()
	res.Frozen.Close()
	log.Print("bye")
}

// synthRequest is the POST body of /synthesize and /size: exactly one of
// Spec or Specs.
type synthRequest struct {
	Spec  string   `json:"spec,omitempty"`
	Specs []string `json:"specs,omitempty"`
	// Render asks for the Unicode circuit diagram in the reply.
	Render bool `json:"render,omitempty"`
}

// synthResponse is one answered specification.
type synthResponse struct {
	Spec        string `json:"spec"`
	Cost        int    `json:"cost"`
	Direct      bool   `json:"direct"`
	SplitPrefix int    `json:"split_prefix,omitempty"`
	Circuit     string `json:"circuit,omitempty"`
	Diagram     string `json:"diagram,omitempty"`
	Err         string `json:"err,omitempty"`
}

func handleSynthesize(svc *service.Synthesizer, withCircuit bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req synthRequest
		switch r.Method {
		case http.MethodGet:
			req.Spec = r.URL.Query().Get("spec")
			if v := r.URL.Query().Get("render"); v != "" {
				b, err := strconv.ParseBool(v)
				if err != nil {
					// Silently dropping the parse error would serve the
					// request without the diagram the caller asked for.
					writeJSON(w, http.StatusBadRequest, map[string]string{
						"err": fmt.Sprintf("invalid render parameter %q: want a boolean", v)})
					return
				}
				req.Render = b
			}
		case http.MethodPost:
			if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<22)).Decode(&req); err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"err": "bad JSON: " + err.Error()})
				return
			}
		default:
			w.Header().Set("Allow", "GET, POST")
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"err": "use GET or POST"})
			return
		}
		batch := req.Specs != nil
		if req.Spec != "" {
			req.Specs = append([]string{req.Spec}, req.Specs...)
		}
		if len(req.Specs) == 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"err": "missing spec"})
			return
		}
		fs := make([]perm.Perm, len(req.Specs))
		for i, s := range req.Specs {
			f, err := perm.Parse(s)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"err": fmt.Sprintf("spec %d: %v", i, err)})
				return
			}
			fs[i] = f
		}
		results := svc.SynthesizeAll(r.Context(), fs)
		out := make([]synthResponse, len(results))
		failed, worst := 0, 0
		for i, res := range results {
			out[i] = synthResponse{Spec: fs[i].String()}
			if res.Err != nil {
				out[i].Err = res.Err.Error()
				failed++
				if s := statusFor(res.Err); s > worst {
					worst = s
				}
				continue
			}
			out[i].Cost = res.Info.Cost
			out[i].Direct = res.Info.Direct
			out[i].SplitPrefix = res.Info.SplitPrefix
			if withCircuit {
				out[i].Circuit = res.Circuit.String()
				if req.Render {
					out[i].Diagram = render.Circuit(res.Circuit, render.Unicode)
				}
			}
		}
		if ri := ops.Info(w); ri != nil {
			ri.Specs = len(fs)
			switch {
			case failed == 0:
				ri.Outcome = "ok"
			case failed == len(results):
				ri.Outcome = "error"
			default:
				ri.Outcome = "partial"
			}
		}
		if !batch {
			writeJSON(w, statusFor(results[0].Err), out[0])
			return
		}
		// A batch where every result failed must not answer 200: report
		// the worst per-result status (numeric max puts capacity problems
		// — 503/504 — above client errors) so load balancers and retry
		// policies see a fleet outage as one. Mixed batches stay 200: the
		// per-result errors carry the detail.
		status := http.StatusOK
		if failed == len(results) {
			status = worst
		}
		writeJSON(w, status, map[string]any{"results": out})
	}
}

// statusFor maps a per-query error to an HTTP status: the taxonomy a
// load balancer needs to tell client errors from capacity problems.
func statusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, core.ErrBeyondHorizon):
		return http.StatusUnprocessableEntity
	case errors.Is(err, core.ErrInvalidFunction):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, service.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, tablenet.ErrUnavailable):
		// A shard fleet outage is a capacity problem, not a server bug:
		// 503 tells the load balancer to back off and retry elsewhere,
		// where a 500 would count against error budgets and mask the
		// actual remedy (wait for the fleet).
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
