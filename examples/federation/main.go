// Federation walkthrough: serving two table depths — a small k=4 store
// and a big k=6 fleet — behind one front door that answers every query
// byte-identically to big-k-only serving. The federation has one
// routing rule: each read goes to the shallowest tier whose depth
// covers what it needs, and fails over deeper only on error. A query's
// direct probe needs the full depth (its cost is the unknown), so it
// goes to the big fleet; once the cost is known, each reconstruction
// step needs only the remaining cost, so the cheap steps — and the
// reads of the levels the small store holds — stay on the small,
// page-cache-hot tier.
//
//	go run ./examples/federation
//
// As standalone daemons the same steps are:
//
//	# 1. Build and save each depth once (paper §3.1 workflow):
//	go run ./cmd/revtables -table none -k 4 -save k4.tables
//	go run ./cmd/revtables -table none -k 6 -save k6.tables
//
//	# 2. Serve each depth as its own fleet:
//	go run ./cmd/revserve -shard-serve -tables k4.tables -addr :9090 &
//	go run ./cmd/revserve -shard-serve -tables k6.tables -addr :9091 &
//	go run ./cmd/revserve -shard-serve -tables k6.tables -addr :9092 &
//
//	# 3. Federate: ';' separates tiers (ordered by depth automatically),
//	#    each tier uses the -router fleet syntax ('|' replicas within a
//	#    range, ',' between ranges):
//	go run ./cmd/revserve -federation 'localhost:9090;localhost:9091|localhost:9092' -addr :8080 &
//
//	# 4. Query it exactly like a single-host revserve, and watch the
//	#    per-tier counters under "tiers":
//	curl -g 'localhost:8080/synthesize?spec=[0,7,6,9,4,11,10,13,8,15,14,1,12,3,2,5]'
//	curl 'localhost:8080/stats'      # per-tier probes/hits/level reads
//	curl 'localhost:8080/metrics'    # the same counters for Prometheus
//
// This program walks the same wiring in-process: it builds both table
// sets, serves each behind real loopback servers, federates them, and
// proves the two claims that make federation safe and worthwhile —
// every answer byte-matches direct big-k synthesis, and each probe
// lands on the tier its cost bound names.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"

	"repro/internal/bfs"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/extbuild"
	"repro/internal/gate"
	"repro/internal/perm"
	"repro/internal/service"
	"repro/internal/tablenet"
	"repro/internal/tables"
)

func main() {
	// 1. Build both depths over the SAME alphabet — that sameness is
	// what NewFederation validates (fingerprint, reduction, level-count
	// prefixes) and what makes routed answers byte-identical: the
	// build is deterministic, so the k=4 tables are an exact prefix of
	// the k=6 tables.
	fmt.Println("building k=4 and k=6 tables over one alphabet...")
	small, _, err := extbuild.BuildResult(extbuild.Options{Alphabet: bfs.GateAlphabet(), K: 4})
	if err != nil {
		log.Fatal(err)
	}
	big, _, err := extbuild.BuildResult(extbuild.Options{Alphabet: bfs.GateAlphabet(), K: 6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  k=4: %d classes; k=6: %d classes (%.0f× bigger)\n\n",
		small.TotalStored(), big.TotalStored(),
		float64(big.TotalStored())/float64(small.TotalStored()))

	// 2. Serve both depths behind real servers: the small store as one
	// shard, the big store as a two-shard fleet behind a router.
	serve := func(res *bfs.Result) string {
		local, err := tables.NewLocal(res)
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
		return l.Addr().String()
	}
	dial := func(addr string) tables.Backend {
		cl, err := tablenet.Dial(addr, nil)
		if err != nil {
			log.Fatal(err)
		}
		return cl
	}
	smallTier := dial(serve(small))
	bigRouter, err := tablenet.NewRouter([]tables.Backend{dial(serve(big)), dial(serve(big))})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Federate. Tiers may arrive in any order — they are sorted by
	// depth, and the federation's Meta is the top tier's geometry, so
	// the query engine plans exactly as it would against k=6 alone.
	fed, err := tablenet.NewFederation([]tables.Backend{bigRouter, smallTier})
	if err != nil {
		log.Fatal(err)
	}
	defer fed.Close()
	svc, err := service.New(service.Config{Backend: fed, QueryWorkers: 1, CacheSize: -1})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close(context.Background())
	fmt.Printf("federation up: %d tiers, top-tier horizon k=%d\n\n", fed.Tiers(), fed.Meta().K)

	// The referee: direct big-k synthesis on the local tables.
	direct, err := core.FromResult(big, 0)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Pick one easy spec (optimal cost within the small tier) and
	// one hard spec (beyond it), found by asking the referee.
	rng := rand.New(rand.NewSource(11))
	pick := func(gates, lo, hi int) (perm.Perm, int) {
		for {
			c := make(circuit.Circuit, gates)
			for i := range c {
				c[i] = gate.FromIndex(rng.Intn(gate.Count))
			}
			f := c.Perm()
			if _, info, err := direct.SynthesizeInfoCtx(context.Background(), f); err == nil && info.Cost >= lo && info.Cost <= hi {
				return f, info.Cost
			}
		}
	}
	easy, easyCost := pick(3, 1, small.MaxCost)
	hard, hardCost := pick(8, small.MaxCost+1, 2*big.MaxCost)

	// 5. Synthesize each through the federation and show which counters
	// moved. The easy spec's direct probe is bounded by k=6, so it is
	// the big tier's only probe; its cost − 1 reconstruction steps are
	// each bounded by the remaining cost, under k=4, so they all land on
	// the small tier. The hard spec's cheap steps land there too.
	show := func(name string, f perm.Perm, cost int) {
		before := fed.TierStats()
		got, info, err := svc.Synthesize(context.Background(), f)
		if err != nil {
			log.Fatal(err)
		}
		want, _, err := direct.SynthesizeInfoCtx(context.Background(), f)
		if err != nil {
			log.Fatal(err)
		}
		if got.String() != want.String() {
			log.Fatalf("%s spec: federated %v DIVERGES from big-k %v", name, got, want)
		}
		after := fed.TierStats()
		fmt.Printf("%s spec (optimal cost %d): %d gates, MATCHES big-k\n", name, cost, info.Cost)
		probes := make([]uint64, len(after))
		for i := range after {
			probes[i] = after[i].Probes - before[i].Probes
			fmt.Printf("  tier k=%d: +%d probes, +%d hits, +%d level reads\n",
				after[i].K, probes[i],
				after[i].Hits-before[i].Hits,
				after[i].LevelReads-before[i].LevelReads)
		}
		if cost <= small.MaxCost && (probes[1] != 1 || probes[0] != uint64(cost-1)) {
			log.Fatalf("easy spec probed the tiers %v times, want [%d 1]", probes, cost-1)
		}
		if cost > small.MaxCost && probes[0] == 0 {
			log.Fatal("hard spec's cheap reconstruction steps never reached the small tier")
		}
		fmt.Println()
	}
	show("easy", easy, easyCost)
	show("hard", hard, hardCost)

	// 6. The operator's view: health folds per-tier — the federation is
	// down only if the top (authoritative) tier is down; a small-tier
	// outage merely degrades it back to big-k-only serving.
	h := fed.Health(context.Background())
	fmt.Printf("health: degraded=%v down=%v across %d replicas\n", h.Degraded, h.Down(), len(h.Replicas))
	for _, ts := range fed.TierStats() {
		fmt.Printf("  tier k=%d totals: %d probes, %d hits, %d level reads, %d errors\n",
			ts.K, ts.Probes, ts.Hits, ts.LevelReads, ts.TierErrors)
	}
}
