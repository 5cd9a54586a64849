// Federation walkthrough: serving two table depths — a small k=4 store
// and a big k=6 fleet — behind one front door that answers every query
// byte-identically to big-k-only serving, while the big fleet sees
// only the hard tail. This is the multi-k deployment shape: the paper's
// cost distribution is bottom-heavy, so most realistic traffic resolves
// inside a table a few MB big and permanently cache-hot, and the
// multi-GB deep store earns its keep only on the rare hard functions.
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
//	curl 'localhost:8080/stats'      # per-tier probes/hits/escalations
//	curl 'localhost:8080/metrics'    # the same counters for Prometheus
//
// This program walks the same wiring in-process: it builds both table
// sets, serves each behind real loopback servers, federates them, and
// proves the two claims that make federation safe and worthwhile —
// every answer byte-matches direct big-k synthesis, and the escalation
// counters move only when a spec is genuinely beyond the small tier.
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
	// prefixes) and what makes escalated answers byte-identical: the
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
	// moved: the easy spec never leaves tier 0 (its direct probe hits
	// the small table and every reconstruction step is cost-bounded
	// under k=4); the hard spec escalates — and still byte-matches.
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
		match := "MATCHES big-k"
		if got.String() != want.String() {
			match = "DIVERGES from big-k(!)"
		}
		after := fed.TierStats()
		fmt.Printf("%s spec (optimal cost %d): %d gates, %s\n", name, cost, info.Cost, match)
		for i := range after {
			fmt.Printf("  tier k=%d: +%d probes, +%d hits, +%d escalations\n",
				after[i].K,
				after[i].Probes-before[i].Probes,
				after[i].Hits-before[i].Hits,
				after[i].Escalations-before[i].Escalations)
		}
		esc := after[0].Escalations - before[0].Escalations
		if cost <= small.MaxCost && esc != 0 {
			log.Fatalf("easy spec escalated %d keys", esc)
		}
		if cost > small.MaxCost && esc == 0 {
			log.Fatal("hard spec never escalated")
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
		fmt.Printf("  tier k=%d totals: %d probes, %d hits, %d escalations, %d errors\n",
			ts.K, ts.Probes, ts.Hits, ts.Escalations, ts.TierErrors)
	}
}
