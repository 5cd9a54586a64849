// Cluster walkthrough: serving one table set from a fleet of
// partitioned stores — and restarting every shard, one at a time,
// without dropping a query. This is the deployment shape for table
// sets too large to keep hot on one host (the paper's k ≥ 9 tables are
// multi-GB; the follow-up study's are larger still) that must also
// survive shard loss AND routine maintenance.
//
//	go run ./examples/cluster
//
// As standalone daemons the same steps are:
//
//	# 1. Build the tables once, on the big machine (paper §3.1), and
//	#    cut the v2 store into shard-local split files. Each shard
//	#    mounts ONLY its slice — ~1/N of the bytes on disk and in page
//	#    cache, not just 1/N hot:
//	go run ./cmd/revtables -table none -k 6 -save k6.tables -split 2
//	#    → k6.tables.0of2, k6.tables.1of2
//
//	# 2. Start four shard servers: two hash ranges, two replicas each.
//	#    A split store advertises its owned key range in the tablenet
//	#    handshake, so a shard wired into the wrong range is refused at
//	#    connect time (typed ErrOwnership) — never silently wrong:
//	go run ./cmd/revserve -shard-serve -tables k6.tables.0of2 -addr :9091 &  # range 0, replica a
//	go run ./cmd/revserve -shard-serve -tables k6.tables.0of2 -addr :9092 &  # range 0, replica b
//	go run ./cmd/revserve -shard-serve -tables k6.tables.1of2 -addr :9093 &  # range 1, replica a
//	go run ./cmd/revserve -shard-serve -tables k6.tables.1of2 -addr :9094 &  # range 1, replica b
//
//	# 3. Describe the fleet in a topology file and start a router on
//	#    it. Members are assigned to the ranges they own by rendezvous
//	#    hashing, so membership edits move as little as possible:
//	cat > fleet.json <<'EOF'
//	{"generation": 1, "ranges": 2, "replication": 2,
//	 "members": ["localhost:9091", "localhost:9092",
//	             "localhost:9093", "localhost:9094"]}
//	EOF
//	go run ./cmd/revserve -topology fleet.json -addr :8080 &
//
//	# 4. Query it exactly like a single-host revserve:
//	curl -g 'localhost:8080/synthesize?spec=[0,7,6,9,4,11,10,13,8,15,14,1,12,3,2,5]'
//	curl 'localhost:8080/stats'    # replicas, breaker state, topology_generation
//
//	# 5. Roll a shard without downtime: start its replacement, bump
//	#    "generation" in fleet.json with the new member list, reload
//	#    (SIGHUP or POST /admin/topology — empty body re-reads the
//	#    file), then SIGTERM the old shard. SIGTERM drains: in-flight
//	#    requests finish, the drain is advertised so routers steer new
//	#    work to siblings, and only then does the process exit
//	#    (-drain-timeout bounds the wait). Queries never notice:
//	kill -HUP %5                                  # or: curl -X POST localhost:8080/admin/topology
//	kill -TERM %1                                 # old shard drains, then exits
//
// This program walks the same lifecycle in-process (k = 5 to keep it
// snappy): it cuts the store into two real split files, serves them
// from a 2×2 fleet wired by a topology document, swaps generations
// live, and rolls every shard while continuously proving the routed
// answers byte-match direct local synthesis.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/extbuild"
	"repro/internal/perm"
	"repro/internal/service"
	"repro/internal/tablenet"
	"repro/internal/tables"
	"repro/internal/tablesio"
)

func main() {
	// 1. Build the tables once, emitting the full store (the local
	// reference below) and two range-local split stores in one pass.
	fmt.Println("building k=5 tables...")
	dir, err := os.MkdirTemp("", "cluster")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	const ranges, replication = 2, 2
	splitPath := func(i int) string { return filepath.Join(dir, fmt.Sprintf("k5.tables.%dof%d", i, ranges)) }
	res, _, err := extbuild.BuildResult(extbuild.Options{
		Alphabet:  bfs.GateAlphabet(),
		K:         5,
		SplitN:    ranges,
		SplitPath: splitPath,
	})
	if err != nil {
		log.Fatal(err)
	}
	loadSplit := func(i int) *tables.Partial {
		sres, info, err := tablesio.LoadFile(splitPath(i), bfs.GateAlphabet(), &tablesio.LoadOptions{AllowSplit: true})
		if err != nil {
			log.Fatal(err)
		}
		part, err := tables.NewPartial(sres, info.Split)
		if err != nil {
			log.Fatal(err)
		}
		lo, hi := part.OwnedRange()
		fmt.Printf("split %d/%d: %d entries, owns [%#x, %#x)\n", i, ranges, info.Entries, lo, hi)
		return part
	}
	parts := [ranges]*tables.Partial{loadSplit(0), loadSplit(1)}

	// 2. A shard server exports one split store; its handshake carries
	// the owned range, so miswiring is a connect-time error.
	type shard struct {
		srv  *tablenet.Server
		addr string
		rng  int
	}
	startShard := func(rng int) *shard {
		srv, err := tablenet.NewServer(parts[rng])
		if err != nil {
			log.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve(l)
		return &shard{srv: srv, addr: l.Addr().String(), rng: rng}
	}
	var shards []*shard
	for g := 0; g < ranges; g++ {
		for r := 0; r < replication; r++ {
			shards = append(shards, startShard(g))
		}
	}

	// 3. Wire the fleet from a topology document: ownership-filtered
	// rendezvous assignment, one dialed client per member.
	buildRouter := func(gen uint64) *tablenet.Router {
		members := make([]string, len(shards))
		for i, s := range shards {
			members[i] = s.addr
		}
		topo := &tablenet.Topology{
			Generation:  gen,
			Ranges:      ranges,
			Replication: replication,
			Members:     members,
		}
		groups, err := tablenet.BuildFleet(topo, func(addr string) (tables.Backend, error) {
			return tablenet.Dial(addr, &tablenet.ClientOptions{
				Retry: tablenet.RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Millisecond},
			})
		})
		if err != nil {
			log.Fatal(err)
		}
		router, err := tablenet.NewReplicatedRouter(groups, tablenet.RouterOptions{
			ProbeInterval: 100 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		return router
	}
	gen := uint64(1)
	swap := tablenet.NewSwapBackend(buildRouter(gen), gen)
	defer swap.Close()
	fmt.Printf("fleet up: %d ranges × %d replicas, topology generation %d\n\n",
		ranges, replication, swap.Generation())

	// 4. Serve queries against the swappable fleet, exactly like local
	// tables — the serving layer never learns topology exists.
	svc, err := service.New(service.Config{Backend: swap, QueryWorkers: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close(context.Background())

	direct, err := core.FromResult(res, 0)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	specs := []string{
		"[0,7,6,9,4,11,10,13,8,15,14,1,12,3,2,5]", // the paper's worked example
		"[1,0,2,3,4,5,6,7,8,9,10,11,12,13,14,15]", // NOT-equivalent: hard for heuristics
		"[0,1,2,3,4,6,5,7,8,9,10,11,12,13,14,15]", // a transposition
	}
	runSpecs := func(tag string) {
		for _, s := range specs {
			spec, err := perm.Parse(s)
			if err != nil {
				log.Fatal(err)
			}
			circ, info, err := svc.Synthesize(ctx, spec)
			if err != nil {
				log.Fatalf("%s: %v", tag, err)
			}
			want, _, err := direct.SynthesizeInfoCtx(ctx, spec)
			if err != nil {
				log.Fatal(err)
			}
			match := "MATCHES local"
			if circ.String() != want.String() {
				match = "DIVERGES from local(!)"
			}
			fmt.Printf("spec %s\n  %d gates via %s (%s): %v\n", s, info.Cost, tag, match, circ)
		}
	}
	runSpecs("fresh fleet")

	// 5. The zero-downtime roll: replace every shard, one at a time.
	// Replacement joins first (new topology generation swapped in
	// atomically — in-flight queries finish on the generation they
	// started on), then the old shard drains and exits.
	fmt.Println("\nrolling every shard...")
	for slot := range shards {
		old := shards[slot]
		shards[slot] = startShard(old.rng)
		gen++
		if err := swap.Swap(buildRouter(gen), gen); err != nil {
			log.Fatal(err)
		}
		dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		if err := old.srv.Drain(dctx); err != nil {
			log.Printf("drain of %s cut short: %v", old.addr, err)
		}
		cancel()
		old.srv.Close()
		fmt.Printf("  rolled %s (range %d) → %s, generation %d\n",
			old.addr, old.rng, shards[slot].addr, swap.Generation())
		runSpecs(fmt.Sprintf("generation %d", swap.Generation()))
	}

	// The health surface an operator sees after the roll: every range
	// covered by fresh replicas, nothing degraded, generation advanced.
	fh := swap.Health(ctx)
	fmt.Printf("\nfleet health after roll: degraded=%v down=%v, generation=%d, drain-rerouted=%d\n",
		fh.Degraded, fh.Down(), swap.Generation(), swap.DrainRerouted())
	for _, st := range fh.Replicas {
		ok := "reachable"
		if st.Err != nil {
			ok = "UNREACHABLE"
		}
		fmt.Printf("  range %d %s: %s, breaker %s\n", st.Range, st.Addr, ok, st.State)
	}
}
