// Build walkthrough: the paper-scale precompute path — an out-of-core
// BFS that never holds the table in memory, emitting the same
// byte-for-byte store as the sequential reference search.
//
//	go run ./examples/build
//
// The paper builds its tables "in advance, on a larger machine" (§3.1);
// the k = 9 run needed over 100 GB of RAM (§4.1). The out-of-core
// builder trades that RAM for disk: frontiers stream to sorted spill
// runs, each new level merge-dedups against all prior levels by
// external k-way merge under a memory budget, and the finished v2
// store is written directly; every split shard file is then cut from
// it. A checkpoint manifest in the work directory makes the
// build resumable after a crash with at most one level of rework. It
// is the only table builder: revtables -save, revbfs, revserve and
// every fresh in-process build (core.New, a service without a stored
// table file) go through it.
//
// As a command the same flow is:
//
//	go run ./cmd/revtables -table none -k 8 -save k8.tables -mem-budget 2GiB
//	# ...interrupted? same command + -resume picks it up:
//	go run ./cmd/revtables -table none -k 8 -save k8.tables -mem-budget 2GiB -resume
//	# shard stores for a partitioned fleet, cut from the finished store:
//	go run ./cmd/revtables -table none -k 9 -save k9 -split 16 -mem-budget 8GiB
//
// This program runs the same pipeline in-process at a small k, under a
// budget far below the finished store, and serves a query from the
// result to show the store is the real thing.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/bfs"
	"repro/internal/extbuild"
	"repro/internal/service"
	"repro/internal/tables"
	"repro/internal/tablesio"
)

func main() {
	dir, err := os.MkdirTemp("", "extbuild-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	out := filepath.Join(dir, "k5.tables")

	// Build k = 5 under a 1 MiB budget — the finished store is ~1.7 MB,
	// so the frontiers must spill and merge through disk. OutPath and
	// SplitN/SplitPath combine: the build writes the full store, then
	// cuts every range-local shard file for a 2-way fleet from it.
	const splitN = 2
	splitPath := func(i int) string {
		return filepath.Join(dir, fmt.Sprintf("k5.%dof%d", i, splitN))
	}
	stats, err := extbuild.Build(extbuild.Options{
		Alphabet:  bfs.GateAlphabet(),
		K:         5,
		WorkDir:   filepath.Join(dir, "work"),
		MemBudget: 1 << 20,
		OutPath:   out,
		SplitN:    splitN,
		SplitPath: splitPath,
		Progress: func(ev extbuild.ProgressEvent) {
			if ev.Phase == "merge" && ev.Done {
				fmt.Printf("  level %d: %d candidates -> %d new classes\n",
					ev.Level, ev.Candidates, ev.Survivors)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// (At toy scale the working-buffer floors dominate the budget; at
	// real depths peak tracked memory sits under MemBudget.)
	fmt.Printf("built %d entries in %v: %s spilled, peak tracked memory %d KiB\n",
		stats.Entries, stats.Elapsed.Round(1e6),
		fmtMiB(stats.SpillWrittenBytes), stats.PeakTrackedBytes>>10)

	// The level counts are the paper's Table 4 "Reduced Functions"
	// column — the correctness anchor of the whole pipeline.
	for c, n := range stats.LevelCounts {
		if n != bfs.GateReducedCounts[c] {
			log.Fatalf("level %d: %d classes, paper says %d", c, n, bfs.GateReducedCounts[c])
		}
	}
	fmt.Println("level counts match paper Table 4")

	// The emitted file is byte-identical to SaveFile of the sequential
	// bfs.Search, so everything downstream — mmap cold start, split
	// serving, fleet handshakes — works unchanged.
	res, info, err := tablesio.LoadFile(out, bfs.GateAlphabet(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded v%d store: %d entries, mmap=%v\n", info.Version, res.TotalStored(), info.MemoryMapped)

	svc, err := service.New(service.Config{Tables: res})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close(context.Background())
	circ, qinfo, err := svc.Synthesize(context.Background(), res.Level(5).At(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query against the store: %d gates (direct=%v): %v\n", qinfo.Cost, qinfo.Direct, circ)

	// The split files cut by the same build are the per-shard stores
	// of a partitioned fleet (serve each with revserve -shard-serve and
	// front them with -router / -topology — see examples/cluster). Here
	// just load one range and show it owns exactly its keys.
	sres, sinfo, err := tablesio.LoadFile(splitPath(0), bfs.GateAlphabet(), &tablesio.LoadOptions{AllowSplit: true})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := tables.NewPartial(sres, sinfo.Split); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("split %d/%d: %d of %d entries, serves its high-hash range only\n",
		sinfo.Split.I, sinfo.Split.N, sinfo.Entries, stats.Entries)
}

func fmtMiB(n int64) string { return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20)) }
