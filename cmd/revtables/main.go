// Command revtables regenerates the paper's figures and tables.
//
// Usage:
//
//	revtables -table all [-k 6] [-n 50] [-seed 5489]
//	revtables -table 5
//	revtables -table fig2
//	revtables -table none -k 7 -save k7.tables              # build + persist for revserve
//	revtables -table none -k 7 -save k7 -split 4            # k7.<i>of4 split stores
//
// Every build is extbuild's: each BFS frontier streams to sorted spill
// runs on disk, levels merge-dedup externally within the -mem-budget
// target, and the store is emitted directly, with the same bytes for
// any budget or worker count. -save writes the tablesio v2 zero-copy
// store: revserve and revbfs memory-map it on load, so serving cold
// starts skip the parse-and-rehash entirely. Without -save the store
// goes to a temporary file under TMPDIR that lasts as long as the run.
//
// -split N cuts the store into N (a power of two) shard-local files,
// <save>.<i>of<N>, each holding one high-hash range — the per-shard
// stores of a partitioned revserve fleet (disk and resident set ≈ 1/N
// each), all cut by the same run from the finished store (a temporary
// file in the work directory: -split writes no full store). N may exceed
// the build's shard count. Serve one with
// revserve -shard-serve -tables <file>.
//
// The work directory (-build-workdir, default <save>.work) holds a
// checkpoint manifest; after a crash or kill, -resume picks the build
// up with at most one level of rework:
//
//	revtables -table none -k 8 -save k8.tables -mem-budget 2GiB
//	revtables -table none -k 8 -save k8.tables -mem-budget 2GiB -resume
//	revtables -table none -k 9 -save k9 -split 16 -mem-budget 8GiB
//
// Tables 1, 3, 4 and 6 need a synthesizer; with -save it reads the
// store just written, otherwise the run builds one. Tables 2 and 5 and
// Figure 1 are self-contained. With -k 7 every Table 6 row is in range
// and Table 3 covers sizes through 14 (≈1 minute of precomputation).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/report"
	"repro/internal/rewrite"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("revtables: ")
	var (
		table   = flag.String("table", "all", "which artifact: fig1, fig2, 1, 2, 3, 4, 5, 6, ladder, or all")
		k       = flag.Int("k", core.DefaultK, "BFS depth for the synthesizer-backed tables")
		n       = flag.Int("n", 50, "random sample size for Tables 3/4 (paper: 10,000,000)")
		seed    = flag.Uint("seed", 5489, "random seed for sampling experiments")
		t1max   = flag.Int("t1max", 11, "largest size timed in Table 1")
		save    = flag.String("save", "", "persist the built search tables to this file (serve them later with revserve -tables)")
		split   = flag.Int("split", 0, "with -save: write the store as this many (power of two) range-local split files")
		memBudg = flag.String("mem-budget", "", "build working-memory target, e.g. 512MiB or 2GiB (default 256MiB); buffer floors exceed it below ~12MiB at k=6, and the peak tracked memory is reported")
		resume  = flag.Bool("resume", false, "resume an interrupted build from its work-directory checkpoint")
		workDir = flag.String("build-workdir", "", "build spill/checkpoint directory (default <save>.work, else a temporary directory)")
		crashAt = flag.String("build-crash", "", "kill the process at a build checkpoint stage:level[:slab] (testing)")
	)
	flag.Parse()
	if *split != 0 && *save == "" {
		log.Fatal("-split requires -save")
	}
	if *split != 0 && (*split < 2 || *split&(*split-1) != 0) {
		log.Fatalf("-split %d is not a power of two ≥ 2 (without -split, -save writes the full store)", *split)
	}

	want := map[string]bool{}
	for _, t := range strings.Split(*table, ",") {
		want[strings.TrimSpace(t)] = true
	}
	all := want["all"]
	needsSynth := all || want["fig2"] || want["1"] || want["3"] || want["4"] || want["6"] || want["ladder"]

	var synth *core.Synthesizer
	if *save != "" || needsSynth {
		res := buildTables(*save, *k, *split, *memBudg, *workDir, *resume, *crashAt, needsSynth)
		if needsSynth {
			var err error
			if synth, err = core.FromResult(res, 0); err != nil {
				log.Fatal(err)
			}
		}
	}

	section := func(s string) { fmt.Println(s); fmt.Println() }

	if all || want["fig1"] {
		section(report.Figure1())
	}
	if all || want["fig2"] {
		out, err := report.Figure2(synth)
		if err != nil {
			log.Fatal(err)
		}
		section(out)
	}
	if all || want["1"] {
		out, err := report.Table1(synth, *t1max, uint32(*seed))
		if err != nil {
			log.Fatal(err)
		}
		section(out)
	}
	if all || want["2"] {
		ks := []int{5, 6}
		if *k > 6 {
			ks = append(ks, *k)
		}
		out, err := report.Table2(ks)
		if err != nil {
			log.Fatal(err)
		}
		section(out)
	}
	var dist distrib.Distribution
	if all || want["3"] || want["4"] {
		out, d, err := report.Table3(synth, *n, uint32(*seed), func(done int) {
			if done%10 == 0 {
				fmt.Fprintf(os.Stderr, "  sample %d/%d\n", done, *n)
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		dist = d
		if all || want["3"] {
			section(out)
		}
	}
	if all || want["4"] {
		section(report.Table4(synth, dist))
	}
	if all || want["5"] {
		out, err := report.Table5()
		if err != nil {
			log.Fatal(err)
		}
		section(out)
	}
	if all || want["6"] {
		out, err := report.Table6(synth)
		if err != nil {
			log.Fatal(err)
		}
		section(out)
	}
	if all || want["ladder"] {
		out, err := report.TableLadder(synth, rewrite.NewDB(6))
		if err != nil {
			log.Fatal(err)
		}
		section(out)
	}
}
