// Command revtables regenerates the paper's figures and tables.
//
// Usage:
//
//	revtables -table all [-k 6] [-n 50] [-seed 5489]
//	revtables -table 5
//	revtables -table fig2
//	revtables -table none -k 7 -save k7.tables   # build + persist for revserve
//	revtables -table none -k 7 -save k7.tables -split 4            # all 4 split stores
//	revtables -table none -k 7 -save k7.range2 -split 4 -range 2   # one split store
//
// -save writes the tablesio v2 zero-copy store: revserve and revbfs
// memory-map it on load, so serving cold starts skip the parse-and-
// rehash entirely.
//
// -split N cuts the store into N (a power of two) shard-local files,
// each holding one high-hash range — the per-shard stores of a
// partitioned revserve fleet (disk and resident set ≈ 1/N each). With
// -range i only that range's file is written to the -save path; without
// it all N are written as <save>.<i>of<N>. Serve one with
// revserve -shard-serve -tables <file>.
//
// -out-of-core builds the store without ever holding the table in
// memory: each BFS frontier streams to sorted spill runs on disk,
// levels merge-dedup externally within the -mem-budget target, and the
// store (and all -split files, in the same pass) is emitted directly —
// byte-identical to the in-memory build's output. The work directory
// (-build-workdir, default <save>.work) holds a checkpoint manifest;
// after a crash or kill, -resume picks the build up with at most one
// level of rework:
//
//	revtables -table none -k 8 -save k8.tables -out-of-core -mem-budget 2GiB
//	revtables -table none -k 8 -save k8.tables -out-of-core -mem-budget 2GiB -resume
//	revtables -table none -k 9 -save k9 -out-of-core -split 16 -mem-budget 8GiB
//
// Tables 1, 3, 4 and 6 need a synthesizer (built once per run); Tables 2
// and 5 and Figure 1 are self-contained. With -k 7 every Table 6 row is
// in range and Table 3 covers sizes through 14 (≈1 minute of
// precomputation and ≈0.5 GB).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/report"
	"repro/internal/rewrite"
	"repro/internal/tablesio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("revtables: ")
	var (
		table    = flag.String("table", "all", "which artifact: fig1, fig2, 1, 2, 3, 4, 5, 6, ladder, or all")
		k        = flag.Int("k", core.DefaultK, "BFS depth for the synthesizer-backed tables")
		n        = flag.Int("n", 50, "random sample size for Tables 3/4 (paper: 10,000,000)")
		seed     = flag.Uint("seed", 5489, "random seed for sampling experiments")
		t1max    = flag.Int("t1max", 11, "largest size timed in Table 1")
		save     = flag.String("save", "", "persist the built search tables to this file (serve them later with revserve -tables)")
		split    = flag.Int("split", 0, "with -save: cut the store into this many (power of two) range-local split files")
		rangeIdx = flag.Int("range", -1, "with -split: write only this range's split file, directly to the -save path")
		ooc      = flag.Bool("out-of-core", false, "with -save: build disk-streamed under -mem-budget instead of in memory (output is byte-identical)")
		memBudg  = flag.String("mem-budget", "", "out-of-core working-memory target, e.g. 512MiB or 2GiB (default 256MiB); buffer floors exceed it below ~25MiB, and the peak tracked memory is reported")
		resume   = flag.Bool("resume", false, "resume an interrupted out-of-core build from its work-directory checkpoint")
		workDir  = flag.String("build-workdir", "", "out-of-core spill/checkpoint directory (default <save>.work)")
		crashAt  = flag.String("build-crash", "", "kill the process at an out-of-core checkpoint stage:level[:slab] (testing)")
	)
	flag.Parse()
	if *split != 0 && *save == "" {
		log.Fatal("-split requires -save")
	}
	if *rangeIdx >= 0 && *split == 0 {
		log.Fatal("-range requires -split")
	}
	if *split != 0 && (*split < 1 || *split&(*split-1) != 0) {
		log.Fatalf("-split %d is not a power of two", *split)
	}
	if *split != 0 && *rangeIdx >= *split {
		log.Fatalf("-range %d outside [0, %d)", *rangeIdx, *split)
	}
	if *ooc {
		if *save == "" {
			log.Fatal("-out-of-core requires -save")
		}
		if *rangeIdx >= 0 {
			log.Fatal("-out-of-core emits every -split range in one pass; -range is not supported")
		}
		buildOutOfCore(*save, *k, *split, *memBudg, *workDir, *resume, *crashAt)
	}

	want := map[string]bool{}
	for _, t := range strings.Split(*table, ",") {
		want[strings.TrimSpace(t)] = true
	}
	all := want["all"]
	needsSynth := all || want["fig2"] || want["1"] || want["3"] || want["4"] || want["6"] || want["ladder"] || (*save != "" && !*ooc)

	var synth *core.Synthesizer
	if needsSynth {
		fmt.Fprintf(os.Stderr, "building k=%d tables...\n", *k)
		start := time.Now()
		var err error
		synth, err = core.New(core.Config{K: *k, Progress: func(level, reps int) {
			fmt.Fprintf(os.Stderr, "  bfs level %d: %d classes\n", level, reps)
		}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tables ready in %v\n\n", time.Since(start).Round(time.Millisecond))
	}
	switch {
	case *ooc:
		// Already emitted by buildOutOfCore above.
	case *save != "" && *split == 0:
		if err := tablesio.SaveFile(*save, synth.Result()); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved k=%d tables to %s (%d entries)\n", *k, *save, synth.Result().TotalStored())
	case *save != "" && *rangeIdx >= 0:
		if err := tablesio.SaveSplitFile(*save, synth.Result(), *split, *rangeIdx); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved k=%d range %d/%d to %s\n", *k, *rangeIdx, *split, *save)
	case *save != "":
		for i := 0; i < *split; i++ {
			path := fmt.Sprintf("%s.%dof%d", *save, i, *split)
			if err := tablesio.SaveSplitFile(path, synth.Result(), *split, i); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "saved k=%d range %d/%d to %s\n", *k, i, *split, path)
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
