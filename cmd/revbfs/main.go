// Command revbfs runs the breadth-first search of paper Algorithm 2 and
// prints per-level class counts, full function counts, and hash-table
// statistics.
//
// Usage:
//
//	revbfs [-k 6] [-alphabet gates|linear|layers|lnn|quantum] [-full] [-noreduce] [-workers N]
//	revbfs -k 6 -save tables.bin          # persist (paper's §3.1 workflow)
//	revbfs -load tables.bin               # reload instead of searching
//	revbfs -load old.bin -save new.bin    # rewrite a (v1) store as v2
//
// The search is extbuild's: it spills under TMPDIR (or writes the -save
// store directly) and stores the same bytes for every -workers value.
// With -full the (much larger) unreduced function counts are derived from
// equivalence-class sizes — the two columns of the paper's Table 4.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/bfs"
	"repro/internal/extbuild"
	"repro/internal/gate"
	"repro/internal/tablesio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("revbfs: ")
	var (
		k        = flag.Int("k", 6, "search depth (cost horizon)")
		alphabet = flag.String("alphabet", "gates", "gates, linear, layers, lnn, or quantum")
		full     = flag.Bool("full", false, "also compute full (unreduced) function counts")
		noreduce = flag.Bool("noreduce", false, "disable the ÷48 canonical reduction (ablation)")
		save     = flag.String("save", "", "write the computed tables to this file (tablesio format)")
		load     = flag.String("load", "", "read tables from this file instead of searching")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "build goroutines (the stored bytes do not depend on it)")
	)
	flag.Parse()

	var a *bfs.Alphabet
	var err error
	switch *alphabet {
	case "gates":
		a = bfs.GateAlphabet()
	case "linear":
		a = bfs.LinearAlphabet()
	case "layers":
		a = bfs.LayerAlphabet()
	case "lnn":
		a = bfs.LNNAlphabet()
		*noreduce = true // not closed under relabeling
	case "quantum":
		a, err = bfs.WeightedGateAlphabet(gate.Gate.QuantumCost)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown alphabet %q", *alphabet)
	}

	start := time.Now()
	var res *bfs.Result
	if *load != "" {
		var info tablesio.LoadInfo
		res, info, err = tablesio.LoadFile(*load, a, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d entries from %s (%s)\n", res.TotalStored(), *load, info)
		if *save != "" {
			if err := tablesio.SaveFile(*save, res); err != nil {
				log.Fatal(err)
			}
		}
	} else {
		res, _, err = extbuild.BuildResult(extbuild.Options{
			Alphabet:    a,
			K:           *k,
			NoReduction: *noreduce,
			Workers:     *workers,
			OutPath:     *save,
			Progress: extbuild.LevelProgress(func(level, reps int) {
				fmt.Fprintf(os.Stderr, "level %d: %d new\n", level, reps)
			}),
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if *save != "" {
		st, _ := os.Stat(*save)
		fmt.Fprintf(os.Stderr, "saved v2 tables to %s (%d bytes)\n", *save, st.Size())
	}

	fmt.Printf("alphabet=%s (%d elements, max cost %d), k=%d, reduced=%v\n",
		*alphabet, a.Len(), a.MaxCost(), *k, res.Reduced)
	if *full && res.Reduced {
		fmt.Printf("%5s  %14s  %16s\n", "cost", "classes", "functions")
	} else {
		fmt.Printf("%5s  %14s\n", "cost", "entries")
	}
	for c := 0; c <= res.MaxCost; c++ {
		if *full && res.Reduced {
			fmt.Printf("%5d  %14d  %16d\n", c, res.ReducedCount(c), res.FullCount(c))
		} else {
			fmt.Printf("%5d  %14d\n", c, res.ReducedCount(c))
		}
	}
	st := res.TableStats()
	fmt.Printf("\nsearch time %v; hash table: %s\n", elapsed.Round(time.Millisecond), st)
}
