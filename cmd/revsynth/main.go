// Command revsynth synthesizes a provably optimal circuit for one 4-bit
// reversible specification.
//
// Usage:
//
//	revsynth -spec "[0,7,6,9,4,11,10,13,8,15,14,1,12,3,2,5]" [-k 6] [-metric gates|cost|depth] [-workers N] [-quiet]
//	revsynth -name rd32
//
// The -k flag trades precomputation memory/time for query speed exactly
// as in the paper (§3.1); k = 6 answers any function of size ≤ 12,
// k = 7 any 4-bit reversible function of size ≤ 14 (no larger size is
// known to exist — paper §4.2 conjectures none requires 17 and the
// hardest found requires 14).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/benchfuncs"
	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/perm"
	"repro/internal/render"
	"repro/internal/tablesio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("revsynth: ")
	var (
		spec    = flag.String("spec", "", "specification as a 16-entry truth vector, e.g. [1,0,2,...,15]")
		name    = flag.String("name", "", "synthesize a named Table 6 benchmark instead of -spec")
		k       = flag.Int("k", core.DefaultK, "BFS depth (precomputation); horizon is 2k")
		metric  = flag.String("metric", "gates", "cost metric: gates, cost (NCV quantum cost), or depth")
		tables  = flag.String("tables", "", "cache file for precomputed tables: loaded when present, written after a fresh build (the paper's store-once workflow, §3.1)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "BFS and meet-in-the-middle goroutines (1 = sequential)")
		timeout = flag.Duration("timeout", 0, "abort the query after this long (0 = no limit; precomputation is not counted)")
		quiet   = flag.Bool("quiet", false, "print only the circuit")
	)
	flag.Parse()

	var f perm.Perm
	switch {
	case *name != "":
		bm, ok := benchfuncs.ByName(*name)
		if !ok {
			log.Fatalf("unknown benchmark %q; known: rd32, hwb4, shift4, primes4, 4_49, 4bit-7-8, decode42, imark, mperk, oc5..oc8", *name)
		}
		f = bm.Spec
	case *spec != "":
		var err error
		f, err = perm.Parse(*spec)
		if err != nil {
			log.Fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	cfg := core.Config{K: *k, Workers: *workers}
	switch *metric {
	case "gates":
	case "cost":
		a, err := bfs.WeightedGateAlphabet(gate.Gate.QuantumCost)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Alphabet = a
	case "depth":
		cfg.Alphabet = bfs.LayerAlphabet()
	default:
		log.Fatalf("unknown metric %q", *metric)
	}
	if !*quiet {
		cfg.Progress = func(level, reps int) {
			fmt.Fprintf(os.Stderr, "bfs level %d: %d classes\n", level, reps)
		}
	}

	buildStart := time.Now()
	synth, err := buildSynthesizer(cfg, *tables, *quiet)
	if err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(buildStart)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	queryStart := time.Now()
	c, info, err := synth.SynthesizeInfoCtx(ctx, f)
	if err != nil {
		log.Fatal(err)
	}
	queryTime := time.Since(queryStart)

	if *quiet {
		fmt.Println(c)
		return
	}
	fmt.Printf("specification: %v\n", f)
	fmt.Printf("optimal %s: %d (direct=%v, split=%d, candidates=%d)\n",
		*metric, info.Cost, info.Direct, info.SplitPrefix, info.Candidates)
	fmt.Printf("circuit: %s\n\n%s\n", c, render.Circuit(c, render.Unicode))
	fmt.Printf("precompute %v (k=%d), query %v\n", buildTime.Round(time.Millisecond), *k, queryTime)
}

// buildSynthesizer loads cached tables when available, otherwise runs
// the BFS and (when a cache path is given) persists the result — the
// paper's compute-once, load-per-run workflow.
func buildSynthesizer(cfg core.Config, cache string, quiet bool) (*core.Synthesizer, error) {
	alphabet := cfg.Alphabet
	if alphabet == nil {
		alphabet = bfs.GateAlphabet()
	}
	if cache != "" {
		if f, err := os.Open(cache); err == nil {
			res, err := tablesio.Load(f, alphabet)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("loading %s: %w (delete the file to rebuild)", cache, err)
			}
			if !quiet {
				fmt.Fprintf(os.Stderr, "loaded tables from %s (%d entries, k=%d)\n",
					cache, res.TotalStored(), res.MaxCost)
			}
			s, err := core.FromResult(res, cfg.MaxSplit)
			if err != nil {
				return nil, err
			}
			s.SetWorkers(cfg.Workers)
			return s, nil
		}
	}
	// The build writes the store atomically (temp file + rename), so an
	// interrupted run never leaves a truncated store at the cache path.
	synth, err := core.Build(cfg, cache, nil)
	if err != nil {
		return nil, err
	}
	if cache != "" && !quiet {
		fmt.Fprintf(os.Stderr, "saved tables to %s\n", cache)
	}
	return synth, nil
}
