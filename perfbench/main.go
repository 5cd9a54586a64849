// Command perfbench is the repository's pinned k=6 benchmark. One
// invocation runs one named workload, a fixed amount of work sized by
// --seconds, in its own process and prints, as the last line of standard output, one JSON
// object with the answers' verdict, the operation counts and the
// metrics:
//
//	bash perfbench/run.sh --workload fleet-mix --seed 1 --seconds 55 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (setup_s,
// throughput, p50_ms, tail_ms, peak_rss_mb). With --trace 1 the run is
// made twice: once untraced in a child process, once with timing
// decorators at every layer seam, and the metrics are the per-layer
// ones plus the tracing overhead on each end-to-end metric. LAYERS.md
// maps every per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	dir      string
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// workloads maps a workload name to its runner. A runner returns the
// end-to-end report and, when cfg.trace is set, the per-layer metrics.
var workloads = map[string]func(cfg runConfig) (*report, error){
	"local-mix": runLocalMix,
	"fleet-mix": runFleetMix,
	"build":     runBuild,
}

func main() {
	var (
		dir      = flag.String("dir", ".bench_build", "directory for the pinned stores and scratch files")
		doPrep   = flag.Bool("prepare", false, "build or verify the pinned stores, then exit")
		workload = flag.String("workload", "", "workload to run: local-mix, fleet-mix, build")
		seed     = flag.Uint64("seed", 1, "seed of the workload's inputs")
		seconds  = flag.Float64("seconds", 55, "about how long a serving workload's timed phase runs on a 2-vCPU host; it sets the round count")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		genTo    = flag.String("gen-pool", "", "write a fresh spec pool to this file, then exit")
		twin     = flag.Bool("twin", false, "also report the Go runtime metrics (the untraced twin of a traced run)")
	)
	flag.Parse()
	if *genTo != "" {
		if err := genPool(*dir, *genTo, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if *doPrep {
		start := time.Now()
		if err := prepare(*dir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: pinned stores verified in %.2fs\n", time.Since(start).Seconds())
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	cfg := runConfig{dir: *dir, workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	var base *result
	if cfg.trace {
		// The untraced twin runs first, in its own process, so its
		// peak RSS and heap are its own. A wrong answer there ends
		// this run too.
		r, err := untracedTwin(cfg)
		if err != nil {
			fatal(err)
		}
		base = r
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	out := rep.result(cfg.trace, *twin)
	if base != nil {
		for name, m := range rep.endToEnd().Metrics {
			if b, ok := base.Metrics[name]; ok && b.Value != 0 {
				out.Metrics["trace.overhead."+name] = metric{m.Value/b.Value - 1, "ratio"}
			}
		}
		// Tracing allocates; the runtime metrics are the untraced twin's.
		for name := range rep.runtime {
			out.Metrics[name] = base.Metrics[name]
		}
	}
	rep.describe(os.Stdout)
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// untracedTwin runs the same workload and seed with tracing off in a
// child process and returns its result.
func untracedTwin(cfg runConfig) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--dir", cfg.dir, "--workload", cfg.workload,
		"--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds), "--trace", "0", "--twin")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	return &r, nil
}

// tracePath is where a traced run writes its spans; each traced run of
// a workload replaces the last one's.
func tracePath(cfg runConfig) string {
	return filepath.Join(cfg.dir, "trace-"+cfg.workload+".txt")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
