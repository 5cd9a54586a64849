package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bfs"
	"repro/internal/extbuild"
)

// buildTables runs the extbuild table build: frontiers spill to sorted
// runs, levels merge-dedup externally under the memory budget, and the
// store is emitted directly to the -save path (or, with -split, to a
// temporary file that every -split file is then cut from).
// Without -save the store goes to a temporary file. With load the full
// store is loaded and returned for the synthesizer-backed reports — with
// -split it is emitted to a temporary file alongside the split files.
// Progress streams to stderr; the final level counts are diffed against
// the paper's Table 4.
func buildTables(save string, k, split int, memBudget, workDir string, resume bool, crashAt string, load bool) *bfs.Result {
	budget := int64(extbuild.DefaultMemBudget)
	if memBudget != "" {
		var err error
		if budget, err = parseByteSize(memBudget); err != nil {
			log.Fatalf("-mem-budget: %v", err)
		}
	}
	if workDir == "" && save != "" {
		workDir = save + ".work"
	}
	o := extbuild.Options{
		Alphabet:  bfs.GateAlphabet(),
		K:         k,
		WorkDir:   workDir,
		MemBudget: budget,
		Resume:    resume,
		Progress:  newBuildProgress().note,
	}
	if split > 0 {
		o.SplitN = split
		o.SplitPath = func(i int) string { return fmt.Sprintf("%s.%dof%d", save, i, split) }
	} else {
		o.OutPath = save
	}
	if crashAt != "" {
		stage, level, slab, err := parseCrashPoint(crashAt)
		if err != nil {
			log.Fatalf("-build-crash: %v", err)
		}
		o.FailPoint = func(s string, l, sl int) error {
			if s == stage && l == level && (slab < 0 || sl == slab) {
				fmt.Fprintf(os.Stderr, "\nbuild-crash: killing at %s level %d slab %d\n", s, l, sl)
				os.Exit(3)
			}
			return nil
		}
	}

	where := workDir
	if where == "" {
		where = "(temporary)"
	}
	fmt.Fprintf(os.Stderr, "build: k=%d budget=%s workdir=%s\n", k, fmtBytes(budget), where)
	var res *bfs.Result
	var stats *extbuild.Stats
	var err error
	if load {
		res, stats, err = extbuild.BuildResult(o)
	} else {
		stats, err = extbuild.Build(o)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Fprintf(os.Stderr, "\nbuild complete in %v: %d entries, %d candidates expanded\n",
		stats.Elapsed.Round(time.Millisecond), stats.Entries, stats.Candidates)
	fmt.Fprintf(os.Stderr, "spill traffic: %s written, %s read; peak tracked memory %s (budget %s)\n",
		fmtBytes(stats.SpillWrittenBytes), fmtBytes(stats.SpillReadBytes),
		fmtBytes(stats.PeakTrackedBytes), fmtBytes(budget))
	if stats.ResumedLevels > 0 {
		fmt.Fprintf(os.Stderr, "resumed: %d completed levels reused from checkpoint\n", stats.ResumedLevels)
	}

	// Level-count table diffed against the paper's Table 4 "Reduced
	// Functions" column — the correctness anchor of the whole pipeline.
	fmt.Fprintf(os.Stderr, "\n%5s %15s %15s  %s\n", "size", "classes", "paper Tbl.4", "")
	mismatch := false
	for c, n := range stats.LevelCounts {
		mark := ""
		if c < len(bfs.GateReducedCounts) {
			if n == bfs.GateReducedCounts[c] {
				mark = "ok"
			} else {
				mark = fmt.Sprintf("MISMATCH (want %d)", bfs.GateReducedCounts[c])
				mismatch = true
			}
			fmt.Fprintf(os.Stderr, "%5d %15d %15d  %s\n", c, n, bfs.GateReducedCounts[c], mark)
		} else {
			fmt.Fprintf(os.Stderr, "%5d %15d %15s\n", c, n, "-")
		}
	}
	if mismatch {
		log.Fatal("level counts disagree with paper Table 4 — store NOT trustworthy")
	}
	switch {
	case split > 0:
		fmt.Fprintf(os.Stderr, "\nsaved k=%d as %d split stores at %s.<i>of%d\n", k, split, save, split)
	case save != "":
		fmt.Fprintf(os.Stderr, "\nsaved k=%d tables to %s\n", k, save)
	}
	return res
}

// buildProgress turns the builder's event stream into one stderr status
// line per phase, rewritten in place while a level runs and committed
// with a newline when it completes. The builder reports from its worker
// goroutines, so note serializes the events.
type buildProgress struct {
	mu       sync.Mutex
	lastLine int
}

func newBuildProgress() *buildProgress { return &buildProgress{} }

func (p *buildProgress) note(ev extbuild.ProgressEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var line string
	switch ev.Phase {
	case "expand":
		line = fmt.Sprintf("level %d expand: slab %d/%d, %d frontier reps, %d candidates, %s spilled",
			ev.Level, ev.Slab, ev.Slabs, ev.FrontierReps, ev.Candidates, fmtBytes(ev.SpillWrittenBytes))
		if !ev.Done && ev.ETA > 0 {
			line += fmt.Sprintf(", eta %v", ev.ETA.Round(time.Second))
		}
	case "merge":
		line = fmt.Sprintf("level %d merge: %d candidates -> %d new classes", ev.Level, ev.Candidates, ev.Survivors)
		if ev.Done && ev.Elapsed > 0 && ev.Candidates > 0 {
			rate := float64(ev.Candidates) / ev.Elapsed.Seconds()
			line += fmt.Sprintf(" (%.0f cand/s cumulative)", rate)
		}
	case "emit":
		line = fmt.Sprintf("emitting stores (%s read back)", fmtBytes(ev.SpillReadBytes))
	default:
		return
	}
	// Rewrite the live line; pad over the previous one's tail.
	if pad := p.lastLine - len(line); pad > 0 {
		line += strings.Repeat(" ", pad)
	}
	if ev.Done {
		fmt.Fprintf(os.Stderr, "\r%s\n", line)
		p.lastLine = 0
	} else {
		fmt.Fprintf(os.Stderr, "\r%s", line)
		p.lastLine = len(line)
	}
}

// parseByteSize parses human byte sizes: plain digits are bytes, and
// the usual K/M/G suffixes (optionally with B or iB) are binary
// multiples, so 512MiB == 512MB == 512M.
func parseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	upper := strings.ToUpper(t)
	mult := int64(1)
	for _, suf := range []struct {
		name string
		mul  int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30}, {"TIB", 1 << 40},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"T", 1 << 40},
	} {
		if strings.HasSuffix(upper, suf.name) {
			mult = suf.mul
			t = t[:len(t)-len(suf.name)]
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("invalid byte size %q", s)
	}
	if n > (1<<62)/mult {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return n * mult, nil
}

// parseCrashPoint parses stage:level[:slab], e.g. run:3:2 or level:4.
func parseCrashPoint(s string) (stage string, level, slab int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return "", 0, 0, fmt.Errorf("want stage:level[:slab], got %q", s)
	}
	stage = parts[0]
	switch stage {
	case "run", "level", "emit":
	default:
		return "", 0, 0, fmt.Errorf("unknown stage %q (run, level, emit)", stage)
	}
	if level, err = strconv.Atoi(parts[1]); err != nil {
		return "", 0, 0, fmt.Errorf("bad level in %q", s)
	}
	slab = -1
	if len(parts) == 3 {
		if slab, err = strconv.Atoi(parts[2]); err != nil {
			return "", 0, 0, fmt.Errorf("bad slab in %q", s)
		}
	}
	return stage, level, slab, nil
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
