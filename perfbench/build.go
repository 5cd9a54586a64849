package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/extbuild"
)

// buildBudget is the build workload's memory budget: extbuild's
// default, under which a k=6 build still spills.
const buildBudget int64 = extbuild.DefaultMemBudget

// A build run makes buildsPerRun timed k=6 builds whatever --seconds
// says, so every run's p50 and tail are the same order statistics.
// Each timed build follows setupsPerBuild warm-up builds; setup_s is
// the median of all of them, sampled across the whole run.
const (
	buildsPerRun   = 4
	setupsPerBuild = 3
)

// warmK is the depth of the set-up's warm-up build.
const warmK = 5

// phaseTimes accumulates a build's Progress events into time per phase:
// the interval before each event is charged to the event's phase.
// Expansion workers report concurrently.
type phaseTimes struct {
	mu        sync.Mutex
	last      time.Duration
	phase     map[string]time.Duration
	survivors int64
	tr        *tracer
}

var phaseKinds = map[string]spanKind{"expand": spanExpand, "merge": spanMerge, "emit": spanEmit}

func (p *phaseTimes) observe(ev extbuild.ProgressEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ev.Elapsed < p.last {
		ev.Elapsed = p.last // a worker's event overtaken by another's
	}
	p.phase[ev.Phase] += ev.Elapsed - p.last
	if p.tr != nil {
		p.tr.add(span{kind: phaseKinds[ev.Phase], start: p.last, end: ev.Elapsed, n: int64(ev.Level)})
	}
	p.last = ev.Elapsed
	if ev.Phase == "merge" && ev.Done {
		p.survivors += ev.Survivors
	}
}

// built is one checked build.
type built struct {
	st      *extbuild.Stats
	took    time.Duration
	emitted int64 // bytes of the store and split files
}

// buildOnce runs one extbuild build at depth k into dir and checks its
// level counts; a k=6 build's store and split files must also match
// their pinned digests.
func buildOnce(dir string, k int, progress func(extbuild.ProgressEvent)) (built, error) {
	if err := os.RemoveAll(dir); err != nil {
		return built{}, err
	}
	o := buildOptions(k, filepath.Join(dir, "work"), filepath.Join(dir, "k6.tables"), buildBudget, k == 6)
	o.Progress = progress
	t0 := time.Now()
	st, err := extbuild.Build(o)
	b := built{st: st, took: time.Since(t0)}
	if err != nil {
		return b, err
	}
	if err := checkCounts(st, k); err != nil {
		return b, err
	}
	outs := []string{"k6.tables"}
	if k == 6 {
		outs = append(outs, splitName(0), splitName(1))
		if err := checkDigests(dir, outs...); err != nil {
			return b, err
		}
	}
	for _, name := range outs {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return b, err
		}
		b.emitted += fi.Size()
	}
	return b, os.RemoveAll(dir)
}

// runBuild makes buildsPerRun complete k=6 builds, each emitting the
// store and its two split files in one pass, under buildBudget.
func runBuild(cfg runConfig) (*report, error) {
	rep := &report{workload: cfg.workload}
	dir := filepath.Join(cfg.dir, "tmp", cfg.workload)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rt := &runtimeProbe{}
	var phases []*phaseTimes
	var builds []built
	for range buildsPerRun {
		for range setupsPerBuild {
			runtime.GC() // each set-up starts from the same heap
			t0 := time.Now()
			if _, err := buildOnce(dir, warmK, nil); err != nil {
				return nil, fmt.Errorf("warm-up build: %w", err)
			}
			rep.setups = append(rep.setups, time.Since(t0))
		}
		runtime.GC()
		rep.attempted++
		var progress func(extbuild.ProgressEvent)
		if cfg.trace {
			p := &phaseTimes{phase: map[string]time.Duration{}, tr: tr}
			phases = append(phases, p)
			progress = p.observe
		}
		rt.resume()
		b, err := buildOnce(dir, 6, progress)
		rt.pause()
		if err != nil {
			rep.failed++
			rep.notes = append(rep.notes, "failed build: "+err.Error())
			break
		}
		rep.latencies = append(rep.latencies, b.took)
		rep.elapsed += b.took
		builds = append(builds, b)
	}
	rep.rssMB = peakRSSMB()
	rep.runtime = rt.metrics(len(rep.latencies))
	if len(builds) > 0 {
		st := builds[len(builds)-1].st
		rep.notes = append(rep.notes, fmt.Sprintf("budget %d MiB: peak tracked %.1f MiB, spilled %.1f MB",
			buildBudget>>20, float64(st.PeakTrackedBytes)/(1<<20), float64(st.SpillWrittenBytes)/1e6))
	}
	if cfg.trace && len(builds) > 0 {
		rep.layers = buildLayers(phases, builds[len(builds)-1]).m
		if err := tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// buildLayers derives extbuild's per-layer metrics: phase times are
// medians over the run's builds, counts come from the last build (they
// are the same for every build). write_amp is the bytes written, spill
// and output, per byte of output.
func buildLayers(phases []*phaseTimes, last built) *layers {
	l := zeroLayers()
	per := func(name string) float64 {
		var xs []float64
		for _, p := range phases {
			xs = append(xs, p.phase[name].Seconds())
		}
		return median(xs)
	}
	expand := per("expand")
	l.set("extbuild.expand_s", expand)
	l.set("extbuild.merge_s", per("merge"))
	l.set("extbuild.emit_s", per("emit"))
	st := last.st
	l.set("extbuild.candidates", float64(st.Candidates))
	if expand > 0 {
		l.set("extbuild.candidates_per_s", float64(st.Candidates)/expand)
	}
	l.set("extbuild.survivor_ratio", ratio(phases[len(phases)-1].survivors, st.Candidates))
	l.set("extbuild.spill_written_mb", float64(st.SpillWrittenBytes)/1e6)
	l.set("extbuild.spill_read_mb", float64(st.SpillReadBytes)/1e6)
	l.set("extbuild.write_amp", ratio(st.SpillWrittenBytes+last.emitted, last.emitted))
	l.set("extbuild.peak_tracked_mb", float64(st.PeakTrackedBytes)/(1<<20))
	l.set("extbuild.budget_mb", float64(buildBudget)/(1<<20))
	return l
}
