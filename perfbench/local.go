package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/service"
)

// A serving workload sets its system up setupsBefore times before the
// timed phase, the last of which serves the timed ops, and setupsAfter
// times after it. setup_s is the median of all of them, so it samples
// both ends of the run.
const (
	setupsBefore = 8
	setupsAfter  = 7
)

// A serving run does a fixed number of rounds, set from --seconds at
// about the rate of a 2-vCPU host (fleet-mix: of its one scheduler
// thread). Every run then asks the same ops, and its tail is the same
// order statistic of the same work, whatever the host's speed; a
// faster host only ends the run sooner.
const (
	localRoundsPerSecond = 2
	fleetRoundsPerSecond = 100 // per caller
)

// roundsFor is the number of rounds of a run of the given length.
func roundsFor(seconds float64, perSecond int) int {
	return max(1, int(math.Round(seconds*float64(perSecond))))
}

// opRecord is one timed op's outcome, kept for the per-layer metrics.
type opRecord struct {
	lat    time.Duration
	direct bool
	cands  int64
}

// checkAnswer verifies one answer against its reference: the circuit
// computes the spec, with as many gates as the reference cost.
func checkAnswer(s spec, c circuit.Circuit, info core.Info, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("spec %016x: %w", uint64(s.f), err)
	case c.Perm() != s.f:
		return fmt.Errorf("spec %016x: circuit %v computes %016x", uint64(s.f), c, uint64(c.Perm()))
	case len(c) != s.cost || info.Cost != s.cost:
		return fmt.Errorf("spec %016x %s: %d gates (info %d), reference cost %d", uint64(s.f), s.name, len(c), info.Cost, s.cost)
	}
	return nil
}

// runLocalMix drives service.Synthesizer over the memory-mapped k=6
// store from one caller, through core's local probe loop.
func runLocalMix(cfg runConfig) (*report, error) {
	p, err := loadPool()
	if err != nil {
		return nil, err
	}
	gen := newLocalGen(p, cfg.seed)
	warm, err := gen.warmup(cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{workload: cfg.workload}
	ctx := context.Background()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var loads, warms []float64
	setup := func() (*service.Synthesizer, error) {
		runtime.GC() // each set-up starts from the same heap
		start := time.Now()
		svc, err := service.New(service.Config{TablesPath: storePath(cfg.dir, "k6.tables"), MaxSplit: 6})
		if err != nil {
			return nil, err
		}
		w0 := time.Now()
		for _, s := range warm {
			c, info, err := svc.Synthesize(ctx, s.f)
			if err := checkAnswer(s, c, info, err); err != nil {
				svc.Close(ctx)
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		rep.setups = append(rep.setups, time.Since(start))
		warms = append(warms, time.Since(w0).Seconds())
		loads = append(loads, svc.Stats().LoadDuration.Seconds())
		return svc, nil
	}
	var svc *service.Synthesizer
	for i := 0; i < setupsBefore; i++ {
		if svc != nil {
			svc.Close(ctx)
		}
		if svc, err = setup(); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	before := svc.Stats()
	rt := startRuntime()
	var recs []opRecord
	start := time.Now()
run:
	for range roundsFor(cfg.seconds, localRoundsPerSecond) {
		round, err := gen.round()
		if err != nil {
			svc.Close(ctx)
			return nil, err
		}
		for _, s := range round {
			rep.attempted++
			var c circuit.Circuit
			var info core.Info
			t0 := time.Now()
			err := tr.call(ctx, spanService, 0, func(ctx context.Context) error {
				var err error
				c, info, err = svc.Synthesize(ctx, s.f)
				return err
			})
			lat := time.Since(t0)
			if err := checkAnswer(s, c, info, err); err != nil {
				rep.failed++
				rep.notes = append(rep.notes, "wrong answer: "+err.Error())
				break run
			}
			rep.latencies = append(rep.latencies, lat)
			rep.costs = append(rep.costs, s.cost)
			recs = append(recs, opRecord{lat: lat, direct: info.Direct, cands: info.Candidates})
		}
	}
	rep.elapsed = time.Since(start)
	rep.rssMB = peakRSSMB()
	rep.runtime = rt.finish(len(recs))
	after := svc.Stats()
	svc.Close(ctx)
	for i := 0; i < setupsAfter; i++ {
		s, err := setup()
		if err != nil {
			return nil, err
		}
		s.Close(ctx)
	}
	if cfg.trace {
		l := zeroLayers()
		l.set("service.queries", float64(after.Queries-before.Queries))
		l.set("service.cache_hit_ratio", ratio(after.CacheHits-before.CacheHits, after.Queries-before.Queries))
		l.coreFromOps(recs, after.Direct-before.Direct, after.MITM-before.MITM)
		l.set("tablesio.load_ms", median(loads)*1e3)
		l.set("setup.warmup_s", median(warms))
		rep.layers = l.m
		if err := tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d rounds of %d ops", gen.rounds, len(recs)/max(gen.rounds, 1)))
	return rep, nil
}
