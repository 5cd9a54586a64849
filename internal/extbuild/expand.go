package extbuild

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bfs"
	"repro/internal/hashtab"
	"repro/internal/perm"
	"repro/internal/tablesio"
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

func identityPerm() perm.Perm { return perm.Identity }

// expandGroup is one (element-cost group × source level) unit of a
// level's expansion schedule, annotated with the deterministic
// sequence-number base its representatives count from. The bases are
// pure arithmetic over completed level sizes — any worker can compute
// any representative's candidate numbers without coordination, which is
// what makes the spill runs schedule-invariant.
type expandGroup struct {
	src      int
	elemIdxs []int
	stride   uint64
	// repStart is the group's first representative's position in the
	// level's global frontier ordering (groups concatenated in
	// ascending element-cost order, reps in level .seq order).
	repStart int64
	reps     int64
	// seqBase is the sequence number of the group's first
	// representative's first candidate.
	seqBase uint64
}

// levelPlan is the deterministic expansion schedule of one level.
type levelPlan struct {
	groups      []expandGroup
	totalReps   int64
	maxStride   uint64
	repsPerSlab int64
	slabCount   int
}

// planLevel derives level c's schedule from the manifest's completed
// level sizes — the same iteration bfs.Search performs, so the sequence
// numbering matches the sequential in-memory expansion exactly.
func (b *builder) planLevel(c int) levelPlan {
	p := levelPlan{}
	var seqBase uint64
	for _, ec := range b.costs {
		src := c - ec
		if src < 0 {
			continue
		}
		elemIdxs := b.groups[ec]
		stride := bfs.SeqStride(b.reduced, len(elemIdxs))
		reps := b.man.Levels[src].Entries
		if reps > 0 {
			p.groups = append(p.groups, expandGroup{
				src:      src,
				elemIdxs: elemIdxs,
				stride:   stride,
				repStart: p.totalReps,
				reps:     reps,
				seqBase:  seqBase,
			})
			p.totalReps += reps
			if stride > p.maxStride {
				p.maxStride = stride
			}
		}
		seqBase += uint64(reps) * stride
	}
	p.repsPerSlab, p.slabCount = b.planSlabs(p.totalReps, p.maxStride)
	return p
}

// slabSink collects one slab's candidates, pre-computing each key's
// hash shard (the spill sort's major key). tmp is the spill sort's
// scratch, as long as buf's capacity.
type slabSink struct {
	buf   []cand
	tmp   []cand
	shift uint
}

func (s *slabSink) Candidate(key uint64, val uint16, seq uint64) {
	s.buf = append(s.buf, cand{
		key:   key,
		seq:   seq,
		shard: uint32(hashtab.Hash64Shift(key) >> s.shift),
		val:   val,
	})
}

// expandLevel seals a spill run for every slab of the level's frontier
// that the checkpoint does not already hold, fanning slabs out across
// the worker pool. Each run is independently deterministic, so workers
// need no ordering between them.
func (b *builder) expandLevel(c int, p levelPlan) error {
	// Pin the slab partition in the manifest: sealed runs are only
	// reusable under the identical partition — slab count AND reps per
	// slab, since different budget/worker combinations can tile the same
	// frontier into the same number of differently-sized slabs. A resume
	// whose plan disagrees on either re-partitions, discarding the runs;
	// reusing a run whose rep range shifted would silently skip frontier
	// representatives.
	if b.man.LevelSlabs != p.slabCount || b.man.LevelReps != p.repsPerSlab || someRunNotFor(b.man.Runs, c) {
		for _, r := range b.man.Runs {
			os.Remove(filepath.Join(b.dir, r.File.Name))
		}
		b.man.Runs = nil
		b.man.LevelSlabs = p.slabCount
		b.man.LevelReps = p.repsPerSlab
		if err := b.writeManifest(); err != nil {
			return err
		}
	}
	if p.slabCount == 0 {
		return nil
	}
	b.flushStride = max(1, p.slabCount/256)
	sealed := make(map[int]bool, len(b.man.Runs))
	for _, r := range b.man.Runs {
		sealed[r.Slab] = true
	}

	// Source frontiers are read straight off the completed levels' .seq
	// files; *os.File ReadAt is goroutine-safe, so one handle per level
	// serves all workers.
	seqFiles := map[int]*os.File{}
	defer func() {
		for _, f := range seqFiles {
			f.Close()
		}
	}()
	for _, g := range p.groups {
		if _, ok := seqFiles[g.src]; ok {
			continue
		}
		f, err := os.Open(filepath.Join(b.dir, seqName(g.src)))
		if err != nil {
			return err
		}
		seqFiles[g.src] = f
	}

	var levelCand, sealedN atomic.Int64
	levelStart := time.Now()
	err := fanOut(b.workers, p.slabCount, func(_ int, next func() (int, bool)) error {
		bufCap := p.repsPerSlab * int64(p.maxStride)
		// The slab buffer and its sort scratch, plus the frontier keys
		// and the raw .seq bytes they are decoded from.
		charge := p.repsPerSlab*slabRepBytes(p.maxStride) + p.repsPerSlab*(8+seqRecordBytes)
		b.mem.add(charge)
		defer b.mem.release(charge)
		sink := &slabSink{
			buf:   make([]cand, 0, bufCap),
			tmp:   make([]cand, bufCap),
			shift: b.shardShift,
		}
		repKeys := make([]uint64, p.repsPerSlab)
		repRaw := make([]byte, p.repsPerSlab*seqRecordBytes)
		for slab, ok := next(); ok; slab, ok = next() {
			if sealed[slab] {
				sealedN.Add(1)
				continue
			}
			nc, err := b.expandSlab(c, slab, p, sink, repKeys, repRaw, seqFiles)
			if err != nil {
				return err
			}
			done := sealedN.Add(1)
			levelCand.Add(nc)
			b.candTotal.Add(nc)
			var eta time.Duration
			if done > 0 && done < int64(p.slabCount) {
				eta = time.Duration(float64(time.Since(levelStart)) / float64(done) * float64(int64(p.slabCount)-done))
			}
			b.progress(ProgressEvent{
				Phase: "expand", Level: c,
				Slab: int(done), Slabs: p.slabCount,
				FrontierReps: p.totalReps,
				Candidates:   levelCand.Load(),
				ETA:          eta,
			})
			if err := b.failPoint("run", c, slab); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.manMu.Lock()
	err = b.writeManifest()
	b.manMu.Unlock()
	if err != nil {
		return err
	}
	b.progress(ProgressEvent{
		Phase: "expand", Level: c, Slab: p.slabCount, Slabs: p.slabCount,
		FrontierReps: p.totalReps, Candidates: levelCand.Load(), Done: true,
	})
	return nil
}

func someRunNotFor(runs []tablesio.ManifestRun, level int) bool {
	for _, r := range runs {
		if r.Level != level {
			return true
		}
	}
	return false
}

// expandSlab expands one contiguous frontier range, sorts and dedups the
// candidates, seals them as a run file, and records it in the manifest.
// repKeys and repRaw are the worker's frontier buffers, one slab long.
func (b *builder) expandSlab(c, slab int, p levelPlan, sink *slabSink, repKeys []uint64, repRaw []byte, seqFiles map[int]*os.File) (int64, error) {
	lo := int64(slab) * p.repsPerSlab
	hi := min(lo+p.repsPerSlab, p.totalReps)
	sink.buf = sink.buf[:0]
	for _, g := range p.groups {
		gLo := max(lo, g.repStart)
		gHi := min(hi, g.repStart+g.reps)
		if gLo >= gHi {
			continue
		}
		first := gLo - g.repStart
		n := gHi - gLo
		keys := repKeys[:n]
		if err := readSeqRange(seqFiles[g.src], first, keys, repRaw); err != nil {
			return 0, fmt.Errorf("extbuild: level %d frontier: %w", g.src, err)
		}
		b.spillR.Add(int64(n) * seqRecordBytes)
		for i, key := range keys {
			seqBase := g.seqBase + uint64(first+int64(i))*g.stride
			bfs.ExpandRep(b.a, perm.Perm(key), g.elemIdxs, c, b.reduced, seqBase, sink)
		}
	}
	nc := int64(len(sink.buf))
	sorted, spare, err := radixSortCands(sink.buf, sink.tmp)
	if err != nil {
		return 0, fmt.Errorf("level %d slab %d: %w", c, slab, err)
	}
	sink.buf, sink.tmp = dedupCands(sorted), spare[:cap(spare)]
	mf, err := writeRunFile(b.dir, runName(c, slab), sink.buf, b.shards)
	if err != nil {
		return 0, err
	}
	b.spillW.Add(mf.Size)
	b.manMu.Lock()
	defer b.manMu.Unlock()
	b.man.Runs = append(b.man.Runs, tablesio.ManifestRun{
		Level: c, Slab: slab, Candidates: int64(len(sink.buf)), File: mf,
	})
	b.sealedSinceFlush++
	if b.sealedSinceFlush >= b.flushStride {
		if err := b.writeManifest(); err != nil {
			return 0, err
		}
	}
	return nc, nil
}

// readSeqRange fills keys with the frontier entries starting at
// representative index first, reading them through raw, which must hold
// len(keys) records.
func readSeqRange(f *os.File, first int64, keys []uint64, raw []byte) error {
	buf := raw[:len(keys)*seqRecordBytes]
	if _, err := f.ReadAt(buf, first*seqRecordBytes); err != nil {
		return err
	}
	for i := range keys {
		keys[i] = getSeqRecord(buf[i*seqRecordBytes:])
	}
	return nil
}

// dedupCands keeps the first (minimum-sequence) candidate of each key;
// equal keys are adjacent after radixSortCands.
func dedupCands(cs []cand) []cand {
	w := 0
	for i := range cs {
		if w > 0 && cs[i].key == cs[w-1].key {
			continue
		}
		cs[w] = cs[i]
		w++
	}
	return cs[:w]
}
