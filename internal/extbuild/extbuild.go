package extbuild

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bfs"
	"repro/internal/hashtab"
	"repro/internal/tables"
	"repro/internal/tablesio"
)

// DefaultMemBudget is the build's working-memory target when Options
// leaves MemBudget zero: large enough that small builds never spill,
// small enough to leave the page cache most of the machine.
const DefaultMemBudget = 256 << 20

// ManifestName is the checkpoint file inside the work directory.
const ManifestName = "MANIFEST"

// maxSlabsPerLevel bounds the expansion slab count of one level: it
// keeps manifests small and run files countable while still letting the
// slab buffer stay near budget/workers for frontiers of hundreds of
// millions of representatives.
const maxSlabsPerLevel = 1 << 16

// Options configure an out-of-core build.
type Options struct {
	// Alphabet and K mirror bfs.Search: the gate alphabet and the cost
	// horizon. NoReduction disables the ÷48 canonical reduction.
	Alphabet    *bfs.Alphabet
	K           int
	NoReduction bool

	// WorkDir holds the build's spill runs, level files, and checkpoint
	// manifest. It is created if missing. A non-resume build clears any
	// previous build artifacts from it first. A build that cleans up
	// after itself (see KeepWork) also removes the directory, if the
	// build made it.
	WorkDir string

	// MemBudget is the target for the tracked working memory in bytes:
	// the build's workspace (candidate slabs and their radix-sort
	// scratch, which the merges reuse for their file buffers, the
	// sequence sorter and its scratch, and which emission reuses for its
	// shard, slot and placement buffers). Zero means DefaultMemBudget.
	// The budget sizes every buffer, so builds whose tables dwarf it
	// still complete — they just spill more. It is a target, not a cap:
	// the buffers have floors (a 64 KiB merge read buffer per input at a
	// fan-in of at least 8, a sequence sorter of at least 2^11 pairs, an
	// expansion slab of at least one representative, emission buffers
	// for the fullest shard), so a small budget tracks more — k=6 at
	// 16 MiB or 1 MiB tracks 11.7 MiB. A level merge reads its runs and
	// every prior level file, so it consolidates the runs to the fan-in
	// less the level count, but to no fewer than 2: past depth fan-in − 2
	// its read buffers pass their quarter by one buffer per worker and
	// level. Those buffers are all the build holds, in one arena mapped
	// outside the Go heap, so its resident set follows the ledger; see
	// Stats.PeakTrackedBytes.
	MemBudget int64

	// Shards is the hash-shard count of the build and of the emitted
	// store (rounded up to a power of two); zero means
	// hashtab.StoreShards, the shard count of bfs.Search's stores, so
	// the two compare byte for byte. A larger count gives the
	// shard-parallel merges and emission more work units, and other
	// store bytes.
	Shards int

	// Workers bounds the goroutines of every phase — expansion slabs,
	// the shard-parallel merges, and shard placement and index
	// resolution during emission; zero means GOMAXPROCS. Every worker
	// count produces identical bytes: determinism comes from sequence
	// numbers and shard order, not scheduling.
	Workers int

	// OutPath, when non-empty, receives the full store (format v2,
	// written atomically). SplitN > 1 also cuts SplitN range files,
	// named by SplitPath, from the finished store (tablesio.SaveSplitFiles);
	// without OutPath that store is a temporary file in WorkDir.
	OutPath   string
	SplitN    int
	SplitPath func(i int) string

	// Resume continues from the work directory's manifest checkpoint:
	// completed levels and sealed expansion runs are verified by size
	// and fingerprint and reused; at most the in-progress level is
	// re-expanded. A missing manifest degrades to a fresh build.
	Resume bool

	// KeepWork leaves the level artifacts and manifest in place after a
	// successful build (forced on when nothing is emitted).
	KeepWork bool

	// Progress, when non-nil, receives streaming build events. It is
	// called concurrently from worker goroutines (expansion reports each
	// sealed slab from the worker that sealed it), so it must be safe
	// for concurrent use.
	Progress func(ProgressEvent)

	// FailPoint, when non-nil, is called at checkpoint-relevant moments
	// — stage "run" after a spill run seals, "level" after a level
	// merges, "emit" before emission. Returning a non-nil error aborts
	// the build at that exact point, before any store is published; it
	// serves both as the in-process crash simulation and as the way to
	// cancel a build (Build returns that error). Callers wanting a hard
	// crash call os.Exit inside it instead.
	FailPoint func(stage string, level, slab int) error
}

// ProgressEvent is one streaming observation of a running build.
type ProgressEvent struct {
	// Phase is "expand", "merge", or "emit".
	Phase string
	// Level is the cost level being built (emit reports K).
	Level int
	// Slab/Slabs report expansion progress within the level.
	Slab, Slabs int
	// FrontierReps is the number of source representatives feeding the
	// level's expansion.
	FrontierReps int64
	// Candidates counts expansion products of this level so far.
	Candidates int64
	// Survivors counts the level's new representatives (final when the
	// merge phase reports Done).
	Survivors int64
	// SpillWrittenBytes / SpillReadBytes are build-wide cumulative
	// spill traffic.
	SpillWrittenBytes int64
	SpillReadBytes    int64
	// Done marks the completion event of the phase.
	Done bool
	// Elapsed is wall time since the build (or resume) started. ETA is
	// a rough estimate of the current phase's remaining time, zero when
	// unknown.
	Elapsed time.Duration
	ETA     time.Duration
}

// Stats summarize a completed build.
type Stats struct {
	// LevelCounts[c] is the number of representatives of cost exactly c
	// (paper Table 4's reduced column for the gate alphabet).
	LevelCounts []int64
	// Entries is the total store size (identity included).
	Entries int64
	// Candidates is the number of expansion products examined.
	Candidates int64
	// SpillWrittenBytes / SpillReadBytes total the spill traffic.
	SpillWrittenBytes int64
	SpillReadBytes    int64
	// PeakTrackedBytes is the high-water mark of budget-tracked memory:
	// the workspace arena, which only grows, so its final size. Each
	// outgrown arena is unmapped before the next is mapped, and beside
	// it the build holds only a split cut's one-shard buffers, so its
	// resident set is this plus those, the Go runtime's own, and the
	// pages of the store that emission probes through a mapping: a k=6
	// build at the default budget tracks 102.4 MiB (107.3 MB) and peaks
	// at about 127–129 MB resident.
	PeakTrackedBytes int64
	// ResumedLevels is how many completed levels a resume reused.
	ResumedLevels int
	// Elapsed is the build's wall time.
	Elapsed time.Duration
}

// builder carries one build's resolved configuration and counters.
type builder struct {
	o       Options
	a       *bfs.Alphabet
	reduced bool
	dir     string
	shards  int
	// shardShift routes keys to shards exactly as hashtab.Compact and
	// the frozen layout do: shard = Hash64Shift(key) >> shardShift.
	shardShift uint
	workers    int
	budget     int64

	costs  []int
	groups map[int][]int

	manMu sync.Mutex
	man   *tablesio.BuildManifest
	// sealedSinceFlush batches manifest writes during expansion so a
	// many-slab level does not rewrite the manifest per slab; the flush
	// stride keeps re-expansion after a crash bounded to a sliver of
	// the level.
	sealedSinceFlush int
	flushStride      int

	// Derived budget knobs; see deriveKnobs.
	repsPerSlab int64
	fanBuf      int
	maxFanIn    int
	seqBufPairs int
	probeChunk  int

	ws        workspace
	spillW    atomic.Int64
	spillR    atomic.Int64
	candTotal atomic.Int64
	start     time.Time
	resumed   int
}

// Build runs the out-of-core BFS and emits the full store, then cuts any
// splits from it. The store is byte-identical to tablesio.SaveFile of
// the sequential bfs.Search, for any MemBudget, Workers, and
// crash/resume history.
func Build(o Options) (*Stats, error) {
	b, err := newBuilder(o)
	if err != nil {
		return nil, err
	}
	// A finished or failed build holds none of its workspace.
	defer b.ws.release()
	if err := b.setupWorkDir(); err != nil {
		return nil, err
	}
	for c := len(b.man.Levels); c <= b.o.K; c++ {
		if err := b.buildLevel(c); err != nil {
			return nil, err
		}
		if err := b.failPoint("level", c, -1); err != nil {
			return nil, err
		}
	}
	if err := b.emit(); err != nil {
		return nil, err
	}
	stats := b.stats()
	if !b.o.KeepWork && (b.o.OutPath != "" || b.o.SplitN > 1) {
		b.cleanWorkDir(true)
		if b.man.CreatedDir {
			// Fails, harmlessly, if something else was put there.
			os.Remove(b.dir)
		}
	}
	return stats, nil
}

// BuildResult is Build followed by tablesio.LoadFile of the full store:
// the one way every fresh in-process table set is made. WorkDir and
// OutPath may be left empty; they are then placed in a temporary
// directory under os.TempDir (so TMPDIR decides where the build
// spills) that is removed before BuildResult returns. A store emitted
// to the caller's OutPath is loaded the usual way (memory-mapped on
// Unix; its owner releases the mapping with Frozen.Close). A store
// emitted to the temporary directory is read onto the heap instead, so
// the result is garbage-collected like any other value and holds no
// mapping of an unlinked file.
func BuildResult(o Options) (*bfs.Result, *Stats, error) {
	load := &tablesio.LoadOptions{}
	if o.WorkDir == "" || o.OutPath == "" {
		tmp, err := os.MkdirTemp("", "extbuild-")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(tmp)
		if o.WorkDir == "" {
			o.WorkDir = filepath.Join(tmp, "work")
		}
		if o.OutPath == "" {
			o.OutPath = filepath.Join(tmp, "tables")
			load.DisableMmap = true
		}
	}
	stats, err := Build(o)
	if err != nil {
		return nil, nil, err
	}
	res, _, err := tablesio.LoadFile(o.OutPath, o.Alphabet, load)
	if err != nil {
		return nil, nil, err
	}
	return res, stats, nil
}

// LevelProgress adapts a per-level callback — level, new
// representatives — to Options.Progress: f runs once per completed
// level, on its merge's completion event. A nil f gives a nil Progress.
func LevelProgress(f func(level, newReps int)) func(ProgressEvent) {
	if f == nil {
		return nil
	}
	return func(ev ProgressEvent) {
		if ev.Phase == "merge" && ev.Done {
			f(ev.Level, int(ev.Survivors))
		}
	}
}

func newBuilder(o Options) (*builder, error) {
	if o.Alphabet == nil {
		return nil, fmt.Errorf("extbuild: nil alphabet")
	}
	if o.K < 0 || o.K > bfs.MaxPackedCost {
		return nil, fmt.Errorf("extbuild: horizon %d outside [0, %d]", o.K, bfs.MaxPackedCost)
	}
	if !o.NoReduction && !o.Alphabet.Relabelable() {
		return nil, fmt.Errorf("extbuild: alphabet is not closed under wire relabeling; set NoReduction")
	}
	if o.WorkDir == "" {
		return nil, fmt.Errorf("extbuild: WorkDir is required")
	}
	shards := o.Shards
	if shards <= 0 {
		shards = hashtab.StoreShards
	}
	n := 1
	for n < shards && n < 1<<16 {
		n <<= 1
	}
	shards = n
	if o.SplitN > 1 {
		if err := tablesio.CheckSplitCount(o.SplitN); err != nil {
			return nil, err
		}
		if o.SplitPath == nil {
			return nil, fmt.Errorf("extbuild: SplitN %d requires SplitPath", o.SplitN)
		}
	}
	workers := o.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	budget := o.MemBudget
	if budget <= 0 {
		budget = DefaultMemBudget
	}
	costs, groups := bfs.CostGroups(o.Alphabet)
	b := &builder{
		o:          o,
		a:          o.Alphabet,
		reduced:    !o.NoReduction,
		dir:        o.WorkDir,
		shards:     shards,
		shardShift: uint(64 - log2int(shards)),
		workers:    workers,
		budget:     budget,
		costs:      costs,
		groups:     groups,
		start:      time.Now(),
	}
	if o.OutPath == "" && o.SplitN <= 1 {
		// Nothing is emitted, so the level artifacts are the product.
		b.o.KeepWork = true
	}
	b.deriveKnobs()
	return b, nil
}

// deriveKnobs sizes every phase buffer from the budget. The floors keep
// degenerate budgets functional (they just spill constantly); the
// ceilings stop a huge budget from turning into pointless buffers.
func (b *builder) deriveKnobs() {
	// Merge fan-in: every merge worker holds one read buffer per open
	// spill run or level file, plus its part-file write buffer. A
	// quarter of the budget on those buffers at most, shared by the
	// workers.
	w := int64(b.workers)
	b.fanBuf = int(clamp64(b.budget/(64*w), 64<<10, 1<<20))
	b.maxFanIn = int(clamp64(b.budget/(4*w*int64(b.fanBuf)), 8, 64))
	// Sequence sorter: 16-byte candidates, a quarter of the budget split
	// between the pair buffer and its radix scratch.
	b.seqBufPairs = int(clamp64(b.budget/(8*seqPairBytes), 1<<11, 1<<23))
	b.probeChunk = 4096
}

// slabRepBytes is the expansion memory one frontier representative
// claims in a slab: maxStride candidates, each held twice — in the
// slab buffer and in the spill sort's radix scratch.
func slabRepBytes(maxStride uint64) int64 { return 2 * int64(maxStride) * candMemBytes }

// planSlabs sizes the expansion slab for a level with the given total
// source representatives and maximum per-representative candidate
// stride: at most half the budget across all worker buffers, floored so
// the slab count stays within the manifest's run table. When the
// frontier has at least one representative per worker, the slab count
// is then rounded up to a multiple of the worker count (down, if up
// would leave the run table), so no worker idles through another's last
// slab. Finally the frontier is tiled evenly over that count, so a
// worker's buffers hold what one slab needs rather than what the budget
// allows (the buffers' size sets the build's live heap, and so its
// resident set); equal slab counts therefore always tile identically.
// The rounding is exact once the frontier is large next to the squared
// slab count, and a small frontier may tile into somewhat fewer slabs.
func (b *builder) planSlabs(totalReps int64, maxStride uint64) (repsPerSlab int64, slabCount int) {
	if totalReps == 0 {
		return 1, 0
	}
	repsPerSlab = b.budget / 2 / (int64(b.workers) * slabRepBytes(maxStride))
	repsPerSlab = clamp64(repsPerSlab, 1, totalReps)
	if minSlab := (totalReps + maxSlabsPerLevel - 1) / maxSlabsPerLevel; repsPerSlab < minSlab {
		repsPerSlab = minSlab
	}
	slabCount = int((totalReps + repsPerSlab - 1) / repsPerSlab)
	if w := b.workers; totalReps >= int64(w) && slabCount%w != 0 {
		balanced := (slabCount + w - 1) / w * w
		if balanced > maxSlabsPerLevel {
			balanced -= w
		}
		slabCount = max(slabCount, balanced)
	}
	repsPerSlab = (totalReps + int64(slabCount) - 1) / int64(slabCount)
	slabCount = int((totalReps + repsPerSlab - 1) / repsPerSlab)
	return repsPerSlab, slabCount
}

// setupWorkDir prepares the directory and loads or creates the
// manifest checkpoint, bootstrapping level 0 (the identity) for fresh
// builds.
func (b *builder) setupWorkDir() error {
	_, err := os.Stat(b.dir)
	created := errors.Is(err, os.ErrNotExist)
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	manPath := filepath.Join(b.dir, ManifestName)
	if b.o.Resume {
		man, err := tablesio.ReadManifestFile(manPath)
		switch {
		case err == nil:
			if err := b.adoptManifest(man); err != nil {
				return err
			}
		case errors.Is(err, os.ErrNotExist):
			// Nothing to resume; fall through to a fresh build.
		default:
			return fmt.Errorf("extbuild: resume: %w", err)
		}
	}
	b.cleanWorkDir(false)
	if b.man == nil {
		b.man = &tablesio.BuildManifest{
			Generation: 1,
			K:          b.o.K,
			Reduced:    b.reduced,
			Alphabet:   tables.FingerprintOf(b.a),
			Shards:     b.shards,
			CreatedDir: created,
		}
		if err := b.bootstrapLevel0(); err != nil {
			return err
		}
	}
	return b.writeManifest()
}

// adoptManifest verifies a checkpoint against this build's
// configuration and its artifacts against their recorded fingerprints,
// then takes ownership by bumping the generation. Completed levels must
// verify — a corrupt level file means the checkpoint cannot honor the
// ≤ 1 level rework contract, so it is a hard error rather than a silent
// rebuild. Sealed runs that fail verification are merely forgotten (the
// slab re-expands).
func (b *builder) adoptManifest(man *tablesio.BuildManifest) error {
	if man.K != b.o.K || man.Reduced != b.reduced {
		return fmt.Errorf("extbuild: manifest is a k=%d reduced=%v build; requested k=%d reduced=%v",
			man.K, man.Reduced, b.o.K, b.reduced)
	}
	if man.Alphabet != tables.FingerprintOf(b.a) {
		return fmt.Errorf("extbuild: manifest was built over a different alphabet")
	}
	if man.Shards != b.shards {
		return fmt.Errorf("extbuild: manifest used %d shards, this build %d (set Options.Shards to match)",
			man.Shards, b.shards)
	}
	for _, lv := range man.Levels {
		if err := verifyArtifact(b.dir, lv.Srt); err != nil {
			return fmt.Errorf("extbuild: checkpoint level %d unusable: %w", lv.Level, err)
		}
		if err := verifyArtifact(b.dir, lv.Seq); err != nil {
			return fmt.Errorf("extbuild: checkpoint level %d unusable: %w", lv.Level, err)
		}
	}
	kept := man.Runs[:0]
	for _, r := range man.Runs {
		if verifyArtifact(b.dir, r.File) == nil {
			kept = append(kept, r)
		}
	}
	man.Runs = kept
	if man.Generation >= 1<<30 {
		return fmt.Errorf("extbuild: manifest generation exhausted")
	}
	man.Generation++
	b.man = man
	b.resumed = len(man.Levels)
	return nil
}

// cleanWorkDir removes build artifacts: always the temp droppings of
// any previous attempt, and — when the manifest is absent or all is
// reset — every run/level/manifest file not referenced by the adopted
// checkpoint.
func (b *builder) cleanWorkDir(all bool) {
	ents, err := os.ReadDir(b.dir)
	if err != nil {
		return
	}
	referenced := map[string]bool{}
	if b.man != nil && !all {
		for _, lv := range b.man.Levels {
			referenced[lv.Srt.Name] = true
			referenced[lv.Seq.Name] = true
		}
		for _, r := range b.man.Runs {
			referenced[r.File.Name] = true
		}
		referenced[ManifestName] = true
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || referenced[name] {
			continue
		}
		if strings.HasPrefix(name, ".extbuild-") || strings.HasPrefix(name, "run_") ||
			strings.HasPrefix(name, "cons_") || strings.HasPrefix(name, "seqspill_") ||
			strings.HasPrefix(name, "part_") ||
			strings.HasPrefix(name, "level_") || name == ManifestName {
			os.Remove(filepath.Join(b.dir, name))
		}
	}
}

// bootstrapLevel0 writes the identity level's artifacts.
func (b *builder) bootstrapLevel0() error {
	key := identityKey()
	shard := uint32(hashtab.Hash64Shift(key) >> b.shardShift)
	var buf []byte
	if err := b.ws.carve(func(c *carver) { buf = view[byte](c, srtRecordBytes+8*b.shards) }); err != nil {
		return err
	}
	srtAF, err := newAtomicFile(b.dir, srtName(0), buf)
	if err != nil {
		return err
	}
	var rec [srtRecordBytes]byte
	putSrtRecord(rec[:], key, bfs.PackIdentity())
	if _, err := srtAF.Write(rec[:]); err != nil {
		srtAF.abort()
		return err
	}
	counts := make([]uint64, b.shards)
	counts[shard] = 1
	if err := writeCountsTrailer(srtAF, counts); err != nil {
		srtAF.abort()
		return err
	}
	srtMF, err := srtAF.commit()
	if err != nil {
		return err
	}
	seqAF, err := newAtomicFile(b.dir, seqName(0), buf)
	if err != nil {
		return err
	}
	var kb [seqRecordBytes]byte
	putSeqRecord(kb[:], key)
	if _, err := seqAF.Write(kb[:]); err != nil {
		seqAF.abort()
		return err
	}
	seqMF, err := seqAF.commit()
	if err != nil {
		return err
	}
	b.man.Levels = []tablesio.ManifestLevel{{Level: 0, Entries: 1, Srt: srtMF, Seq: seqMF}}
	return nil
}

// writeManifest persists the checkpoint (caller holds manMu or is
// single-threaded).
func (b *builder) writeManifest() error {
	b.sealedSinceFlush = 0
	return tablesio.WriteManifestFile(filepath.Join(b.dir, ManifestName), b.man)
}

// buildLevel runs one level end to end: slab expansion into sealed spill
// runs, then the shard-parallel merge-dedup that publishes the level and
// advances the checkpoint.
func (b *builder) buildLevel(c int) error {
	plan, err := b.planLevel(c)
	if err != nil {
		return err
	}
	if err := b.expandLevel(c, plan); err != nil {
		return err
	}
	return b.mergeLevel(c, plan)
}

func (b *builder) failPoint(stage string, level, slab int) error {
	if b.o.FailPoint != nil {
		return b.o.FailPoint(stage, level, slab)
	}
	return nil
}

func (b *builder) progress(ev ProgressEvent) {
	if b.o.Progress == nil {
		return
	}
	ev.SpillWrittenBytes = b.spillW.Load()
	ev.SpillReadBytes = b.spillR.Load()
	ev.Elapsed = time.Since(b.start)
	b.o.Progress(ev)
}

func (b *builder) stats() *Stats {
	lc := make([]int64, len(b.man.Levels))
	var total int64
	for i, lv := range b.man.Levels {
		lc[i] = lv.Entries
		total += lv.Entries
	}
	return &Stats{
		LevelCounts:       lc,
		Entries:           total,
		Candidates:        b.candTotal.Load(),
		SpillWrittenBytes: b.spillW.Load(),
		SpillReadBytes:    b.spillR.Load(),
		PeakTrackedBytes:  b.ws.bytes(),
		ResumedLevels:     b.resumed,
		Elapsed:           time.Since(b.start),
	}
}

func identityKey() uint64 { return uint64(identityPerm()) }

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func log2int(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
