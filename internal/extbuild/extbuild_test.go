package extbuild

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/hashtab"
	"repro/internal/tablesio"
)

// referenceFile builds k in memory with the deterministic sequential
// expansion (Workers: 1) and saves it — the byte-identity oracle.
func referenceFile(t *testing.T, a *bfs.Alphabet, k int, noReduction bool) []byte {
	t.Helper()
	res, err := bfs.Search(a, k, &bfs.Options{Workers: 1, NoReduction: noReduction})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.rvt")
	if err := tablesio.SaveFile(path, res); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestByteIdentityFull is the tentpole contract: an out-of-core build —
// under a budget far smaller than the table, with parallel workers —
// produces the byte-identical store file to the in-memory sequential
// build's SaveFile.
func TestByteIdentityFull(t *testing.T) {
	a := bfs.GateAlphabet()
	const k = 4
	ref := referenceFile(t, a, k, false)

	dir := t.TempDir()
	out := filepath.Join(dir, "out.rvt")
	stats, err := Build(Options{
		Alphabet:  a,
		K:         k,
		WorkDir:   filepath.Join(dir, "work"),
		MemBudget: 1 << 16, // 64 KiB: forces spilling, disk dedup, external seq sort
		Workers:   3,
		OutPath:   out,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := mustRead(t, out)
	if !bytes.Equal(got, ref) {
		t.Fatalf("out-of-core store differs from in-memory SaveFile (%d vs %d bytes)", len(got), len(ref))
	}
	// The level counts are the paper's Table 4 reduced column.
	for c, want := range bfs.GateReducedCounts[:k+1] {
		if stats.LevelCounts[c] != want {
			t.Errorf("level %d: %d reps, want %d", c, stats.LevelCounts[c], want)
		}
	}
	if stats.SpillWrittenBytes == 0 || stats.SpillReadBytes == 0 {
		t.Errorf("64 KiB budget should have spilled (wrote %d, read %d)", stats.SpillWrittenBytes, stats.SpillReadBytes)
	}
	// The store loads as a working result.
	res, _, err := tablesio.LoadFile(out, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Frozen.Close()
	if int64(res.TotalStored()) != stats.Entries {
		t.Fatalf("loaded %d entries, stats say %d", res.TotalStored(), stats.Entries)
	}
}

// TestBudgetInvariance: wildly different budgets (and worker counts)
// must emit identical bytes — the dedup fast path (in-memory prior
// table) and the disk merge-join are interchangeable.
func TestBudgetInvariance(t *testing.T) {
	a := bfs.GateAlphabet()
	const k = 3
	var outs [][]byte
	for i, cfg := range []struct {
		budget  int64
		workers int
	}{
		{1 << 15, 1},
		{1 << 22, 4},
		{DefaultMemBudget, 2},
	} {
		dir := t.TempDir()
		out := filepath.Join(dir, fmt.Sprintf("out%d.rvt", i))
		if _, err := Build(Options{
			Alphabet: a, K: k,
			WorkDir:   filepath.Join(dir, "work"),
			MemBudget: cfg.budget,
			Workers:   cfg.workers,
			OutPath:   out,
		}); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, mustRead(t, out))
	}
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Fatalf("config %d emitted different bytes than config 0", i)
		}
	}
	if !bytes.Equal(outs[0], referenceFile(t, a, k, false)) {
		t.Fatal("all configs agree with each other but not with the in-memory build")
	}
}

// TestByteIdentitySplit: direct split emission must match SaveSplitFile
// of the in-memory build, for every range — no intermediate full store,
// no separate split pass.
func TestByteIdentitySplit(t *testing.T) {
	a := bfs.GateAlphabet()
	const k, n = 3, 4
	res, err := bfs.Search(a, k, &bfs.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	refs := make([][]byte, n)
	for i := 0; i < n; i++ {
		p := filepath.Join(refDir, fmt.Sprintf("ref%d.rvt", i))
		if err := tablesio.SaveSplitFile(p, res, n, i); err != nil {
			t.Fatal(err)
		}
		refs[i] = mustRead(t, p)
	}

	dir := t.TempDir()
	full := filepath.Join(dir, "full.rvt")
	splitPath := func(i int) string { return filepath.Join(dir, fmt.Sprintf("split%d.rvt", i)) }
	if _, err := Build(Options{
		Alphabet: a, K: k,
		WorkDir:   filepath.Join(dir, "work"),
		MemBudget: 1 << 18,
		OutPath:   full,
		SplitN:    n,
		SplitPath: splitPath,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := mustRead(t, splitPath(i))
		if !bytes.Equal(got, refs[i]) {
			t.Fatalf("split %d differs from SaveSplitFile (%d vs %d bytes)", i, len(got), len(refs[i]))
		}
	}
	// The full store emitted in the same pass is also identical.
	if !bytes.Equal(mustRead(t, full), referenceFile(t, a, k, false)) {
		t.Fatal("full store emitted alongside splits differs from reference")
	}
}

// TestNoReduction covers the unreduced expansion path (every function
// stored, no canonicalization).
func TestNoReduction(t *testing.T) {
	a := bfs.GateAlphabet()
	const k = 2
	ref := referenceFile(t, a, k, true)
	dir := t.TempDir()
	out := filepath.Join(dir, "out.rvt")
	stats, err := Build(Options{
		Alphabet: a, K: k, NoReduction: true,
		WorkDir:   filepath.Join(dir, "work"),
		MemBudget: 1 << 16,
		OutPath:   out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, out), ref) {
		t.Fatal("unreduced out-of-core store differs from in-memory build")
	}
	for c, want := range bfs.GateFullCounts[:k+1] {
		if stats.LevelCounts[c] != want {
			t.Errorf("level %d: %d functions, want %d", c, stats.LevelCounts[c], want)
		}
	}
}

// errCrash is the sentinel the simulated-crash FailPoint aborts with.
var errCrash = errors.New("simulated crash")

// TestResumeAfterCrash aborts builds at every checkpoint stage — mid
// expansion, right after a level merge, just before emission — and
// resumes each; the resumed build must complete, reuse completed
// levels, and emit the byte-identical store.
func TestResumeAfterCrash(t *testing.T) {
	a := bfs.GateAlphabet()
	const k = 4
	ref := referenceFile(t, a, k, false)
	cases := []struct {
		name  string
		stage string
		level int
		slab  int
	}{
		{"mid-expansion", "run", 4, 0},
		{"after-level-merge", "level", 2, -1},
		{"before-emission", "emit", k, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, "out.rvt")
			work := filepath.Join(dir, "work")
			opts := Options{
				Alphabet: a, K: k,
				WorkDir:   work,
				MemBudget: 1 << 17,
				Workers:   2,
				OutPath:   out,
				FailPoint: func(stage string, level, slab int) error {
					if stage == tc.stage && level == tc.level && (tc.slab < 0 || slab == tc.slab) {
						return errCrash
					}
					return nil
				},
			}
			if _, err := Build(opts); !errors.Is(err, errCrash) {
				t.Fatalf("crash build: got %v, want simulated crash", err)
			}
			if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
				t.Fatal("crashed build left an output store")
			}
			opts.FailPoint = nil
			opts.Resume = true
			stats, err := Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustRead(t, out), ref) {
				t.Fatal("resumed store differs from in-memory reference")
			}
			if tc.stage != "run" && stats.ResumedLevels < tc.level {
				t.Errorf("resume reused %d levels, expected at least %d", stats.ResumedLevels, tc.level)
			}
		})
	}
}

// TestResumeWithDifferentBudget: a resume under a different budget (and
// so a different slab partition) discards sealed runs but reuses
// completed levels, and still byte-matches.
func TestResumeWithDifferentBudget(t *testing.T) {
	a := bfs.GateAlphabet()
	const k = 4
	ref := referenceFile(t, a, k, false)
	dir := t.TempDir()
	out := filepath.Join(dir, "out.rvt")
	work := filepath.Join(dir, "work")
	opts := Options{
		Alphabet: a, K: k,
		WorkDir:   work,
		MemBudget: 1 << 16,
		Workers:   2,
		OutPath:   out,
		FailPoint: func(stage string, level, slab int) error {
			if stage == "run" && level == 4 && slab == 2 {
				return errCrash
			}
			return nil
		},
	}
	if _, err := Build(opts); !errors.Is(err, errCrash) {
		t.Fatal("expected simulated crash")
	}
	opts.FailPoint = nil
	opts.Resume = true
	opts.MemBudget = 1 << 22
	stats, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResumedLevels != 4 {
		t.Errorf("resume reused %d levels, want 4", stats.ResumedLevels)
	}
	if !bytes.Equal(mustRead(t, out), ref) {
		t.Fatal("budget-changed resume differs from reference")
	}
}

// TestResumeSameSlabCountDifferentPartition: the hazard the manifest's
// LevelReps pin exists for. The slab count alone does not determine the
// partition — two budgets can tile the same frontier into the same
// number of differently-sized slabs. A crash that seals the first two
// of three slabs, resumed under a budget whose slabs are LARGER but
// equally many, must discard the sealed runs: reusing them would leave
// the frontier range between old slab 1's end and new slab 2's start
// silently unexpanded.
func TestResumeSameSlabCountDifferentPartition(t *testing.T) {
	a := bfs.GateAlphabet()
	const k = 4
	ref := referenceFile(t, a, k, false)

	// Level k's expansion plan over the known Table 4 level sizes: with
	// Workers 1, planSlabs yields repsPerSlab = budget/2/slabRepBytes.
	costs, groups := bfs.CostGroups(a)
	var totalReps int64
	var maxStride uint64
	for _, ec := range costs {
		src := k - ec
		if src < 0 {
			continue
		}
		if reps := bfs.GateReducedCounts[src]; reps > 0 {
			totalReps += reps
			if s := bfs.SeqStride(true, len(groups[ec])); s > maxStride {
				maxStride = s
			}
		}
	}
	perRepBytes := slabRepBytes(maxStride)
	repsA := (totalReps + 2) / 3 // ceil(T/3): 3 slabs, the smallest tiling
	repsB := repsA + 8           // still 3 slabs (any value below T/2)
	if (totalReps+repsB-1)/repsB != 3 {
		t.Fatalf("repsB %d does not tile %d reps into 3 slabs", repsB, totalReps)
	}

	dir := t.TempDir()
	out := filepath.Join(dir, "out.rvt")
	work := filepath.Join(dir, "work")
	opts := Options{
		Alphabet: a, K: k,
		WorkDir:   work,
		MemBudget: repsA * 2 * perRepBytes,
		Workers:   1, // sequential slabs: the crash leaves exactly {0, 1} sealed
		OutPath:   out,
		FailPoint: func(stage string, level, slab int) error {
			if stage == "run" && level == k && slab == 1 {
				return errCrash
			}
			return nil
		},
	}
	if _, err := Build(opts); !errors.Is(err, errCrash) {
		t.Fatal("expected simulated crash")
	}
	man, err := tablesio.ReadManifestFile(filepath.Join(work, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	// Guard the hazard preconditions, so planSlabs drift cannot quietly
	// turn this into a no-op test.
	if man.LevelSlabs != 3 || man.LevelReps != repsA {
		t.Fatalf("crashed partition %d×%d, want 3×%d", man.LevelSlabs, man.LevelReps, repsA)
	}
	if len(man.Runs) != 2 {
		t.Fatalf("crash sealed %d runs, want 2", len(man.Runs))
	}

	opts.FailPoint = nil
	opts.Resume = true
	opts.MemBudget = repsB * 2 * perRepBytes
	stats, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LevelCounts[k] != bfs.GateReducedCounts[k] {
		t.Errorf("level %d count %d, want %d (reused runs left a frontier gap)",
			k, stats.LevelCounts[k], bfs.GateReducedCounts[k])
	}
	if !bytes.Equal(mustRead(t, out), ref) {
		t.Fatal("partition-changed resume differs from reference")
	}
}

// TestResumeRejectsCorruptLevel: a checkpoint whose level artifact was
// tampered with must refuse to resume (the ≤ 1 level rework contract
// cannot be honored from corrupt state).
func TestResumeRejectsCorruptLevel(t *testing.T) {
	a := bfs.GateAlphabet()
	dir := t.TempDir()
	work := filepath.Join(dir, "work")
	opts := Options{
		Alphabet: a, K: 3,
		WorkDir:  work,
		KeepWork: true,
		OutPath:  filepath.Join(dir, "out.rvt"),
	}
	if _, err := Build(opts); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in a completed level's entries.
	p := filepath.Join(work, srtName(2))
	raw := mustRead(t, p)
	raw[3] ^= 0x40
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	if _, err := Build(opts); err == nil {
		t.Fatal("resume accepted a corrupt level artifact")
	}
}

// TestResumeRejectsMismatchedConfig: resuming under a different horizon
// or alphabet must fail loudly, not silently rebuild or mix artifacts.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	work := filepath.Join(dir, "work")
	if _, err := Build(Options{
		Alphabet: bfs.GateAlphabet(), K: 2,
		WorkDir: work, KeepWork: true,
		OutPath: filepath.Join(dir, "out.rvt"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(Options{
		Alphabet: bfs.GateAlphabet(), K: 3,
		WorkDir: work, Resume: true,
		OutPath: filepath.Join(dir, "out2.rvt"),
	}); err == nil {
		t.Fatal("resume accepted a different horizon")
	}
	if _, err := Build(Options{
		Alphabet: bfs.LinearAlphabet(), K: 2,
		WorkDir: work, Resume: true,
		OutPath: filepath.Join(dir, "out3.rvt"),
	}); err == nil {
		t.Fatal("resume accepted a different alphabet")
	}
}

// TestFreshBuildClearsStaleWork: a non-resume build over a dirty work
// directory must not mix in stale artifacts.
func TestFreshBuildClearsStaleWork(t *testing.T) {
	a := bfs.GateAlphabet()
	ref := referenceFile(t, a, 3, false)
	dir := t.TempDir()
	work := filepath.Join(dir, "work")
	out := filepath.Join(dir, "out.rvt")
	// First a k=2 build that keeps its artifacts, then a fresh k=3 build
	// in the same directory.
	if _, err := Build(Options{Alphabet: a, K: 2, WorkDir: work, KeepWork: true,
		OutPath: filepath.Join(dir, "old.rvt")}); err != nil {
		t.Fatal(err)
	}
	// A merge that died mid-level leaves part files behind: one this
	// build's level-3 merge would write anyway, and one it never would.
	stale := []string{partName("3", 0), partName("9", 0)}
	for _, name := range stale {
		if err := os.WriteFile(filepath.Join(work, name), []byte("stale part"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Build(Options{Alphabet: a, K: 3, WorkDir: work, OutPath: out, KeepWork: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, out), ref) {
		t.Fatal("fresh build over a dirty work directory differs from reference")
	}
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(work, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("stale %s survived a fresh build (stat: %v)", name, err)
		}
	}
}

// TestProgressEvents: the streaming observability contract — every
// level reports expansion and merge completion, and emission completes
// last with the build's final spill counters. Progress is called from
// worker goroutines, so the callback guards itself; the second config
// is a many-worker, spilling build whose workers report concurrently
// (run with -race).
func TestProgressEvents(t *testing.T) {
	a := bfs.GateAlphabet()
	for _, cfg := range []struct {
		k       int
		budget  int64
		workers int
	}{{3, 0, 0}, {4, 1 << 16, 4}} {
		dir := t.TempDir()
		var (
			mu     sync.Mutex
			events []ProgressEvent
		)
		stats, err := Build(Options{
			Alphabet: a, K: cfg.k,
			WorkDir:   filepath.Join(dir, "work"),
			MemBudget: cfg.budget,
			Workers:   cfg.workers,
			OutPath:   filepath.Join(dir, "out.rvt"),
			Progress: func(ev ProgressEvent) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		mergedLevels := map[int]int64{}
		for _, ev := range events {
			if ev.Phase == "merge" && ev.Done {
				mergedLevels[ev.Level] = ev.Survivors
			}
		}
		for c := 1; c <= cfg.k; c++ {
			if mergedLevels[c] != bfs.GateReducedCounts[c] {
				t.Errorf("k=%d: level %d merge reported %d survivors, want %d",
					cfg.k, c, mergedLevels[c], bfs.GateReducedCounts[c])
			}
		}
		last := events[len(events)-1]
		if last.Phase != "emit" || !last.Done {
			t.Errorf("k=%d: last event %s done=%v, want the emission completion", cfg.k, last.Phase, last.Done)
		}
		if last.SpillWrittenBytes != stats.SpillWrittenBytes || last.SpillReadBytes != stats.SpillReadBytes {
			t.Errorf("k=%d: final event spill %d/%d, stats %d/%d", cfg.k, last.SpillWrittenBytes,
				last.SpillReadBytes, stats.SpillWrittenBytes, stats.SpillReadBytes)
		}
	}
}

// TestWorkDirCleanup: a successful emitting build removes its work
// artifacts unless KeepWork is set.
func TestWorkDirCleanup(t *testing.T) {
	a := bfs.GateAlphabet()
	dir := t.TempDir()
	work := filepath.Join(dir, "work")
	if _, err := Build(Options{Alphabet: a, K: 2, WorkDir: work,
		OutPath: filepath.Join(dir, "out.rvt")}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("leftover work artifact %s", e.Name())
	}
}

// TestTable4LevelCounts runs the out-of-core build to k=5 under a small
// budget and checks the full Table 4 prefix — the paper-correctness
// anchor for the disk pipeline.
func TestTable4LevelCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("k=5 build in -short mode")
	}
	a := bfs.GateAlphabet()
	const k = 5
	dir := t.TempDir()
	stats, err := Build(Options{
		Alphabet: a, K: k,
		WorkDir:   filepath.Join(dir, "work"),
		MemBudget: 1 << 20,
		OutPath:   filepath.Join(dir, "out.rvt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c <= k; c++ {
		if stats.LevelCounts[c] != bfs.GateReducedCounts[c] {
			t.Errorf("level %d: %d reps, want %d (paper Table 4)", c, stats.LevelCounts[c], bfs.GateReducedCounts[c])
		}
	}
	if stats.PeakTrackedBytes > 8<<20 {
		t.Errorf("1 MiB budget build tracked %d bytes peak", stats.PeakTrackedBytes)
	}
}

// TestPeakTrackedWithinBudget: with the radix scratch buffers charged,
// a k=5 build at the default budget still peaks within the budget, and
// the expansion phase's ledger covers a whole slab buffer plus its sort
// scratch — the scratch is on the ledger, not beside it.
func TestPeakTrackedWithinBudget(t *testing.T) {
	a := bfs.GateAlphabet()
	const k = 5
	dir := t.TempDir()
	// Four workers: every merge and emission worker charges its own
	// read, probe and shard buffers.
	for _, workers := range []int{2, 4} {
		stats, err := Build(Options{
			Alphabet: a, K: k,
			WorkDir: filepath.Join(dir, "work"),
			Workers: workers,
			OutPath: filepath.Join(dir, "out.rvt"),
			SplitN:  2,
			SplitPath: func(i int) string {
				return filepath.Join(dir, fmt.Sprintf("split%d.rvt", i))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.PeakTrackedBytes > DefaultMemBudget {
			t.Errorf("workers=%d: peak tracked %d bytes over the %d-byte default budget",
				workers, stats.PeakTrackedBytes, DefaultMemBudget)
		}
	}

	// Re-run up to level k's expansion alone and read its share of the
	// ledger.
	b, err := newBuilder(Options{Alphabet: a, K: k, WorkDir: filepath.Join(dir, "work2"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.setupWorkDir(); err != nil {
		t.Fatal(err)
	}
	if err := b.initPrior(); err != nil {
		t.Fatal(err)
	}
	for c := 1; c < k; c++ {
		if err := b.buildLevel(c); err != nil {
			t.Fatal(err)
		}
	}
	p := b.planLevel(k)
	base := b.mem.cur
	b.mem.peak = base
	if err := b.expandLevel(k, p); err != nil {
		t.Fatal(err)
	}
	if got, slab := b.mem.peak-base, p.repsPerSlab*slabRepBytes(p.maxStride); got < slab {
		t.Errorf("level %d expansion charged %d bytes, below one slab with its sort scratch (%d)", k, got, slab)
	}
}

// withEightShards runs f with GOMAXPROCS pinned low enough that
// hashtab.DefaultShardCount() — the shard count of an in-memory
// bfs.Search, and so of its saved store — is 8 on any machine.
func withEightShards(t *testing.T, f func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if n := hashtab.DefaultShardCount(); n != 8 {
		t.Fatalf("DefaultShardCount %d at GOMAXPROCS 1, want 8", n)
	}
	f()
}

// TestWorkerCountInvariance: every phase is worker-parallel, so the
// worker count is the schedule knob most likely to leak into the bytes.
// With 8 shards, workers ∈ {1, 2, 3, 8} covers fewer and as many
// workers as shards (and a count that divides neither), on both dedup
// paths: the default budget keeps the prior levels in the in-memory
// probe table; 16 KiB overflows it after level 3, so level 4 dedups by
// the disk merge-join, and also forces run consolidation and the
// external sequence sort. The full store and all 4 splits must
// byte-match the in-memory build, and the level artifacts must carry
// the same fingerprints whatever the worker count.
func TestWorkerCountInvariance(t *testing.T) {
	a := bfs.GateAlphabet()
	const k, n = 4, 4
	refDir := t.TempDir()
	var ref []byte
	refs := make([][]byte, n)
	withEightShards(t, func() {
		res, err := bfs.Search(a, k, &bfs.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(refDir, "ref.rvt")
		if err := tablesio.SaveFile(p, res); err != nil {
			t.Fatal(err)
		}
		ref = mustRead(t, p)
		for i := range n {
			p := filepath.Join(refDir, fmt.Sprintf("ref%d.rvt", i))
			if err := tablesio.SaveSplitFile(p, res, n, i); err != nil {
				t.Fatal(err)
			}
			refs[i] = mustRead(t, p)
		}
	})
	for _, budget := range []struct {
		name  string
		bytes int64
		disk  bool
	}{{"in-memory prior", 0, false}, {"disk merge-join", 1 << 14, true}} {
		t.Run(budget.name, func(t *testing.T) {
			// Guard the path, so budget drift cannot quietly make both
			// subtests in-memory ones.
			if disk := diskJoinAtLevel(t, a, k, budget.bytes); disk != budget.disk {
				t.Fatalf("level %d dedups on disk: %v, want %v", k, disk, budget.disk)
			}
			var levels []tablesio.ManifestLevel
			for _, workers := range []int{1, 2, 3, 8} {
				dir := t.TempDir()
				work := filepath.Join(dir, "work")
				full := filepath.Join(dir, "full.rvt")
				splitPath := func(i int) string { return filepath.Join(dir, fmt.Sprintf("split%d.rvt", i)) }
				if _, err := Build(Options{
					Alphabet: a, K: k,
					WorkDir:   work,
					MemBudget: budget.bytes,
					Shards:    8,
					Workers:   workers,
					KeepWork:  true,
					OutPath:   full,
					SplitN:    n,
					SplitPath: splitPath,
				}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mustRead(t, full), ref) {
					t.Errorf("workers=%d: full store differs from SaveFile", workers)
				}
				for i := range n {
					if !bytes.Equal(mustRead(t, splitPath(i)), refs[i]) {
						t.Errorf("workers=%d: split %d differs from SaveSplitFile", workers, i)
					}
				}
				man, err := tablesio.ReadManifestFile(filepath.Join(work, ManifestName))
				if err != nil {
					t.Fatal(err)
				}
				if levels == nil {
					levels = man.Levels
					continue
				}
				for c, lv := range man.Levels {
					if lv.Srt != levels[c].Srt || lv.Seq != levels[c].Seq {
						t.Errorf("workers=%d: level %d artifacts %+v/%+v, workers=1 wrote %+v/%+v",
							workers, c, lv.Srt, lv.Seq, levels[c].Srt, levels[c].Seq)
					}
				}
			}
		})
	}
}

// diskJoinAtLevel reports whether level k of a build under budget
// dedups by the disk merge-join rather than the in-memory probe table.
func diskJoinAtLevel(t *testing.T, a *bfs.Alphabet, k int, budget int64) bool {
	t.Helper()
	b, err := newBuilder(Options{Alphabet: a, K: k, WorkDir: filepath.Join(t.TempDir(), "work"),
		MemBudget: budget, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.setupWorkDir(); err != nil {
		t.Fatal(err)
	}
	if err := b.initPrior(); err != nil {
		t.Fatal(err)
	}
	for c := 1; c < k; c++ {
		if err := b.buildLevel(c); err != nil {
			t.Fatal(err)
		}
	}
	return b.prior == nil
}

// TestReaderAdvanceAllocs: the merge readers advance once per record,
// so they must not allocate per record.
func TestReaderAdvanceAllocs(t *testing.T) {
	dir := t.TempDir()
	const n = 1000
	cands := make([]cand, n)
	for i := range cands {
		cands[i] = cand{key: uint64(i + 1), seq: uint64(i), val: uint16(i)}
	}
	if _, err := writeRunFile(dir, "r.run", cands, 1); err != nil {
		t.Fatal(err)
	}
	af, err := newAtomicFile(dir, "l.srt")
	if err != nil {
		t.Fatal(err)
	}
	var rec [srtRecordBytes]byte
	for _, c := range cands {
		putSrtRecord(rec[:], c.key, c.val)
		af.Write(rec[:])
	}
	if err := writeCountsTrailer(af, []uint64{n}); err != nil {
		t.Fatal(err)
	}
	if _, err := af.commit(); err != nil {
		t.Fatal(err)
	}
	spill := make([]byte, n*seqPairBytes)
	if err := os.WriteFile(filepath.Join(dir, "s.spill"), spill, 0o644); err != nil {
		t.Fatal(err)
	}

	check := func(name string, advance func() error) {
		t.Helper()
		allocs := testing.AllocsPerRun(n/2, func() {
			if err := advance(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s reader: %.1f allocations per advance, want 0", name, allocs)
		}
	}
	for _, f := range []struct {
		name     string
		recBytes int
	}{{"r.run", runRecordBytes}, {"l.srt", srtRecordBytes}} {
		sf, err := openSegFile(filepath.Join(dir, f.name), 1, f.recBytes)
		if err != nil {
			t.Fatal(err)
		}
		defer sf.f.Close()
		r := newSegReader(4096)
		if err := r.enter(sf, 0); err != nil {
			t.Fatal(err)
		}
		check(f.name, r.advance)
	}
	sr, err := openSeqSpill(filepath.Join(dir, "s.spill"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.f.Close()
	check("seq spill", sr.advance)
}

// TestReadSeqRangeAllocs: expansion reads every slab's frontier through
// the worker's charged buffers, so a frontier read must not allocate.
func TestReadSeqRangeAllocs(t *testing.T) {
	const n = 1000
	raw := make([]byte, n*seqRecordBytes)
	for i := 0; i < n; i++ {
		putSeqRecord(raw[i*seqRecordBytes:], uint64(i+1))
	}
	path := filepath.Join(t.TempDir(), seqName(1))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	keys := make([]uint64, n/4)
	buf := make([]byte, len(keys)*seqRecordBytes)
	first := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		if err := readSeqRange(f, first, keys, buf); err != nil {
			t.Fatal(err)
		}
		first = (first + 1) % (n - int64(len(keys)))
	})
	if allocs != 0 {
		t.Errorf("frontier read: %.1f allocations, want 0", allocs)
	}
	if err := readSeqRange(f, 7, keys, buf); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if k != uint64(7+i+1) {
			t.Fatalf("key %d = %d, want %d", i, k, 7+i+1)
		}
	}
}

// BenchmarkBuild times a k=5 build shaped like the k=6 benchmark
// workload (8 shards, the default budget, the full store plus 2 splits)
// and reports the wall time of each phase per build, attributed from
// the Progress stream: the interval before each event goes to the
// event's phase.
func BenchmarkBuild(b *testing.B) {
	a := bfs.GateAlphabet()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var (
				mu    sync.Mutex
				last  time.Duration
				phase = map[string]time.Duration{}
			)
			progress := func(ev ProgressEvent) {
				mu.Lock()
				defer mu.Unlock()
				if ev.Elapsed > last {
					phase[ev.Phase] += ev.Elapsed - last
					last = ev.Elapsed
				}
			}
			for b.Loop() {
				dir := b.TempDir()
				last = 0
				if _, err := Build(Options{
					Alphabet: a, K: 5,
					WorkDir: filepath.Join(dir, "work"),
					Shards:  8,
					Workers: workers,
					OutPath: filepath.Join(dir, "k5.rvt"),
					SplitN:  2,
					SplitPath: func(i int) string {
						return filepath.Join(dir, fmt.Sprintf("k5.%dof2", i))
					},
					Progress: progress,
				}); err != nil {
					b.Fatal(err)
				}
			}
			for _, name := range []string{"expand", "merge", "emit"} {
				b.ReportMetric(phase[name].Seconds()/float64(b.N), name+"_s")
			}
		})
	}
}
