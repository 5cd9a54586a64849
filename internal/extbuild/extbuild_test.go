package extbuild

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bfs"
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
	if _, err := Build(Options{Alphabet: a, K: 3, WorkDir: work, OutPath: out}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, out), ref) {
		t.Fatal("fresh build over a dirty work directory differs from reference")
	}
}

// TestProgressEvents: the streaming observability contract — every
// level reports expansion and merge completion, emission reports, and
// counters are monotonic.
func TestProgressEvents(t *testing.T) {
	a := bfs.GateAlphabet()
	const k = 3
	dir := t.TempDir()
	var events []ProgressEvent
	if _, err := Build(Options{
		Alphabet: a, K: k,
		WorkDir: filepath.Join(dir, "work"),
		OutPath: filepath.Join(dir, "out.rvt"),
		Progress: func(ev ProgressEvent) {
			events = append(events, ev)
		},
	}); err != nil {
		t.Fatal(err)
	}
	mergedLevels := map[int]int64{}
	var emitDone bool
	for _, ev := range events {
		if ev.Phase == "merge" && ev.Done {
			mergedLevels[ev.Level] = ev.Survivors
		}
		if ev.Phase == "emit" && ev.Done {
			emitDone = true
		}
	}
	for c := 1; c <= k; c++ {
		if mergedLevels[c] != bfs.GateReducedCounts[c] {
			t.Errorf("level %d merge reported %d survivors, want %d", c, mergedLevels[c], bfs.GateReducedCounts[c])
		}
	}
	if !emitDone {
		t.Error("no emission completion event")
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
	stats, err := Build(Options{
		Alphabet: a, K: k,
		WorkDir: filepath.Join(dir, "work"),
		Workers: 2,
		OutPath: filepath.Join(dir, "out.rvt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeakTrackedBytes > DefaultMemBudget {
		t.Errorf("peak tracked %d bytes over the %d-byte default budget", stats.PeakTrackedBytes, DefaultMemBudget)
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
