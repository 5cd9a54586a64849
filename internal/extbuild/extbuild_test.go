package extbuild

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/gate"
	"repro/internal/hashtab"
	"repro/internal/tablesio"
)

// referenceFile builds k with the sequential bfs.Search and saves it —
// the byte-identity oracle.
func referenceFile(t *testing.T, a *bfs.Alphabet, k int, noReduction bool) []byte {
	t.Helper()
	res, err := bfs.Search(a, k, &bfs.Options{NoReduction: noReduction})
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
		MemBudget: 1 << 16, // 64 KiB: forces spilling and the external seq sort
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
// must emit identical bytes — the budget sizes the buffers and so how
// much the build spills, never what it stores.
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

// referenceSplits cuts the n splits of the sequential bfs.Search's
// store, SaveFile followed by SaveSplitFiles: the split oracle.
func referenceSplits(t *testing.T, a *bfs.Alphabet, k, n int) [][]byte {
	t.Helper()
	dir := t.TempDir()
	full := filepath.Join(dir, "ref.rvt")
	if err := os.WriteFile(full, referenceFile(t, a, k, false), 0o644); err != nil {
		t.Fatal(err)
	}
	path := func(i int) string { return filepath.Join(dir, fmt.Sprintf("ref%d.rvt", i)) }
	if err := tablesio.SaveSplitFiles(full, n, path); err != nil {
		t.Fatal(err)
	}
	refs := make([][]byte, n)
	for i := range refs {
		refs[i] = mustRead(t, path(i))
	}
	return refs
}

// TestByteIdentitySplit: the splits a build cuts from its own store
// must match the cuts of the in-memory build's store, for every range.
func TestByteIdentitySplit(t *testing.T) {
	a := bfs.GateAlphabet()
	const k, n = 3, 4
	refs := referenceSplits(t, a, k, n)

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
			t.Fatalf("split %d differs from SaveSplitFiles (%d vs %d bytes)", i, len(got), len(refs[i]))
		}
	}
	// The full store emitted in the same pass is also identical.
	if !bytes.Equal(mustRead(t, full), referenceFile(t, a, k, false)) {
		t.Fatal("full store emitted alongside splits differs from reference")
	}
}

// TestSplitBeyondShardCount: any power-of-two split count up to the
// shard-count cap is valid, a range narrower than a shard included, and
// a build without OutPath cuts its splits from a temporary full store
// that it removes. A k=4 build with 8 shards cut 16 ways must reproduce
// the digests TestSaveFileDigests (internal/tablesio) pins for the
// in-memory build's 16-way cut.
func TestSplitBeyondShardCount(t *testing.T) {
	want := []string{
		"9c5e6753d141f2b7cf0a5b572b28f9db9229c49096c61fd3e125325f45445298",
		"2bc41e5a66f8943e5191bd4c5cd54ae1754f6489e3c9d8152712166f6bd13907",
		"6ccd1d43e878885bf5de5c9c1d2773661b011aa0522fd919090e01df56021947",
		"3361b134b8c7c84bd3201699824d0171ea24098365146e170a45d403349f75e0",
		"8d06b66a5a41f2bd3ae2b00cce390fafe97e9fd430d1342f58684fc83e92f9e8",
		"f479624b93eb239819b1d4c8508f70bbc91f3110a7462d842ba738c3fe81af33",
		"ed467bd3f19b1eeb2249e580e2d15597c604f4218d25e660bf1f52ca4895a89a",
		"8e4dddd2a196d832a0f8d6613f233f12433b4cf12db40672b6f512d5d64cdd0f",
		"ae70ee455c592ce1c54eab946a6bece7ff2c36b821dca9a7b7bf0c0a66a37475",
		"dd8dec39b50ce01ad934cfd25fcdbf4dddf4a0a8b774c8c0eb048402d15f6d12",
		"d48346f681bf24399f5dfc5681ecc19d9ecb495c89efaaf89d5eb715d53ba799",
		"777fe873d7f09bdf0d76ac162ed3c84d35e4673ac0af9c43842de50143ffbcee",
		"b53c4e07e49375d93bc96f308bc48e07efec254553cf0e445022e85ba63363ae",
		"6707f09181a7b223858be36e6bdd03320c05d0708abff79a006a2e6e2881ee63",
		"0d8d8f58d45c2bc3b09a99fc9223863bf7f554f6c837368d929da528910f8118",
		"a94a3a5c4f55f7f22a72b2ee623d8088e45551d5180c9c5c48988ec12b2e36e2",
	}
	dir := t.TempDir()
	splitPath := func(i int) string { return filepath.Join(dir, fmt.Sprintf("k4.%dof16", i)) }
	if _, err := Build(Options{
		Alphabet: bfs.GateAlphabet(), K: 4,
		WorkDir:   filepath.Join(dir, "work"),
		Shards:    8,
		SplitN:    len(want),
		SplitPath: splitPath,
	}); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		sum := sha256.Sum256(mustRead(t, splitPath(i)))
		if got := hex.EncodeToString(sum[:]); got != w {
			t.Errorf("split %d of 16: SHA-256 %s, want %s", i, got, w)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != len(want) {
		t.Errorf("build left %d entries besides its splits (%v)", len(ents)-len(want), err)
	}
}

// TestAlphabetByteIdentity holds every alphabet revbfs offers to the
// sequential oracle: the unreduced expansion path (every function
// stored, no canonicalization), a 103-element alphabet, a restricted
// architecture, and a weighted alphabet whose levels expand from
// several source levels. Each builds at one and three workers, under
// the default budget and under a small spilling one.
func TestAlphabetByteIdentity(t *testing.T) {
	quantum, err := bfs.WeightedGateAlphabet(gate.Gate.QuantumCost)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		a           *bfs.Alphabet
		k           int
		noReduction bool
		spill       int64   // the small budget
		counts      []int64 // paper counts of levels 0…k, when published
	}{
		{"gates-unreduced", bfs.GateAlphabet(), 2, true, 1 << 16, bfs.GateFullCounts},
		{"linear-unreduced", bfs.LinearAlphabet(), 4, true, 1 << 15, bfs.LinearCounts},
		{"layers", bfs.LayerAlphabet(), 3, false, 1 << 16, nil},
		{"lnn-unreduced", bfs.LNNAlphabet(), 4, true, 1 << 17, nil},
		{"quantum", quantum, 7, false, 1 << 16, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := referenceFile(t, tc.a, tc.k, tc.noReduction)
			for _, budget := range []int64{0, tc.spill} {
				for _, workers := range []int{1, 3} {
					dir := t.TempDir()
					out := filepath.Join(dir, "out.rvt")
					stats, err := Build(Options{
						Alphabet: tc.a, K: tc.k, NoReduction: tc.noReduction,
						WorkDir:   filepath.Join(dir, "work"),
						MemBudget: budget,
						Workers:   workers,
						OutPath:   out,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(mustRead(t, out), ref) {
						t.Errorf("budget %d, workers %d: store differs from the sequential build", budget, workers)
					}
					for c, want := range tc.counts[:min(len(tc.counts), tc.k+1)] {
						if stats.LevelCounts[c] != want {
							t.Errorf("level %d: %d entries, want %d", c, stats.LevelCounts[c], want)
						}
					}
				}
			}
		})
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
// LevelReps pin exists for. Reusing sealed runs of a partition other
// than the resume's plan would leave the frontier range between an old
// slab's end and a new slab's start silently unexpanded. The planner
// tiles a frontier evenly over its slab count, so two budgets that give
// the same count give the same partition: a crash that seals the first
// two of three slabs, resumed under a larger budget that still plans
// three slabs, reuses both runs. A checkpoint that pins a different
// partition under the same count — resealed here by hand — must have
// its runs discarded and all three slabs re-expanded.
func TestResumeSameSlabCountDifferentPartition(t *testing.T) {
	a := bfs.GateAlphabet()
	const k = 4
	ref := referenceFile(t, a, k, false)

	// Level k's expansion plan over the known Table 4 level sizes: with
	// Workers 1, planSlabs yields ceil(T/n) reps for the n slabs of
	// budget/2/slabRepBytes reps.
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

	for _, tc := range []struct {
		name     string
		reseal   bool  // pin repsB in the checkpoint
		expanded int64 // level-k slabs the resume expands
	}{{"same partition", false, 1}, {"pinned partition differs", true, 3}} {
		t.Run(tc.name, func(t *testing.T) {
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
			manPath := filepath.Join(work, ManifestName)
			man, err := tablesio.ReadManifestFile(manPath)
			if err != nil {
				t.Fatal(err)
			}
			// Guard the hazard preconditions, so planSlabs drift cannot
			// quietly turn this into a no-op test.
			if man.LevelSlabs != 3 || man.LevelReps != repsA {
				t.Fatalf("crashed partition %d×%d, want 3×%d", man.LevelSlabs, man.LevelReps, repsA)
			}
			if len(man.Runs) != 2 {
				t.Fatalf("crash sealed %d runs, want 2", len(man.Runs))
			}
			if tc.reseal {
				man.LevelReps = repsB
				if err := tablesio.WriteManifestFile(manPath, man); err != nil {
					t.Fatal(err)
				}
			}

			var expanded atomic.Int64
			opts.FailPoint = nil
			opts.Resume = true
			opts.MemBudget = repsB * 2 * perRepBytes
			opts.Progress = func(ev ProgressEvent) {
				if ev.Phase == "expand" && ev.Level == k && !ev.Done {
					expanded.Add(1)
				}
			}
			stats, err := Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := expanded.Load(); got != tc.expanded {
				t.Errorf("resume expanded %d level-%d slabs, want %d", got, k, tc.expanded)
			}
			if stats.LevelCounts[k] != bfs.GateReducedCounts[k] {
				t.Errorf("level %d count %d, want %d (reused runs left a frontier gap)",
					k, stats.LevelCounts[k], bfs.GateReducedCounts[k])
			}
			if !bytes.Equal(mustRead(t, out), ref) {
				t.Fatal("resumed store differs from reference")
			}
		})
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

// TestResumeRejectsVersion1Checkpoint: a version-1 checkpoint's run and
// level files are in key order, not hash order, so a resume over one
// must fail with the typed version error and publish nothing — never
// merge its files as hash-ordered ones.
func TestResumeRejectsVersion1Checkpoint(t *testing.T) {
	dir := t.TempDir()
	work := filepath.Join(dir, "work")
	out := filepath.Join(dir, "out.rvt")
	opts := Options{
		Alphabet: bfs.GateAlphabet(), K: 4,
		WorkDir:   work,
		MemBudget: 1 << 17,
		OutPath:   out,
		FailPoint: func(stage string, level, slab int) error {
			if stage == "run" && level == 4 && slab == 1 {
				return errCrash
			}
			return nil
		},
	}
	if _, err := Build(opts); !errors.Is(err, errCrash) {
		t.Fatalf("crash build: got %v, want simulated crash", err)
	}
	// The version-1 envelope differed only in its magic: the same
	// fingerprint function covered the same payload.
	manPath := filepath.Join(work, ManifestName)
	raw := mustRead(t, manPath)
	if !bytes.HasPrefix(raw, []byte("RVTM2 ")) {
		t.Fatalf("manifest starts %q, want the RVTM2 envelope", raw[:6])
	}
	copy(raw, "RVTM1")
	if err := os.WriteFile(manPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	opts.FailPoint, opts.Resume = nil, true
	if _, err := Build(opts); !errors.Is(err, tablesio.ErrUnsupportedVersion) {
		t.Fatalf("resume over a version-1 checkpoint: got %v, want ErrUnsupportedVersion", err)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("resume over a version-1 checkpoint published a store (stat: %v)", err)
	}
}

// TestResumeUnderstatedCandidates: a checkpoint's run entries state
// their candidate counts, but only the run files' counts trailers are
// checked against the data. A resume whose manifest understates every
// count must still size the sequence sorter for the survivors it really
// gets — here more than the sorter holds, so it has to spill — and emit
// the byte-identical store.
func TestResumeUnderstatedCandidates(t *testing.T) {
	a := bfs.GateAlphabet()
	const k, budget = 4, 1 << 17
	ref := referenceFile(t, a, k, false)
	knobs := &builder{budget: budget, workers: 1}
	knobs.deriveKnobs()
	if bfs.GateReducedCounts[k] <= int64(knobs.seqBufPairs) {
		t.Fatalf("level %d's %d survivors fit the %d-pair sorter; the test needs a spill",
			k, bfs.GateReducedCounts[k], knobs.seqBufPairs)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "out.rvt")
	work := filepath.Join(dir, "work")
	var sealedAll atomic.Bool
	opts := Options{
		Alphabet: a, K: k,
		WorkDir:   work,
		MemBudget: budget,
		Workers:   1, // slabs seal in order, each checkpointed
		OutPath:   out,
		Progress: func(ev ProgressEvent) {
			if ev.Phase == "expand" && ev.Level == k && !ev.Done && ev.Slab == ev.Slabs {
				sealedAll.Store(true)
			}
		},
		// Crash after level k's last run seals, before its merge.
		FailPoint: func(stage string, level, _ int) error {
			if stage == "run" && level == k && sealedAll.Load() {
				return errCrash
			}
			return nil
		},
	}
	if _, err := Build(opts); !errors.Is(err, errCrash) {
		t.Fatalf("crash build: got %v, want simulated crash", err)
	}
	manPath := filepath.Join(work, ManifestName)
	man, err := tablesio.ReadManifestFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Runs) == 0 || man.LevelSlabs != len(man.Runs) {
		t.Fatalf("checkpoint holds %d of %d level-%d runs, want all", len(man.Runs), man.LevelSlabs, k)
	}
	for i := range man.Runs {
		man.Runs[i].Candidates = 0
	}
	if err := tablesio.WriteManifestFile(manPath, man); err != nil {
		t.Fatal(err)
	}
	opts.FailPoint, opts.Progress, opts.Resume = nil, nil, true
	if _, err := Build(opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, out), ref) {
		t.Fatal("resumed store differs from reference")
	}
}

// TestPlanLevelRejectsSeqOverflow: a level whose sequence numbers would
// not fit the 48 bits a spill candidate carries fails typed at
// planning, before any candidate is made.
func TestPlanLevelRejectsSeqOverflow(t *testing.T) {
	b, err := newBuilder(Options{Alphabet: bfs.GateAlphabet(), K: 2, WorkDir: filepath.Join(t.TempDir(), "work")})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.setupWorkDir(); err != nil {
		t.Fatal(err)
	}
	// Level 1 claims 2^42 representatives; at a stride of 64 level 2
	// needs 2^48 sequence numbers, exactly the most that fit.
	b.man.Levels = append(b.man.Levels, tablesio.ManifestLevel{Level: 1, Entries: 1 << 42})
	if _, err := b.planLevel(2); err != nil {
		t.Fatalf("2^48 sequence numbers: %v", err)
	}
	b.man.Levels[1].Entries++
	if _, err := b.planLevel(2); !errors.Is(err, ErrSeqOverflow) {
		t.Fatalf("2^48 + 64 sequence numbers: got %v, want ErrSeqOverflow", err)
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
// artifacts unless KeepWork is set, and the work directory itself when
// the build made it — also when a resume finishes the build. A
// directory the caller made stays, empty.
func TestWorkDirCleanup(t *testing.T) {
	a := bfs.GateAlphabet()
	dir := t.TempDir()
	work := filepath.Join(dir, "work")
	if _, err := Build(Options{Alphabet: a, K: 2, WorkDir: work,
		OutPath: filepath.Join(dir, "out.rvt")}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(work); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("work directory the build made survived it (stat: %v)", err)
	}

	resumed := filepath.Join(dir, "resumed")
	opts := Options{Alphabet: a, K: 3, WorkDir: resumed, OutPath: filepath.Join(dir, "out2.rvt"),
		FailPoint: func(stage string, level, _ int) error {
			if stage == "level" && level == 2 {
				return errCrash
			}
			return nil
		}}
	if _, err := Build(opts); !errors.Is(err, errCrash) {
		t.Fatalf("crash build: got %v, want simulated crash", err)
	}
	opts.FailPoint, opts.Resume = nil, true
	if _, err := Build(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(resumed); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("work directory of a resumed build survived it (stat: %v)", err)
	}

	mine := filepath.Join(dir, "mine")
	if err := os.Mkdir(mine, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(Options{Alphabet: a, K: 2, WorkDir: mine,
		OutPath: filepath.Join(dir, "out3.rvt")}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(mine)
	if err != nil {
		t.Fatalf("caller's work directory: %v", err)
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

// TestBuildAllocatesOnce: the workspace makes a build allocate its
// working memory about once. One default-budget k=6 build shaped like
// the benchmark workload (8 shards, the full store plus 2 splits)
// allocated 266 MB when every level and phase made its own buffers; it
// must now allocate at most 60% of that, and still reproduce Table 4.
// The count is the heap's allocation plus every byte the workspace
// mapped outside the heap, so moving a buffer off the heap does not
// pass it by itself.
func TestBuildAllocatesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("k=6 build in -short mode")
	}
	const k = 6
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mapped := mappedBytes.Load()
	stats, err := Build(Options{
		Alphabet: bfs.GateAlphabet(), K: k,
		WorkDir: filepath.Join(dir, "work"),
		Shards:  8,
		OutPath: filepath.Join(dir, "k6.tables"),
		SplitN:  2,
		SplitPath: func(i int) string {
			return filepath.Join(dir, fmt.Sprintf("k6.tables.%dof2", i))
		},
	})
	runtime.ReadMemStats(&after)
	mapped = mappedBytes.Load() - mapped
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c <= k; c++ {
		if stats.LevelCounts[c] != bfs.GateReducedCounts[c] {
			t.Errorf("level %d: %d reps, want %d (paper Table 4)", c, stats.LevelCounts[c], bfs.GateReducedCounts[c])
		}
	}
	heap := after.TotalAlloc - before.TotalAlloc
	alloc := heap + uint64(mapped)
	t.Logf("allocated %.1f MB (%.1f MB on the heap, %.1f MB mapped), peak tracked %.1f MiB",
		float64(alloc)/1e6, float64(heap)/1e6, float64(mapped)/1e6, float64(stats.PeakTrackedBytes)/(1<<20))
	const limit = 266e6 * 6 / 10
	if alloc > limit {
		t.Errorf("k=6 build allocated %.1f MB, over %.1f MB (60%% of the 266 MB of per-phase buffers)", float64(alloc)/1e6, limit/1e6)
	}
}

// TestPeakTrackedWithinBudget: with the radix scratch buffers charged,
// a k=5 build at the default budget still peaks within the budget, and
// the ledger is exactly the workspace arena: after level k's expansion
// it covers a whole slab buffer plus its sort scratch — the scratch is
// on the ledger, not beside it.
func TestPeakTrackedWithinBudget(t *testing.T) {
	a := bfs.GateAlphabet()
	const k = 5
	dir := t.TempDir()
	// Four workers: every merge and emission worker carves its own read,
	// probe and shard buffers, so the arena — and with it the ledger,
	// which is the arena — grows with the count.
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
	defer b.ws.release()
	if err := b.setupWorkDir(); err != nil {
		t.Fatal(err)
	}
	for c := 1; c < k; c++ {
		if err := b.buildLevel(c); err != nil {
			t.Fatal(err)
		}
	}
	p, err := b.planLevel(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.expandLevel(k, p); err != nil {
		t.Fatal(err)
	}
	ws := 8 * int64(len(b.ws.arena))
	if got := b.stats().PeakTrackedBytes; got != ws {
		t.Errorf("ledger %d bytes, want the workspace's %d", got, ws)
	}
	if slab := p.repsPerSlab * slabRepBytes(p.maxStride); ws < slab {
		t.Errorf("after level %d expansion the workspace holds %d bytes, below one slab with its sort scratch (%d)", k, ws, slab)
	}
}

// TestWorkspaceUnmapsOutgrownBlocks: a carve that outgrows the arena
// unmaps the old block before it maps the larger one, so however often
// it grows one block stays mapped, of the largest carve's size, and
// release leaves none. Under the race detector the arena is a heap
// allocation and nothing is mapped.
func TestWorkspaceUnmapsOutgrownBlocks(t *testing.T) {
	blocks, bytes := mappedBlocks.Load(), mappedBytes.Load()
	var ws workspace
	var grown int64
	for _, n := range []int{10, 1000, 100, 1 << 20} {
		if 8*int64(n) > ws.bytes() {
			grown += 8 * int64(n)
		}
		var v []uint64
		if err := ws.carve(func(c *carver) { v = view[uint64](c, n) }); err != nil {
			t.Fatal(err)
		}
		v[0], v[n-1] = 1, 1
		want := blocks
		if arenaOffHeap {
			want++
		}
		if got := mappedBlocks.Load(); got != want {
			t.Errorf("after a %d-word carve %d blocks mapped, want %d", n, got, want)
		}
	}
	if ws.bytes() != 8<<20 {
		t.Errorf("arena of %d bytes, want the largest carve's %d", ws.bytes(), 8<<20)
	}
	if !arenaOffHeap {
		grown = 0
	}
	if got := mappedBytes.Load() - bytes; got != grown {
		t.Errorf("mapped %d bytes, want %d: a block per growth", got, grown)
	}
	if err := ws.release(); err != nil {
		t.Fatal(err)
	}
	if got := mappedBlocks.Load(); got != blocks || ws.bytes() != 0 {
		t.Errorf("after release %d blocks mapped and a %d-byte arena, want %d and 0", got, ws.bytes(), blocks)
	}
}

// TestBuildResidentFollowsLedger: with the workspace arena outside the
// Go heap and each outgrown block unmapped, a build's peak resident set
// is its ledger plus a bounded remainder: the runtime and the test
// binary, a split cut's one-shard buffers, and the store pages emission
// probes through a mapping. The test re-runs itself in a fresh process
// for one default-budget k=6 build shaped like the benchmark workload
// (8 shards, 2 workers, the full store plus 2 splits) and reads that
// process's peak resident set (VmHWM). When the arena's outgrown blocks
// stayed behind as heap garbage, the peak stood 38–40 MB over the
// 107.3 MB ledger; with them unmapped it stands about 22 MB over.
func TestBuildResidentFollowsLedger(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads VmHWM from /proc/self/status")
	}
	if testing.Short() {
		t.Skip("k=6 build in -short mode")
	}
	if !arenaOffHeap {
		t.Skip("the arena is a heap allocation under the race detector")
	}
	const env = "EXTBUILD_RESIDENT_DIR"
	if dir := os.Getenv(env); dir != "" {
		stats, err := Build(Options{
			Alphabet: bfs.GateAlphabet(), K: 6,
			WorkDir: filepath.Join(dir, "work"),
			Shards:  8,
			Workers: 2,
			OutPath: filepath.Join(dir, "k6.tables"),
			SplitN:  2,
			SplitPath: func(i int) string {
				return filepath.Join(dir, fmt.Sprintf("k6.tables.%dof2", i))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		status, err := os.ReadFile("/proc/self/status")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("tracked %d\n%s", stats.PeakTrackedBytes, status)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBuildResidentFollowsLedger$", "-test.count=1")
	cmd.Env = append(os.Environ(), env+"="+t.TempDir())
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build process: %v\n%s", err, out)
	}
	var tracked, hwmKB int64
	for _, line := range strings.Split(string(out), "\n") {
		fmt.Sscanf(line, "tracked %d", &tracked)
		fmt.Sscanf(line, "VmHWM: %d kB", &hwmKB)
	}
	if tracked == 0 || hwmKB == 0 {
		t.Fatalf("build process reported no ledger or no VmHWM:\n%s", out)
	}
	gap := 1024*hwmKB - tracked
	t.Logf("peak resident %.1f MB, ledger %.1f MB: %.1f MB beside it", float64(1024*hwmKB)/1e6, float64(tracked)/1e6, float64(gap)/1e6)
	const bound = 28e6
	if gap > bound {
		t.Errorf("peak resident set %.1f MB over the ledger, above %.0f MB", float64(gap)/1e6, bound/1e6)
	}
}

// TestMergeReadBuffersWithinQuarter: a level merge reads each run and
// each prior level file through a buffer per merge worker, and those
// buffers get a quarter of the budget, so the level files count against
// the fan-in: the runs are consolidated down to what they leave of it.
// At k=6 with 2 workers a 64 MiB budget expands level 6 in 14 slabs;
// counting the runs alone, the merge read 20 inputs through 512 KiB
// buffers per worker, 20 MiB against a 16 MiB quarter. At 16 MiB level
// 6 has 50 slabs, which consolidate below the fan-in either way.
func TestMergeReadBuffersWithinQuarter(t *testing.T) {
	if testing.Short() {
		t.Skip("k=6 build in -short mode")
	}
	const k = 6
	for _, budget := range []int64{16 << 20, 64 << 20} {
		b, err := newBuilder(Options{Alphabet: bfs.GateAlphabet(), K: k, WorkDir: filepath.Join(t.TempDir(), "work"),
			MemBudget: budget, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer b.ws.release()
		if err := b.setupWorkDir(); err != nil {
			t.Fatal(err)
		}
		for c := 1; c < k; c++ {
			if err := b.buildLevel(c); err != nil {
				t.Fatal(err)
			}
		}
		p, err := b.planLevel(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.expandLevel(k, p); err != nil {
			t.Fatal(err)
		}
		in, err := b.openLevelInputs(k)
		if err != nil {
			t.Fatal(err)
		}
		inputs := len(in.runs) + len(in.priors)
		reads := int64(inputs) * int64(min(b.workers, b.shards)) * int64(b.fileBufBytes(in.runs, in.priors))
		in.close()
		t.Logf("%d MiB: %d slabs → %d runs + %d level files, %.2f MiB of read buffers",
			budget>>20, p.slabCount, len(in.runs), len(in.priors), float64(reads)/(1<<20))
		if reads > budget/4 {
			t.Errorf("%d MiB budget: level %d merge reads %d inputs through %.2f MiB of buffers, over its %.2f MiB quarter",
				budget>>20, k, inputs, float64(reads)/(1<<20), float64(budget/4)/(1<<20))
		}
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
// workers as shards (and a count that divides neither), under the
// default budget and under 16 KiB, which forces spilling, run
// consolidation and the external sequence sort. The full store and all
// 4 splits must byte-match the in-memory build, and the level artifacts
// must carry the same fingerprints whatever the worker count.
func TestWorkerCountInvariance(t *testing.T) {
	a := bfs.GateAlphabet()
	const k, n = 4, 4
	var ref []byte
	var refs [][]byte
	withEightShards(t, func() {
		ref = referenceFile(t, a, k, false)
		refs = referenceSplits(t, a, k, n)
	})
	for _, budget := range []struct {
		name  string
		bytes int64
	}{{"default budget", 0}, {"16 KiB budget", 1 << 14}} {
		t.Run(budget.name, func(t *testing.T) {
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
						t.Errorf("workers=%d: split %d differs from SaveSplitFiles", workers, i)
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

// TestJoinPresentPropagatesReadErrors: joinPresent is the one check that
// keeps a key of an earlier level out of a new one, so a prior level
// that cannot be read must fail the merge. Were the read error taken as
// the end of the level's segment, the keys past it would be marked
// absent and published again as the new level's, a store with
// duplicate keys. The probe here is a whole segment of a completed
// level, so every key is present: joined against the intact file each
// is marked so, and joined against the file cut mid-segment the join
// returns the truncation and marks none of them absent.
func TestJoinPresentPropagatesReadErrors(t *testing.T) {
	const k = 3
	work := filepath.Join(t.TempDir(), "work")
	if _, err := Build(Options{Alphabet: bfs.GateAlphabet(), K: k, WorkDir: work, Shards: 8, KeepWork: true}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(work, srtName(k))
	sf, err := openSegFile(path, 8, srtRecordBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.f.Close()
	s := 0
	for i, n := range sf.counts {
		if n > sf.counts[s] {
			s = i
		}
	}
	seg, err := sf.readSegment(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	chunk := &probeChunk{}
	for rec := seg; len(rec) > 0; rec = rec[srtRecordBytes:] {
		chunk.keys = append(chunk.keys, binary.LittleEndian.Uint64(rec))
	}
	if len(chunk.keys) < 4 {
		t.Fatalf("level %d shard %d holds %d keys, too few to cut mid-segment", k, s, len(chunk.keys))
	}
	// join reads the segment through a one-record buffer, so the cut is
	// met by an advance inside joinPresent, not by the first read.
	join := func(fill bool) error {
		chunk.present = make([]bool, len(chunk.keys))
		for i := range chunk.present {
			chunk.present[i] = fill
		}
		r := newSegReader(make([]byte, srtRecordBytes))
		if err := r.enter(sf, s); err != nil {
			t.Fatal(err)
		}
		return joinPresent(chunk, []*segReader{r})
	}
	if err := join(false); err != nil {
		t.Fatal(err)
	}
	for i, hit := range chunk.present {
		if !hit {
			t.Fatalf("intact level: key %d of %d marked absent", i, len(chunk.keys))
		}
	}

	cut := sf.offs[s] + int64(len(chunk.keys)/2)*srtRecordBytes + srtRecordBytes/2
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	err = join(true)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("join over a level cut mid-segment returned %v, want an error wrapping io.ErrUnexpectedEOF", err)
	}
	for i, hit := range chunk.present {
		if !hit {
			t.Fatalf("cut level: key %d of %d marked absent", i, len(chunk.keys))
		}
	}
}

// TestReaderAdvanceAllocs: the merge readers advance once per record,
// so they must not allocate per record.
func TestReaderAdvanceAllocs(t *testing.T) {
	dir := t.TempDir()
	const n = 1000
	cands := make([]cand, n)
	for i := range cands {
		cands[i] = newCand(uint64(i+1), uint16(i), uint64(i))
	}
	buf := make([]byte, 4096)
	if _, err := writeRunFile(dir, "r.run", cands, 1, buf); err != nil {
		t.Fatal(err)
	}
	af, err := newAtomicFile(dir, "l.srt", buf)
	if err != nil {
		t.Fatal(err)
	}
	var rec [srtRecordBytes]byte
	for _, c := range cands {
		putSrtRecord(rec[:], c.key, c.val())
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
		r := newSegReader(make([]byte, 4096))
		if err := r.enter(sf, 0); err != nil {
			t.Fatal(err)
		}
		check(f.name, r.advance)
	}
	sr, err := openSeqSpill(filepath.Join(dir, "s.spill"), make([]byte, 4096))
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
// the Progress stream (the interval before each event goes to the
// event's phase), the bytes allocated per build, and the ledger's peak.
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
			b.ReportAllocs()
			var peak int64
			for b.Loop() {
				dir := b.TempDir()
				last = 0
				stats, err := Build(Options{
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
				})
				if err != nil {
					b.Fatal(err)
				}
				peak = stats.PeakTrackedBytes
			}
			for _, name := range []string{"expand", "merge", "emit"} {
				b.ReportMetric(phase[name].Seconds()/float64(b.N), name+"_s")
			}
			b.ReportMetric(float64(peak)/(1<<20), "peak_tracked_MB")
		})
	}
}
