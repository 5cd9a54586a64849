package tablesio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bfs"
	"repro/internal/tables"
)

// The splitter's contract: the n split stores of a table set hold
// disjoint hash ranges that together cover every entry, each answers
// its range byte-identically to the full table (values and sparse level
// order included), and nothing but an opted-in loader will touch one.
func TestSplitRoundTrip(t *testing.T) {
	res, err := bfs.Search(bfs.GateAlphabet(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	splits := cutStore(t, fullStore(t, res), n)
	for _, disableMmap := range []bool{false, true} {
		ctx := context.Background()
		totalLocal := 0
		for i, p := range splits {
			if _, _, err := LoadFile(p, bfs.GateAlphabet(), &LoadOptions{DisableMmap: disableMmap}); !errors.Is(err, ErrSplitStore) {
				t.Fatalf("plain load of a split store: err = %v, want ErrSplitStore", err)
			}
			opts := &LoadOptions{AllowSplit: true, VerifyContent: true, DisableMmap: disableMmap}
			sres, info, err := LoadFile(p, bfs.GateAlphabet(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if info.Split == nil || info.Split.N != n || info.Split.I != i {
				t.Fatalf("split info = %+v", info.Split)
			}
			totalLocal += info.Entries
			part, err := tables.NewPartial(sres, info.Split)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := part.Meta().Entries, res.TotalStored(); got != want {
				t.Fatalf("partial meta declares %d entries, global is %d", got, want)
			}
			lo, hi := part.OwnedRange()
			for c := 0; c <= res.MaxCost; c++ {
				lv := res.Level(c)
				for j := 0; j < lv.Len(); j++ {
					k := uint64(lv.At(j))
					if !tables.KeyInRange(k, lo, hi) {
						continue
					}
					var v [1]uint16
					var f [1]bool
					if err := part.LookupBatch(ctx, []uint64{k}, v[:], f[:]); err != nil {
						t.Fatal(err)
					}
					want, _ := res.LookupRaw(k)
					if !f[0] || v[0] != want {
						t.Fatalf("range %d key %#x: got (%#x, %v), want %#x", i, k, v[0], f[0], want)
					}
				}
			}
			// A key outside the owned range must fail typed, not miss.
			for c := 0; c <= res.MaxCost; c++ {
				lv := res.Level(c)
				for j := 0; j < lv.Len(); j++ {
					if k := uint64(lv.At(j)); !tables.KeyInRange(k, lo, hi) {
						var v [1]uint16
						var f [1]bool
						if err := part.LookupBatch(ctx, []uint64{k}, v[:], f[:]); !errors.Is(err, tables.ErrNotOwned) {
							t.Fatalf("out-of-range lookup: err = %v, want ErrNotOwned", err)
						}
						c = res.MaxCost + 1
						break
					}
				}
			}
			// Sparse level reads return (global position, key) pairs that
			// match the full table's level order exactly.
			for c := 0; c <= res.MaxCost; c++ {
				gn := res.LevelLen(c)
				pos := make([]uint32, gn)
				keys := make([]uint64, gn)
				cnt, err := part.LevelKeysSparse(ctx, c, 0, gn, lo, hi, pos, keys)
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < cnt; j++ {
					if got, want := keys[j], uint64(res.Level(c).At(int(pos[j]))); got != want {
						t.Fatalf("sparse level %d pair %d: key %#x at global %d, full table has %#x", c, j, got, pos[j], want)
					}
				}
			}
			sres.Frozen.Close()
		}
		if totalLocal != res.TotalStored() {
			t.Fatalf("splits hold %d entries total, full table %d", totalLocal, res.TotalStored())
		}
	}
}

// Reader-based Load must never hand back a split store: it has no way
// to return the range metadata, so both the default and the (invalid)
// opted-in path reject.
func TestSplitRejectedByReaderLoad(t *testing.T) {
	res, err := bfs.Search(bfs.GateAlphabet(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(cutStore(t, fullStore(t, res), 2)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(blob), bfs.GateAlphabet()); !errors.Is(err, ErrSplitStore) {
		t.Fatalf("Load: err = %v, want ErrSplitStore", err)
	}
	if _, err := LoadWithOptions(bytes.NewReader(blob), bfs.GateAlphabet(), &LoadOptions{AllowSplit: true}); err == nil {
		t.Fatal("LoadWithOptions with AllowSplit should refuse (metadata would be dropped)")
	}
}

// A result loaded from a split store holds one hash range. Saving it
// must fail rather than publish a full-store header over a partial
// table (which the mmap path would then serve as a full table missing
// every other range), and a split store offered as the source of a cut
// must fail too, publishing nothing.
func TestSaveRejectsSplitSource(t *testing.T) {
	res, err := bfs.Search(bfs.GateAlphabet(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := cutStore(t, fullStore(t, res), 4)[1]
	sres, _, err := LoadFile(src, bfs.GateAlphabet(), &LoadOptions{AllowSplit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sres.Frozen.Close()
	full := filepath.Join(dir, "resaved")
	if err := SaveFile(full, sres); err == nil {
		t.Fatal("SaveFile of a split-loaded result succeeded")
	}
	if _, err := os.Stat(full); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed SaveFile published %s: %v", full, err)
	}
	resplit := func(i int) string { return filepath.Join(dir, fmt.Sprintf("resplit%d", i)) }
	if err := SaveSplitFiles(src, 2, resplit); !errors.Is(err, ErrSplitStore) {
		t.Fatalf("cut of a split store: err = %v, want ErrSplitStore", err)
	}
	for i := range 2 {
		if _, err := os.Stat(resplit(i)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("failed cut published %s: %v", resplit(i), err)
		}
	}
}

// SaveSplitFiles writes splits only: n = 1 is the full store, which
// SaveFile writes, n must be a power of two in [2, 65536], and every
// range needs a destination. A k = 2 table has 38 entries, too few for
// 65536 ranges; that cut fails before it publishes any of them.
func TestSaveSplitFileArgs(t *testing.T) {
	res, err := bfs.Search(bfs.GateAlphabet(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := fullStore(t, res)
	dir := t.TempDir()
	path := func(i int) string { return filepath.Join(dir, fmt.Sprintf("split%d", i)) }
	for _, n := range []int{0, 1, 3, 1 << 16, 1 << 17} {
		if err := SaveSplitFiles(full, n, path); err == nil {
			t.Fatalf("SaveSplitFiles(n=%d) succeeded", n)
		}
	}
	if err := SaveSplitFiles(full, 1, path); !strings.Contains(fmt.Sprint(err), "SaveFile") {
		t.Fatalf("n = 1: err = %v, want a pointer to SaveFile", err)
	}
	if err := SaveSplitFiles(full, 2, nil); err == nil {
		t.Fatal("SaveSplitFiles without destinations succeeded")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("rejected cuts published %d files", len(ents))
	}
}

// TestSaveSplitFileCorruptSource: a cut checks its source's section
// fingerprints once, before writing any range, so one flipped byte in
// the keys, values or level index fails the 2- and 16-way cuts with
// ErrCorrupt and publishes no file of either set.
func TestSaveSplitFileCorruptSource(t *testing.T) {
	_, blob := savedV2(t, 4)
	h, _, err := parseHeaderV2(blob)
	if err != nil {
		t.Fatal(err)
	}
	mid := func(off, size uint64) uint64 { return off + size/2 }
	for _, sec := range []struct {
		name string
		at   uint64
	}{
		{"keys", mid(h.keysOff, h.valsOff-h.keysOff)},
		{"vals", mid(h.valsOff, h.idxOff-h.valsOff)},
		{"index", mid(h.idxOff, h.entryCount*4)},
	} {
		bad := bytes.Clone(blob)
		bad[sec.at] ^= 0x10
		src := writeTemp(t, bad)
		dir := t.TempDir()
		for _, n := range []int{2, 16} {
			dst := func(i int) string { return filepath.Join(dir, fmt.Sprintf("split%d", i)) }
			if err := SaveSplitFiles(src, n, dst); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s flipped, %d-way cut: err = %v, want ErrCorrupt", sec.name, n, err)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Errorf("%s flipped, %d-way cut left %d files behind", sec.name, n, len(ents))
			}
		}
	}
}

// TestSaveSplitFileBoundedMemory: a cut reads its source through
// bounded buffers (one shard's arrays and one index chunk) that both
// halves share, so halving a k = 5 store allocates less than one half's
// own slot arrays. Copying the range's entries onto the heap and laying
// them out there, as a cut from a loaded table would, allocates several
// times that.
func TestSaveSplitFileBoundedMemory(t *testing.T) {
	res, err := bfs.Search(bfs.GateAlphabet(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := fullStore(t, res)
	dir := t.TempDir()
	dst := func(i int) string { return filepath.Join(dir, fmt.Sprintf("split%d", i)) }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := SaveSplitFiles(full, 2, dst); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	f, err := os.Open(dst(0))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := readHeaderPage(f)
	if err != nil {
		t.Fatal(err)
	}
	slotBytes := h.shardCount * uint32(h.slotsPerShard) * 10
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("cut allocated %d B; the split's slot arrays are %d B", alloc, slotBytes)
	if alloc >= uint64(slotBytes) {
		t.Fatalf("cut allocated %d B, not less than the split's %d B of slot arrays", alloc, slotBytes)
	}
}

// cutStore cuts the full store at src n ways and returns the splits'
// paths, range i at index i.
func cutStore(t testing.TB, src string, n int) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, n)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("split%dof%d", i, n))
	}
	if err := SaveSplitFiles(src, n, func(i int) string { return paths[i] }); err != nil {
		t.Fatal(err)
	}
	return paths
}

// fullStore saves res as a full store and returns its path: the source
// every cut reads.
func fullStore(t testing.TB, res *bfs.Result) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "full.tables")
	if err := SaveFile(path, res); err != nil {
		t.Fatal(err)
	}
	return path
}
