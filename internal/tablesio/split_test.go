package tablesio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	for _, disableMmap := range []bool{false, true} {
		const n = 4
		dir := t.TempDir()
		ctx := context.Background()
		totalLocal := 0
		for i := 0; i < n; i++ {
			p := filepath.Join(dir, "split")
			if err := SaveSplitFile(p, res, n, i); err != nil {
				t.Fatal(err)
			}
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
	path := filepath.Join(t.TempDir(), "split")
	if err := SaveSplitFile(path, res, 2, 0); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
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
// every other range), and re-splitting it must fail too.
func TestSaveRejectsSplitSource(t *testing.T) {
	res, err := bfs.Search(bfs.GateAlphabet(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "k4.1of4")
	if err := SaveSplitFile(src, res, 4, 1); err != nil {
		t.Fatal(err)
	}
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
	if err := SaveSplitFile(filepath.Join(dir, "resplit"), sres, 2, 0); err == nil {
		t.Fatal("SaveSplitFile of a split-loaded result succeeded")
	}
}

// SaveSplitFile writes splits only: n = 1 is the full store, which
// SaveFile writes, and n must be a power of two with i inside [0, n).
func TestSaveSplitFileArgs(t *testing.T) {
	res, err := bfs.Search(bfs.GateAlphabet(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "split")
	for _, c := range []struct{ n, i int }{{0, 0}, {1, 0}, {3, 0}, {2, 2}, {2, -1}} {
		if err := SaveSplitFile(path, res, c.n, c.i); err == nil {
			t.Fatalf("SaveSplitFile(n=%d, i=%d) succeeded", c.n, c.i)
		}
	}
	if err := SaveSplitFile(path, res, 1, 0); !strings.Contains(fmt.Sprint(err), "SaveFile") {
		t.Fatalf("n = 1: err = %v, want a pointer to SaveFile", err)
	}
}
