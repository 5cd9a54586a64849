package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bfs"
	"repro/internal/extbuild"
)

// tableCounts is paper Table 4's reduced column for sizes 0…6: the
// number of symmetry classes of each minimal gate count.
var tableCounts = []int64{1, 4, 33, 425, 6538, 101983, 1482686}

// storeShards pins the hash-shard count of every store the benchmark
// builds, so the stored bytes (and their digests below) do not depend
// on the core count of the machine.
const storeShards = 8

// splitN is the fleet's range count: the k=6 store is also emitted as
// two split files, one per shard server.
const splitN = 2

// Digests of the pinned inputs, as extbuild emits them with
// storeShards shards. A store that does not match is rebuilt once; a
// fresh build that does not match is a failed benchmark.
var pinned = map[string]string{
	"k6.tables":      "198fc520cddb12bd54012e584cdb53843794b90e95f234e876c344c86df6c322",
	"k6.tables.0of2": "9f0446db8f14e3d07c5aad49be1c4fd0517ef30ea1d55c6bcfc81367e118aabc",
	"k6.tables.1of2": "346bda1f351cb4e2d2bf8d0b891b567108b518cd01bbc3795f11be14cf05cdb6",
	"k3.tables":      "4572a6420571aab9af382c6366b4819c3d7c3dcd31d55240640d4a508faa5c1a",
}

func storePath(dir, name string) string { return filepath.Join(dir, "stores", name) }

func splitName(i int) string { return fmt.Sprintf("k6.tables.%dof%d", i, splitN) }

// buildOptions are the extbuild options of every k=6 build the
// benchmark makes: the pinned input and the build workloads alike.
func buildOptions(k int, work, out string, budget int64, split bool) extbuild.Options {
	o := extbuild.Options{
		Alphabet:  bfs.GateAlphabet(),
		K:         k,
		WorkDir:   work,
		MemBudget: budget,
		Shards:    storeShards,
		OutPath:   out,
	}
	if split {
		o.SplitN = splitN
		o.SplitPath = func(i int) string {
			return filepath.Join(filepath.Dir(out), fmt.Sprintf("%s.%dof%d", filepath.Base(out), i, splitN))
		}
	}
	return o
}

// checkCounts compares a build's level counts with Table 4.
func checkCounts(st *extbuild.Stats, k int) error {
	if len(st.LevelCounts) != k+1 {
		return fmt.Errorf("build reported %d levels, want %d", len(st.LevelCounts), k+1)
	}
	for c, n := range st.LevelCounts {
		if n != tableCounts[c] {
			return fmt.Errorf("level %d holds %d classes, Table 4 says %d", c, n, tableCounts[c])
		}
	}
	return nil
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkDigests verifies each named file against its pinned digest.
func checkDigests(dir string, names ...string) error {
	for _, name := range names {
		got, err := fileDigest(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if want := pinned[name]; got != want {
			return fmt.Errorf("%s: sha256 %s, pinned %s", name, got, want)
		}
	}
	return nil
}

// prepare makes sure the pinned stores exist under dir/stores and
// match their digests, building them with extbuild when they are
// missing or stale.
func prepare(dir string) error {
	stores := filepath.Join(dir, "stores")
	if err := os.MkdirAll(stores, 0o755); err != nil {
		return err
	}
	k6 := []string{"k6.tables", splitName(0), splitName(1)}
	for _, in := range []struct {
		k     int
		names []string
	}{{6, k6}, {3, []string{"k3.tables"}}} {
		if checkDigests(stores, in.names...) == nil {
			continue
		}
		work := filepath.Join(dir, "tmp", fmt.Sprintf("prepare-k%d", in.k))
		st, err := extbuild.Build(buildOptions(in.k, work, filepath.Join(stores, in.names[0]), 0, len(in.names) > 1))
		if err != nil {
			return fmt.Errorf("building k=%d store: %w", in.k, err)
		}
		os.RemoveAll(work)
		if err := checkCounts(st, in.k); err != nil {
			return fmt.Errorf("k=%d store: %w", in.k, err)
		}
		if err := checkDigests(stores, in.names...); err != nil {
			return fmt.Errorf("k=%d store: %w", in.k, err)
		}
	}
	return nil
}
