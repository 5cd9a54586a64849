package tablesio

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bfs"
)

// TestSaveFileDigests pins the exact bytes the file writers publish for
// the sequential search's gate-alphabet tables: the SHA-256 of the full
// store at k = 3 and k = 4, and of each of the four split stores at
// k = 4. The digests are constants recorded outside the writer, so a
// change to the shared encoder that moves a single byte fails here even
// when every writer and reader agrees with it.
func TestSaveFileDigests(t *testing.T) {
	want := map[string]string{
		"k3":      "4572a6420571aab9af382c6366b4819c3d7c3dcd31d55240640d4a508faa5c1a", // 18,240 B
		"k4":      "e77d01e52ea48e58c217e0a3e2560cd7d9f31036e408253b4b179118000cfa97", // 195,944 B
		"k4.0of4": "ee59e4144348cd42ee3ae81b99692c7a88d316bb5441d79a1c2b7664ccf77150", // 58,608 B
		"k4.1of4": "081fe45e516a211bd393fef3e90e501c20a850466d9ac799aea0f1c1f01f4735", // 59,264 B
		"k4.2of4": "6beedc927cd90f4e169e3e742b78c0aef5bd9a3221bdbbef087974f92c0dbcc5", // 59,120 B
		"k4.3of4": "7057d607e39d7632007a10c6a919c1958b70fae7cce0bcba5d0f64965e6512fb", // 59,248 B
	}
	dir := t.TempDir()
	digest := func(name string, save func(path string) error) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := save(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: SHA-256 %s (%d bytes), want %s", name, got, len(b), want[name])
		}
	}
	for _, k := range []int{3, 4} {
		res, err := bfs.Search(bfs.GateAlphabet(), k, nil)
		if err != nil {
			t.Fatal(err)
		}
		digest(fmt.Sprintf("k%d", k), func(p string) error { return SaveFile(p, res) })
		if k != 4 {
			continue
		}
		const n = 4
		for i := 0; i < n; i++ {
			digest(fmt.Sprintf("k4.%dof%d", i, n), func(p string) error { return SaveSplitFile(p, res, n, i) })
		}
	}
}
