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
// store at k = 3 and k = 4, and of each split store cut from the k = 4
// store 4, 8 and 16 ways. The digests are constants recorded outside
// the writers, so a change to the shared encoder that moves a single
// byte fails here even when every writer and reader agrees with it.
// The k = 4 store has 8 shards when GOMAXPROCS ≤ 2 (the shard count
// bfs.Search picks grows with it), which these digests assume. The
// 8-way cut covers both ways a range is cut: ranges 0, 3, 5 and 6 have
// an emptier fullest shard than the store, so their shards are
// re-placed at fewer slots (22,912–23,328 B against 31,616–31,952 B
// for the copied ranges); every 16-way range is half a shard and
// re-placed.
func TestSaveFileDigests(t *testing.T) {
	want := map[string]string{
		"k3":        "4572a6420571aab9af382c6366b4819c3d7c3dcd31d55240640d4a508faa5c1a", // 18,240 B
		"k4":        "e77d01e52ea48e58c217e0a3e2560cd7d9f31036e408253b4b179118000cfa97", // 195,944 B
		"k4.0of4":   "ee59e4144348cd42ee3ae81b99692c7a88d316bb5441d79a1c2b7664ccf77150", // 58,608 B
		"k4.1of4":   "081fe45e516a211bd393fef3e90e501c20a850466d9ac799aea0f1c1f01f4735", // 59,264 B
		"k4.2of4":   "6beedc927cd90f4e169e3e742b78c0aef5bd9a3221bdbbef087974f92c0dbcc5", // 59,120 B
		"k4.3of4":   "7057d607e39d7632007a10c6a919c1958b70fae7cce0bcba5d0f64965e6512fb", // 59,248 B
		"k4.0of8":   "4b0c67caa2484a798d9c6899129c0102bc3ae1576e40efb7dd29f76acf62d127", // 22,912 B
		"k4.1of8":   "04c6642880050c85de0f716f7adab26a72cd6690dd6f570c359ac10e9d769115", // 31,616 B
		"k4.2of8":   "de3351237864a5eb511d709be386cf72c4cb1e76d897a3666a4bf67d664fba17", // 31,952 B
		"k4.3of8":   "cbe21c743be5c0d787982d17f48a390437956637e1a7504614aed9ab4274c7c1", // 23,216 B
		"k4.4of8":   "3078bcf89a3e4de5a91a422c26cce84b978585f7f0969a2e9ba7c86f66e79159", // 31,792 B
		"k4.5of8":   "59e674bfe2130048840053245329c841403eaf95b4cd5d92b3f9e52e48e3868e", // 23,232 B
		"k4.6of8":   "9b364d9dbc1bba2d9bb593f62bc06ae2613c9367f9bacfdc17f6d14a4891266f", // 23,328 B
		"k4.7of8":   "bdf8f4c84210e537ba5847a0eaf889732c4edec59ec4158ea245e20633e7a14d", // 31,824 B
		"k4.0of16":  "9c5e6753d141f2b7cf0a5b572b28f9db9229c49096c61fd3e125325f45445298", // 15,472 B
		"k4.1of16":  "2bc41e5a66f8943e5191bd4c5cd54ae1754f6489e3c9d8152712166f6bd13907", // 15,632 B
		"k4.2of16":  "6ccd1d43e878885bf5de5c9c1d2773661b011aa0522fd919090e01df56021947", // 15,696 B
		"k4.3of16":  "3361b134b8c7c84bd3201699824d0171ea24098365146e170a45d403349f75e0", // 20,016 B
		"k4.4of16":  "8d06b66a5a41f2bd3ae2b00cce390fafe97e9fd430d1342f58684fc83e92f9e8", // 20,144 B
		"k4.5of16":  "f479624b93eb239819b1d4c8508f70bbc91f3110a7462d842ba738c3fe81af33", // 20,000 B
		"k4.6of16":  "ed467bd3f19b1eeb2249e580e2d15597c604f4218d25e660bf1f52ca4895a89a", // 15,632 B
		"k4.7of16":  "8e4dddd2a196d832a0f8d6613f233f12433b4cf12db40672b6f512d5d64cdd0f", // 19,872 B
		"k4.8of16":  "ae70ee455c592ce1c54eab946a6bece7ff2c36b821dca9a7b7bf0c0a66a37475", // 19,936 B
		"k4.9of16":  "dd8dec39b50ce01ad934cfd25fcdbf4dddf4a0a8b774c8c0eb048402d15f6d12", // 20,048 B
		"k4.10of16": "d48346f681bf24399f5dfc5681ecc19d9ecb495c89efaaf89d5eb715d53ba799", // 15,568 B
		"k4.11of16": "777fe873d7f09bdf0d76ac162ed3c84d35e4673ac0af9c43842de50143ffbcee", // 19,952 B
		"k4.12of16": "b53c4e07e49375d93bc96f308bc48e07efec254553cf0e445022e85ba63363ae", // 15,632 B
		"k4.13of16": "6707f09181a7b223858be36e6bdd03320c05d0708abff79a006a2e6e2881ee63", // 20,000 B
		"k4.14of16": "0d8d8f58d45c2bc3b09a99fc9223863bf7f554f6c837368d929da528910f8118", // 20,176 B
		"k4.15of16": "a94a3a5c4f55f7f22a72b2ee623d8088e45551d5180c9c5c48988ec12b2e36e2", // 15,760 B
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
	}
	for _, n := range []int{4, 8, 16} {
		splits := cutStore(t, filepath.Join(dir, "k4"), n)
		for i, p := range splits {
			digest(fmt.Sprintf("k4.%dof%d", i, n), func(dst string) error { return os.Rename(p, dst) })
		}
	}
}
