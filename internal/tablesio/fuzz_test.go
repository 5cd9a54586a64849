package tablesio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bfs"
	"repro/internal/tables"
)

// FuzzLoad feeds arbitrary byte streams to the loader. The invariant is
// total: corrupted magic, truncated streams, bit-flipped checksums,
// forged headers and wrong-alphabet fingerprints must all come back as
// errors — never a panic, and never an allocation proportional to a
// lying header field (the MaxEntries cap plus chunked level allocation
// bound memory by the actual stream length).
func FuzzLoad(f *testing.F) {
	// Format v1 corpus: the committed fixture and hostile variants of it.
	res, blob := v1Fixture(f)
	f.Add(blob)               // the valid stream
	f.Add(blob[:len(blob)/2]) // truncated mid-entries
	f.Add(blob[:7])           // truncated mid-header
	f.Add([]byte{})           // empty

	corrupt := func(pos int, bit uint) []byte {
		c := append([]byte(nil), blob...)
		c[pos] ^= 1 << bit
		return c
	}
	f.Add(corrupt(0, 3))           // magic
	f.Add(corrupt(3, 0))           // version byte
	f.Add(corrupt(12, 5))          // fingerprint
	f.Add(corrupt(len(blob)-1, 7)) // checksum

	// A forged header declaring a huge level: magic+flags+maxCost, a
	// fingerprint that matches the gate alphabet, then an absurd count
	// with no entries behind it.
	forged := append([]byte(nil), blob[:32]...)
	var huge [8]byte
	binary.LittleEndian.PutUint64(huge[:], 1<<40)
	forged = append(forged, huge[:]...)
	f.Add(forged)

	// Level sizes whose sum wraps uint64 back under the cap (the
	// negative-allocation panic regression).
	wrap := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(wrap[44:52], ^uint64(0))
	f.Add(wrap)

	// Format v2 corpus: the valid zero-copy stream plus the hostile
	// variants its loader must survive — truncated headers, truncated
	// slot arrays, flipped section bytes, and forged geometry (shard
	// counts, slot sizes, offsets) that must fail cleanly instead of
	// OOMing or overflowing the layout arithmetic.
	var buf2 bytes.Buffer
	if err := SaveV2(&buf2, res); err != nil {
		f.Fatal(err)
	}
	blob2 := buf2.Bytes()
	f.Add(blob2)
	f.Add(blob2[:40])               // truncated fixed header
	f.Add(blob2[:headerFixedLen+4]) // truncated level counts
	f.Add(blob2[:pageAlign+11])     // truncated key section
	f.Add(blob2[:len(blob2)-1])     // truncated index padding
	corrupt2 := func(pos int, bit uint) []byte {
		c := append([]byte(nil), blob2...)
		c[pos] ^= 1 << bit
		return c
	}
	f.Add(corrupt2(3, 0))            // version byte
	f.Add(corrupt2(8, 1))            // maxCost
	f.Add(corrupt2(36, 0))           // shard count
	f.Add(corrupt2(44, 7))           // slots per shard
	f.Add(corrupt2(60, 3))           // keys offset
	f.Add(corrupt2(pageAlign, 5))    // key section content
	f.Add(corrupt2(len(blob2)-5, 2)) // index section content
	reseal := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), blob2...)
		mutate(b)
		maxCost := binary.LittleEndian.Uint32(b[8:])
		n := headerFixedLen + (int(maxCost)+1)*8 + 8
		if n+8 <= len(b) {
			binary.LittleEndian.PutUint64(b[n-8:], hashBytesV2(b[:n-8]))
		}
		return b
	}
	f.Add(reseal(func(b []byte) { binary.LittleEndian.PutUint32(b[36:], 3) }))          // non-pow2 shards
	f.Add(reseal(func(b []byte) { binary.LittleEndian.PutUint64(b[44:], 1<<40) }))      // absurd slots
	f.Add(reseal(func(b []byte) { binary.LittleEndian.PutUint64(b[52:], 1<<50) }))      // absurd entries
	f.Add(reseal(func(b []byte) { binary.LittleEndian.PutUint64(b[84:], ^uint64(0)) })) // lying file size

	f.Fuzz(func(t *testing.T, data []byte) {
		// A tight entry cap keeps even "plausible" fuzzed headers from
		// committing real memory; correctness of the cap itself is
		// covered by TestMaxEntriesCap.
		res, err := LoadWithOptions(bytes.NewReader(data), bfs.GateAlphabet(), &LoadOptions{MaxEntries: 1 << 16})
		if err != nil {
			return
		}
		// Accepted streams must be internally consistent: every level
		// entry present in the table.
		if res == nil {
			t.Fatal("accepted stream produced nil result")
		}
		n := 0
		for c := 0; c <= res.MaxCost; c++ {
			lvl := res.Level(c)
			n += lvl.Len()
			for i := 0; i < lvl.Len(); i++ {
				rep := lvl.At(i)
				if !res.Contains(rep) {
					t.Fatalf("level %d entry %v missing from table", c, rep)
				}
				if cost, ok := res.CostOf(rep); !ok || cost != c {
					t.Fatalf("level %d entry %v reports cost %d/%v", c, rep, cost, ok)
				}
			}
		}
		if n != res.TotalStored() {
			t.Fatalf("levels carry %d entries, table %d", n, res.TotalStored())
		}
	})
}

// FuzzManifest feeds arbitrary bytes to the checkpoint-manifest decoder,
// mirroring FuzzLoad's forged-header guards: a forged or truncated
// manifest must fail with a typed sentinel — never a panic, never an
// allocation driven by a lying length field, and never a "valid"
// manifest whose file names could steer a resume outside its work
// directory.
func FuzzManifest(f *testing.F) {
	valid := &BuildManifest{
		Generation: 2,
		K:          5,
		Reduced:    true,
		Alphabet:   tables.FingerprintOf(bfs.GateAlphabet()),
		Shards:     64,
		LevelSlabs: 3,
		LevelReps:  50,
		Levels: []ManifestLevel{
			{Level: 0, Entries: 1,
				Srt: ManifestFile{Name: "level_0.srt", Size: 10, Hash: 0x1234},
				Seq: ManifestFile{Name: "level_0.seq", Size: 8, Hash: 0x5678}},
			{Level: 1, Entries: 4,
				Srt: ManifestFile{Name: "level_1.srt", Size: 40, Hash: 0x9abc},
				Seq: ManifestFile{Name: "level_1.seq", Size: 32, Hash: 0xdef0}},
		},
		Runs: []ManifestRun{
			{Level: 2, Slab: 0, Candidates: 128, File: ManifestFile{Name: "run_2_0.run", Size: 2304, Hash: 0x42}},
			{Level: 2, Slab: 2, Candidates: 64, File: ManifestFile{Name: "run_2_2.run", Size: 1152, Hash: 0x43}},
		},
	}
	blob, err := EncodeManifest(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2]) // truncated payload
	f.Add(blob[:4])           // truncated magic
	f.Add([]byte{})
	f.Add([]byte(manifestMagic + " 0000000000000000 99999999999999\n{}")) // lying length
	f.Add([]byte("RVTM9 0000000000000000 2\n{}"))                         // future envelope
	f.Add([]byte("RVTM1 0000000000000000 2\n{}"))                         // retired envelope
	corrupt := func(pos int, bit uint) []byte {
		c := append([]byte(nil), blob...)
		c[pos] ^= 1 << bit
		return c
	}
	f.Add(corrupt(0, 1))           // magic
	f.Add(corrupt(8, 3))           // fingerprint hex
	f.Add(corrupt(len(blob)-2, 5)) // payload
	// Resealed forgeries: structurally wrong payloads behind a correct
	// envelope, which must be caught by validation, not the checksum.
	reseal := func(mutate func(m *BuildManifest)) []byte {
		m := *valid
		m.Levels = append([]ManifestLevel(nil), valid.Levels...)
		m.Runs = append([]ManifestRun(nil), valid.Runs...)
		mutate(&m)
		b, err := EncodeManifest(&m)
		if err != nil {
			return nil
		}
		return b
	}
	f.Add(reseal(func(m *BuildManifest) { m.Levels[1].Srt.Name = "../../etc/passwd" }))
	f.Add(reseal(func(m *BuildManifest) { m.Levels[1].Srt.Name = "a/b.srt" }))
	f.Add(reseal(func(m *BuildManifest) { m.Shards = 65 }))
	f.Add(reseal(func(m *BuildManifest) { m.Generation = 0 }))
	f.Add(reseal(func(m *BuildManifest) { m.Runs[0].Slab = 99 }))
	f.Add(reseal(func(m *BuildManifest) { m.Runs[1].Slab = 0 }))
	f.Add(reseal(func(m *BuildManifest) { m.LevelReps = 0 }))
	f.Add(reseal(func(m *BuildManifest) { m.LevelReps = -1 }))
	f.Add(reseal(func(m *BuildManifest) { m.Levels[1].Level = 7 }))
	f.Add(reseal(func(m *BuildManifest) { m.K = 77 }))
	f.Add(reseal(func(m *BuildManifest) { m.Levels[0].Entries = -1 }))
	// Envelope with a huge declared length but a matching small payload
	// (cap check must fire before any comparison with real bytes).
	big := fmt.Sprintf("%s %016x %d\n{}", manifestMagic, hashManifestBytes([]byte("{}")), maxManifestBytes+1)
	f.Add([]byte(big))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrUnsupportedVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped manifest error: %v", err)
			}
			return
		}
		// Accepted manifests must be safe to act on: contiguous levels,
		// bare file names, in-range runs — and must round-trip.
		for i, lv := range m.Levels {
			if lv.Level != i {
				t.Fatalf("accepted manifest with level %d at position %d", lv.Level, i)
			}
		}
		for _, r := range m.Runs {
			if strings.ContainsAny(r.File.Name, "/\\") || r.File.Name == ".." {
				t.Fatalf("accepted manifest with path-like run name %q", r.File.Name)
			}
			if r.Slab < 0 || r.Slab >= m.LevelSlabs {
				t.Fatalf("accepted manifest with out-of-range slab %d", r.Slab)
			}
			if m.LevelReps < 1 {
				t.Fatalf("accepted manifest with sealed runs but slab size %d", m.LevelReps)
			}
		}
		re, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		if _, err := DecodeManifest(re); err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
	})
}
