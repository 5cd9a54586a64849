package service

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tables"
	"repro/internal/tablesio"
)

// TestConfigBackendTablesConflict: injecting both complete table sources
// must fail startup loudly instead of silently preferring one.
func TestConfigBackendTablesConflict(t *testing.T) {
	res := fixtureTables(t)
	b, err := tables.NewLocal(res)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Backend: b, Tables: res})
	if err == nil || !strings.Contains(err.Error(), "exactly one table source") {
		t.Fatalf("conflicting Backend+Tables: err = %v", err)
	}
}

// TestConfigTablesWinOverPath: with both Tables and TablesPath set, the
// injected tables serve and the path is ignored — neither read nor
// written — in every ordering.
func TestConfigTablesWinOverPath(t *testing.T) {
	res := fixtureTables(t)
	path := filepath.Join(t.TempDir(), "ignored.tables")
	svc, err := New(Config{Tables: res, TablesPath: path, QueryWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	if st := svc.Stats(); st.TableFormat != "injected" {
		t.Fatalf("table_format = %q, want injected", st.TableFormat)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("TablesPath was touched despite injected Tables (stat err = %v)", err)
	}
}

// cacheStatsBackend wraps a backend with canned cache counters, playing
// the role of a tablenet client/router for the stats-surfacing test.
type cacheStatsBackend struct {
	tables.Backend
	stats tables.CacheStats
}

func (b *cacheStatsBackend) CacheStats() tables.CacheStats { return b.stats }

// TestStatsSurfaceRemoteCache: a backend that maintains read caches
// (tablenet.Client, Router) gets its counters surfaced through
// service.Stats — the path revserve's /stats scrapes — while local
// table sources omit the field.
func TestStatsSurfaceRemoteCache(t *testing.T) {
	res := fixtureTables(t)
	b, err := tables.NewLocal(res)
	if err != nil {
		t.Fatal(err)
	}
	want := tables.CacheStats{KeyHits: 7, KeyMisses: 3, LevelHits: 2, Coalesced: 1, CacheBytes: 64, WireBytesRead: 100, WireBytesWritten: 50}
	svc, err := New(Config{Backend: &cacheStatsBackend{Backend: b, stats: want}, QueryWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	st := svc.Stats()
	if st.RemoteCache == nil || *st.RemoteCache != want {
		t.Fatalf("Stats().RemoteCache = %+v, want %+v", st.RemoteCache, want)
	}

	local, err := New(Config{Tables: res, QueryWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close(context.Background())
	if st := local.Stats(); st.RemoteCache != nil {
		t.Fatalf("local table source reports remote cache stats: %+v", st.RemoteCache)
	}
}

// TestConfigBackendServes: a service over an injected backend answers
// queries identically to direct core synthesis and reports the
// backend's source in Stats; Close leaves the caller-owned backend
// usable.
func TestConfigBackendServes(t *testing.T) {
	res := fixtureTables(t)
	b, err := tables.NewLocal(res)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Backend: b, QueryWorkers: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.FromResult(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	direct.SetWorkers(1)

	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		f := randomCircuitPerm(rng, 1+rng.Intn(8))
		gotC, gotInfo, gotErr := svc.Synthesize(ctx, f)
		wantC, wantInfo, wantErr := direct.SynthesizeInfoCtx(ctx, f)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("spec %v: service err %v, direct err %v", f, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if gotC.String() != wantC.String() || gotInfo.Cost != wantInfo.Cost {
			t.Fatalf("spec %v: service (%v, %d) != direct (%v, %d)", f, gotC, gotInfo.Cost, wantC, wantInfo.Cost)
		}
	}
	st := svc.Stats()
	if st.TableFormat != "local" {
		t.Fatalf("table_format = %q, want the backend source", st.TableFormat)
	}
	if st.TableEntries != res.TotalStored() {
		t.Fatalf("table_entries = %d, want %d", st.TableEntries, res.TotalStored())
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The backend belongs to the caller and must survive the close.
	keys := []uint64{1}
	vals := make([]uint16, 1)
	found := make([]bool, 1)
	if err := b.LookupBatch(ctx, keys, vals, found); err != nil {
		t.Fatalf("caller-owned backend broken after service close: %v", err)
	}
}

// flakyBackend wraps a tables.Backend and fails every read while
// failing is set — a stand-in for a shard fleet mid-outage. It
// deliberately does NOT implement tables.Localized, so core scans it in
// remote-sized batches.
type flakyBackend struct {
	inner   tables.Backend
	failing atomic.Bool
}

func (b *flakyBackend) Meta() tables.Meta { return b.inner.Meta() }
func (b *flakyBackend) Close() error      { return b.inner.Close() }
func (b *flakyBackend) LookupBatch(ctx context.Context, keys []uint64, vals []uint16, found []bool) error {
	if b.failing.Load() {
		return errors.New("backend: connection refused (simulated outage)")
	}
	return b.inner.LookupBatch(ctx, keys, vals, found)
}
func (b *flakyBackend) LevelKeys(ctx context.Context, c, lo int, out []uint64) error {
	if b.failing.Load() {
		return errors.New("backend: connection refused (simulated outage)")
	}
	return b.inner.LevelKeys(ctx, c, lo, out)
}

// TestTransientBackendErrorsNotCached: with the result cache ENABLED, a
// query that fails during a backend outage must succeed once the
// backend recovers — transient network errors are not deterministic
// properties of the table set and must never be pinned in the LRU.
// Deterministic beyond-horizon errors, by contrast, stay cacheable.
func TestTransientBackendErrorsNotCached(t *testing.T) {
	res := fixtureTables(t)
	inner, err := tables.NewLocal(res)
	if err != nil {
		t.Fatal(err)
	}
	b := &flakyBackend{inner: inner}
	svc, err := New(Config{Backend: b, QueryWorkers: 1, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	f := randomCircuitPerm(rng, 3)

	b.failing.Store(true)
	if _, _, err := svc.Synthesize(ctx, f); err == nil {
		t.Fatal("query during outage succeeded")
	}
	b.failing.Store(false)
	circ, info, err := svc.Synthesize(ctx, f)
	if err != nil {
		t.Fatalf("query after recovery replayed the outage error: %v", err)
	}
	if len(circ) == 0 && info.Cost != 0 {
		t.Fatalf("implausible answer after recovery: %v %+v", circ, info)
	}

	// Beyond-horizon is deterministic: it must be served from cache (no
	// backend traffic) even during a fresh outage.
	hard := randomPerm16(rng) // k=4 horizon 8; random perms are ~always beyond
	if _, _, err := svc.Synthesize(ctx, hard); !errors.Is(err, core.ErrBeyondHorizon) {
		t.Skipf("random spec unexpectedly within horizon (err=%v)", err)
	}
	b.failing.Store(true)
	if _, _, err := svc.Synthesize(ctx, hard); !errors.Is(err, core.ErrBeyondHorizon) {
		t.Fatalf("cached beyond-horizon answer not replayed during outage: %v", err)
	}
}

// TestResidencyStats: a memory-mapped store must surface its mincore
// page residency in Stats on Linux (and report nothing, gracefully,
// elsewhere).
func TestResidencyStats(t *testing.T) {
	res := fixtureTables(t)
	path := filepath.Join(t.TempDir(), "k4.tables")
	if err := tablesio.SaveFile(path, res); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{TablesPath: path, QueryWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	st := svc.Stats()
	if st.TableFormat != "v2+mmap" {
		t.Skipf("store not memory-mapped on this platform (format %q)", st.TableFormat)
	}
	// Touch the whole table so the pages are resident, then expect the
	// probe to see a substantial fraction.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 64; i++ {
		svc.Synthesize(ctx, randomCircuitPerm(rng, 1+rng.Intn(8)))
	}
	st = svc.Stats()
	if runtime.GOOS != "linux" {
		if st.TableResidentBytes != 0 {
			t.Fatalf("non-Linux build reported residency %d", st.TableResidentBytes)
		}
		t.Skip("no residency probe on this platform")
	}
	if st.TableResidentBytes <= 0 || st.TableResidentFraction <= 0 || st.TableResidentFraction > 1 {
		t.Fatalf("implausible residency: %d bytes, fraction %v", st.TableResidentBytes, st.TableResidentFraction)
	}
}
