//go:build !unix || race

package extbuild

const arenaOffHeap = false

// mapArena allocates the block on the Go heap where there is no mmap,
// and under the race detector, which ignores memory outside the heap:
// a mapped arena would hide the build workers' accesses from it.
func mapArena(words int) ([]uint64, error) { return make([]uint64, words), nil }

// unmapArena leaves the block to the collector.
func unmapArena([]uint64) error { return nil }
