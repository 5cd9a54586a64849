//go:build unix && !race

package extbuild

import (
	"fmt"
	"syscall"
	"unsafe"
)

// arenaOffHeap: the arena is mapped outside the Go heap.
const arenaOffHeap = true

// mapArena maps a zeroed block of words 64-bit words outside the Go
// heap: private and anonymous, so unmapArena hands its pages straight
// back to the OS rather than leaving them to the collector.
func mapArena(words int) ([]uint64, error) {
	b, err := syscall.Mmap(-1, 0, 8*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("extbuild: mapping a %d-byte workspace: %w", 8*words, err)
	}
	mappedBlocks.Add(1)
	mappedBytes.Add(int64(len(b)))
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), words), nil
}

// unmapArena unmaps a block mapArena returned.
func unmapArena(a []uint64) error {
	if err := syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a))), 8*len(a))); err != nil {
		return fmt.Errorf("extbuild: unmapping a %d-byte workspace: %w", 8*len(a), err)
	}
	mappedBlocks.Add(-1)
	return nil
}
