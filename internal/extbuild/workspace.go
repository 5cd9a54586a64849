package extbuild

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// workspace owns every large buffer of a build. Its arena grows to the
// largest need any slab, level or phase has shown and is then reused,
// so a build maps its working memory about once per growth instead of
// allocating it once per level and phase.
//
// Every buffer — slabs, sort scratch and frontier keys, the sequence
// sorter's pairs, probe chunks, file read and write buffers, emission's
// gather, slot and placement arrays — is a view of one pointer-free
// arena that each phase carves afresh (carve). A phase's views live until
// the phase returns, and phases never overlap, so the merges' buffers
// are the expansion's idle slabs, and so are emission's.
//
// The arena is an anonymous mapping outside the Go heap (arena_unix.go).
// When a phase outgrows it, the old block is unmapped before the larger
// one is mapped, and Build releases the last block on every return, so
// the build's resident set follows the arena: its size is the build's
// ledger (bytes). On the heap, each outgrown block would stay resident
// as garbage until the collector and scavenger returned it. Under the
// race detector, which sees only heap memory, and without mmap, the
// arena is a heap allocation (arena_other.go).
type workspace struct {
	arena []uint64
}

// The arena's blocks outside the Go heap: how many are mapped now, and
// how many bytes were ever mapped. runtime.MemStats counts neither, so
// tests read them beside it.
var mappedBlocks, mappedBytes atomic.Int64

// bytes is the arena's size: the budget ledger, reported as
// Stats.PeakTrackedBytes. The arena only grows, so it is also the peak.
func (ws *workspace) bytes() int64 { return 8 * int64(len(ws.arena)) }

// carve lays a phase's typed buffers out in the arena. layout runs
// twice: once to measure (every view is nil), then, with the arena grown
// to fit, to hand out the views. It must make the same view calls both
// times, and it runs before the phase's workers start. A failed map is
// returned, and no view is handed out.
func (ws *workspace) carve(layout func(c *carver)) error {
	var m carver
	layout(&m)
	if words := (m.off + 7) / 8; words > len(ws.arena) {
		// The old block's contents are dead: every earlier phase's views
		// went with the phase.
		if err := ws.release(); err != nil {
			return err
		}
		arena, err := mapArena(words)
		if err != nil {
			return err
		}
		ws.arena = arena
	}
	layout(&carver{arena: ws.arena})
	return nil
}

// release gives the arena back; the workspace then holds nothing.
func (ws *workspace) release() error {
	arena := ws.arena
	if arena == nil {
		return nil
	}
	ws.arena = nil
	return unmapArena(arena)
}

// carver hands out consecutive, aligned views of the arena.
type carver struct {
	arena []uint64 // nil while measuring
	off   int      // bytes
}

// bytes is how much a measuring carver has laid out.
func (c *carver) bytes() int64 { return int64(c.off) }

// view carves n values of T. The arena holds no pointers and every T is
// pointer-free, so any view of it is a valid T slice; its capacity is n,
// so an append past it reallocates rather than overrun a neighbour.
func view[T cand | uint64 | uint32 | uint16 | byte | bool](c *carver, n int) []T {
	var z T
	size, align := int(unsafe.Sizeof(z)), int(unsafe.Alignof(z))
	start := (c.off + align - 1) / align * align
	c.off = start + n*size
	if c.arena == nil || n == 0 {
		return nil
	}
	if c.off > 8*len(c.arena) {
		panic(fmt.Sprintf("extbuild: carve of %d bytes overruns a %d-byte arena", c.off, 8*len(c.arena)))
	}
	p := unsafe.Add(unsafe.Pointer(unsafe.SliceData(c.arena)), start)
	return unsafe.Slice((*T)(p), n)
}

// fileBufs carves n file buffers of size bytes each.
func fileBufs(c *carver, n, size int) [][]byte {
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = view[byte](c, size)
	}
	return bufs
}
