package extbuild

import (
	"fmt"
	"unsafe"
)

// workspace owns every large buffer of a build. Its buffers grow to the
// largest need any slab, level or phase has shown and are then reused,
// so a build allocates its working memory about once instead of once
// per level and phase. That is what keeps the resident set near the
// ledger: fresh buffers per level left the previous level's as garbage,
// which the collector frees only once the heap has doubled past its last
// live size. The arena's size is the build's ledger (bytes).
//
// Every buffer — slabs, sort scratch and frontier keys, the sequence
// sorter's pairs, probe chunks, file read and write buffers, emission's
// gather, slot and placement arrays — is a view of one pointer-free
// arena that each phase carves afresh (carve). A phase's views live until
// the phase returns, and phases never overlap, so the merges' buffers
// are the expansion's idle slabs, and so are emission's.
type workspace struct {
	arena []uint64
}

// bytes is the arena's size: the budget ledger, reported as
// Stats.PeakTrackedBytes. The arena only grows, so it is also the peak.
func (ws *workspace) bytes() int64 { return 8 * int64(len(ws.arena)) }

// carve lays a phase's typed buffers out in the arena. layout runs
// twice: once to measure (every view is nil), then, with the arena grown
// to fit, to hand out the views. It must make the same view calls both
// times, and it runs before the phase's workers start.
func (ws *workspace) carve(layout func(c *carver)) {
	var m carver
	layout(&m)
	if words := (m.off + 7) / 8; words > len(ws.arena) {
		ws.arena = nil // the old block is unreferenced from here on
		ws.arena = make([]uint64, words)
	}
	layout(&carver{arena: ws.arena})
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
