package pmo

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"

	"domainvirt/internal/memlayout"
)

// Pool data lives in a lazily built page directory whose lookups are
// lock-free: every slot is an atomic pointer, and page data is stored as
// 8-byte words read and written with atomic loads and stores. Writers
// (holding Pool.mu) create directory nodes and frames and publish them
// with atomic stores; readers walk the directory with atomic loads and
// never block. Memory grows with the pages touched — a node per 64-page
// span in use plus the frames — never with the pool's size.

const (
	wordsPerPage = memlayout.PageSize / 8
	dirBits      = 6
	dirFanout    = 1 << dirBits
	dirMask      = dirFanout - 1
)

// frame is one 4 KiB page of pool data as little-endian words.
type frame [wordsPerPage]atomic.Uint64

// dirNode is one page-directory node: child nodes above the bottom
// level, frames at it.
type dirNode struct {
	kids   [dirFanout]atomic.Pointer[dirNode]
	frames [dirFanout]atomic.Pointer[frame]
}

// pageDir maps page index to frame for one pool.
type pageDir struct {
	root   *dirNode
	levels int // node levels from root to the frames, at least 1
	count  int // populated frames; guarded by Pool.mu
}

// newPageDir returns an empty directory deep enough to index every page
// of a size-byte pool.
func newPageDir(size uint64) pageDir {
	pages := size >> memlayout.PageShift
	if size&(memlayout.PageSize-1) != 0 {
		pages++
	}
	levels := 1
	if pages > 1 {
		levels = (bits.Len64(pages-1) + dirBits - 1) / dirBits
	}
	return pageDir{root: new(dirNode), levels: levels}
}

// lookup returns the frame of page idx, or nil if it was never written.
// It takes no lock.
func (d *pageDir) lookup(idx uint64) *frame {
	n := d.root
	for l := d.levels - 1; l > 0; l-- {
		if n = n.kids[idx>>(uint(l)*dirBits)&dirMask].Load(); n == nil {
			return nil
		}
	}
	return n.frames[idx&dirMask].Load()
}

// get returns the frame of page idx, creating a zeroed one (persistent
// memory is zero-initialized on first use) if needed. Callers hold
// Pool.mu, which makes them the only publisher.
func (d *pageDir) get(idx uint64) *frame {
	n := d.root
	for l := d.levels - 1; l > 0; l-- {
		slot := &n.kids[idx>>(uint(l)*dirBits)&dirMask]
		next := slot.Load()
		if next == nil {
			next = new(dirNode)
			slot.Store(next)
		}
		n = next
	}
	slot := &n.frames[idx&dirMask]
	f := slot.Load()
	if f == nil {
		f = new(frame)
		slot.Store(f)
		d.count++
	}
	return f
}

// each calls fn for every populated frame in ascending page order.
// Callers hold Pool.mu so the set of frames cannot change under them.
func (d *pageDir) each(fn func(idx uint64, f *frame) error) error {
	return eachFrame(d.root, d.levels-1, 0, fn)
}

func eachFrame(n *dirNode, lvl int, first uint64, fn func(uint64, *frame) error) error {
	for i := range dirFanout {
		idx := first + uint64(i)<<(uint(lvl)*dirBits)
		if lvl == 0 {
			if f := n.frames[i].Load(); f != nil {
				if err := fn(idx, f); err != nil {
					return err
				}
			}
		} else if kid := n.kids[i].Load(); kid != nil {
			if err := eachFrame(kid, lvl-1, idx, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// read copies the frame's bytes starting at page offset off into dst,
// which must not run past the page. Each word is one atomic load, so a
// concurrent writer is observed at 8-byte granularity.
func (f *frame) read(off uint64, dst []byte) {
	for len(dst) > 0 {
		w := f[off>>3].Load()
		if sh := off & 7; sh != 0 || len(dst) < 8 {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], w)
			n := copy(dst, b[sh:])
			dst, off = dst[n:], off+uint64(n)
			continue
		}
		binary.LittleEndian.PutUint64(dst, w)
		dst, off = dst[8:], off+8
	}
}

// write copies src into the frame at page offset off; src must not run
// past the page. Callers hold Pool.mu, so the read-modify-write of a
// partially covered word cannot lose a concurrent write.
func (f *frame) write(off uint64, src []byte) {
	for len(src) > 0 {
		w := &f[off>>3]
		if sh := off & 7; sh != 0 || len(src) < 8 {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], w.Load())
			n := copy(b[sh:], src)
			w.Store(binary.LittleEndian.Uint64(b[:]))
			src, off = src[n:], off+uint64(n)
			continue
		}
		w.Store(binary.LittleEndian.Uint64(src))
		src, off = src[8:], off+8
	}
}

// copyFrom makes f a copy of src. Callers hold the source pool's mu.
func (f *frame) copyFrom(src *frame) {
	for i := range f {
		f[i].Store(src[i].Load())
	}
}
