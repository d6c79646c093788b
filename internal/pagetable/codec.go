package pagetable

import (
	"fmt"

	"domainvirt/internal/bincodec"
	"domainvirt/internal/memlayout"
)

// AppendTo appends the deterministic binary form of the table: every
// non-zero leaf PTE as (page VA, PFN, flags), enumerated by an in-order
// radix walk so the entries appear in ascending VA order regardless of
// the insertion history. Non-present PTEs that still carry a key or
// writable bit are included so libmpk's pkey state survives a round trip.
func (t *Table) AppendTo(b []byte) []byte {
	countAt := len(b)
	b = bincodec.U32(b, 0) // entry count, patched below
	n := uint32(0)
	var walk func(nd *node, lvl int, base memlayout.VA)
	walk = func(nd *node, lvl int, base memlayout.VA) {
		span := memlayout.LevelSize(lvl)
		for i := 0; i < memlayout.RadixFanout; i++ {
			slotBase := base + memlayout.VA(uint64(i)*span)
			if lvl > 1 {
				if child := nd.children[i]; child != nil {
					walk(child, lvl-1, slotBase)
				}
				continue
			}
			l := nd.leaves[i]
			if l == nil {
				continue
			}
			for j, pte := range &l.ptes {
				if pte == (PTE{}) {
					continue
				}
				b = bincodec.U64(b, uint64(slotBase)+uint64(j)*memlayout.PageSize)
				b = bincodec.U64(b, pte.PFN)
				var flags uint8
				if pte.Present {
					flags |= 1
				}
				if pte.Writable {
					flags |= 2
				}
				b = bincodec.U8(b, flags)
				b = bincodec.U8(b, pte.PKey)
				n++
			}
		}
	}
	walk(t.root, memlayout.NumLevels-1, 0)
	b[countAt] = byte(n)
	b[countAt+1] = byte(n >> 8)
	b[countAt+2] = byte(n >> 16)
	b[countAt+3] = byte(n >> 24)
	return b
}

// DecodeTable reads a Table written by AppendTo.
func DecodeTable(r *bincodec.Reader) (*Table, error) {
	t := New()
	n := r.Count(8 + 8 + 1 + 1)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("pagetable: %w", err)
	}
	for i := 0; i < n; i++ {
		va := memlayout.VA(r.U64())
		pfn := r.U64()
		flags := r.U8()
		pkey := r.U8()
		if r.Err() != nil {
			break
		}
		t.set(t.writableLeaf(va), memlayout.Index(va, 0), PTE{
			PFN:      pfn,
			Present:  flags&1 != 0,
			Writable: flags&2 != 0,
			PKey:     pkey,
		})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("pagetable: %w", err)
	}
	// A decoded table starts out owning no leaf, like a clone, so that
	// concurrent clones of it write nothing.
	disownAll(t.root, memlayout.NumLevels-1)
	return t, nil
}
