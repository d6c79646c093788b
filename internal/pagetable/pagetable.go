// Package pagetable implements a 4-level x86-64-style radix page table with
// 4-bit per-PTE protection keys (the PTE field Intel MPK repurposes). The
// simulator walks it on TLB misses; the libmpk baseline pays per-PTE costs
// when pkey_mprotect rewrites the key field of every populated PTE in a
// domain, so the table exposes populated-page enumeration.
package pagetable

import (
	"math/bits"

	"domainvirt/internal/memlayout"
)

// PTE is a leaf page-table entry.
type PTE struct {
	PFN      uint64 // physical frame number
	Present  bool
	Writable bool
	PKey     uint8 // 4-bit protection key; 0 is the null (domainless) key
}

// node is one interior radix node (levels 3 to 1). It holds child
// pointers — interior nodes below it at levels 3 and 2, leaves at level
// 1 — and, at level 1, the bitmap of the leaves its table owns.
//
// Interior nodes belong to one table; leaves may be shared. Clone copies
// the interior nodes and shares every leaf, clearing the owned bits on
// both sides, and a write to a leaf whose owned bit is clear first
// replaces it with a private copy (copy on write). A table that is only
// read — a checkpoint's — therefore never costs a leaf copy, and cloning
// it writes nothing, so any number of goroutines may clone it at once.
type node struct {
	children [memlayout.RadixFanout]*node
	leaves   [memlayout.RadixFanout]*leaf
	owned    [memlayout.RadixFanout / 64]uint64
}

// leaf is one level-0 radix node: 512 PTEs and a present bitmap (bit i
// set iff ptes[i].Present), so range enumeration visits populated slots
// with TrailingZeros64 instead of testing every slot of a mostly empty
// region. It holds no pointers, so the garbage collector never scans
// it, and cloning one copies only its 8 KB of PTEs.
type leaf struct {
	ptes    [memlayout.RadixFanout]PTE
	present [memlayout.RadixFanout / 64]uint64
}

// MaxVPN is one past the highest page number the 4-level radix resolves
// without aliasing: a VA at or above 1<<48 indexes the same slots as its
// low 48 bits.
const MaxVPN = uint64(1) << (memlayout.NumLevels * memlayout.RadixBits)

// Table is a 4-level radix page table for one address space.
type Table struct {
	root      *node
	populated uint64 // number of present leaf PTEs
}

// New returns an empty page table.
func New() *Table {
	return &Table{root: &node{}}
}

// Populated returns the total number of present PTEs in the table.
func (t *Table) Populated() uint64 { return t.populated }

// Clone returns a copy of the table: mutations of either are invisible
// to the other. The two share their leaves copy on write (see node), so
// a clone costs the interior nodes only. Cloning gives up t's ownership
// of its leaves, which writes t unless t owns none (a clone or a decoded
// table not written since): like any write, that needs exclusive access.
func (t *Table) Clone() *Table {
	return &Table{root: cloneNode(t.root, memlayout.NumLevels-1), populated: t.populated}
}

// cloneNode copies the level-lvl interior node n and the interior nodes
// below it, sharing the leaves.
func cloneNode(n *node, lvl int) *node {
	c := &node{}
	if lvl == 1 {
		c.leaves = n.leaves
		n.disown()
		return c
	}
	for i, child := range n.children {
		if child != nil {
			c.children[i] = cloneNode(child, lvl-1)
		}
	}
	return c
}

// disown clears the level-1 node's owned bits, leaving its leaves to be
// copied before they are next written. It writes only bits that are set.
func (n *node) disown() {
	for i := range n.owned {
		if n.owned[i] != 0 {
			n.owned[i] = 0
		}
	}
}

// disownAll disowns every level-1 node under the level-lvl node n.
func disownAll(n *node, lvl int) {
	if lvl == 1 {
		n.disown()
		return
	}
	for _, c := range n.children {
		if c != nil {
			disownAll(c, lvl-1)
		}
	}
}

// ownLeaf returns the level-1 node's leaf at slot idx for writing: a new
// leaf if the slot is empty, or a private copy if the leaf is shared.
func (n *node) ownLeaf(idx int) *leaf {
	w, bit := idx>>6, uint64(1)<<(idx&63)
	l := n.leaves[idx]
	if n.owned[w]&bit != 0 {
		return l
	}
	c := new(leaf)
	if l != nil {
		*c = *l
	}
	n.leaves[idx] = c
	n.owned[w] |= bit
	return c
}

// lastLevel returns the level-1 node on va's path, creating interior
// nodes when create is true; otherwise it returns nil if the path is
// absent.
func (t *Table) lastLevel(va memlayout.VA, create bool) *node {
	n := t.root
	for lvl := memlayout.NumLevels - 1; lvl >= 2; lvl-- {
		idx := memlayout.Index(va, lvl)
		next := n.children[idx]
		if next == nil {
			if !create {
				return nil
			}
			next = &node{}
			n.children[idx] = next
		}
		n = next
	}
	return n
}

// writableLeaf returns the leaf covering va ready for writing, creating
// it and its interior nodes if absent.
func (t *Table) writableLeaf(va memlayout.VA) *leaf {
	return t.lastLevel(va, true).ownLeaf(memlayout.Index(va, 1))
}

// set stores pte into slot idx of leaf n, keeping the leaf's present
// bitmap and the table's populated count in step with pte.Present.
func (t *Table) set(n *leaf, idx int, pte PTE) {
	w, bit := idx>>6, uint64(1)<<(idx&63)
	was := n.present[w]&bit != 0
	switch {
	case pte.Present && !was:
		n.present[w] |= bit
		t.populated++
	case !pte.Present && was:
		n.present[w] &^= bit
		t.populated--
	}
	n.ptes[idx] = pte
}

// Map installs a translation for the 4 KB page containing va.
func (t *Table) Map(va memlayout.VA, pa memlayout.PA, writable bool) {
	t.set(t.writableLeaf(va), memlayout.Index(va, 0), PTE{
		PFN:      uint64(pa) >> memlayout.PageShift,
		Present:  true,
		Writable: writable,
	})
}

// Unmap removes the translation for the page containing va, reporting
// whether a mapping was present.
func (t *Table) Unmap(va memlayout.VA) bool {
	n := t.lastLevel(va, false)
	if n == nil {
		return false
	}
	l := n.leaves[memlayout.Index(va, 1)]
	idx := memlayout.Index(va, 0)
	if l == nil || !l.ptes[idx].Present {
		return false
	}
	t.set(n.ownLeaf(memlayout.Index(va, 1)), idx, PTE{})
	return true
}

// Walk translates va, returning the PTE and whether it is present. The
// returned depth is the number of radix levels touched (4 for a full walk),
// which the simulator uses for walk costing.
func (t *Table) Walk(va memlayout.VA) (pte PTE, depth int, ok bool) {
	n := t.root
	depth = 1
	for lvl := memlayout.NumLevels - 1; lvl >= 2; lvl-- {
		next := n.children[memlayout.Index(va, lvl)]
		if next == nil {
			return PTE{}, depth, false
		}
		n = next
		depth++
	}
	l := n.leaves[memlayout.Index(va, 1)]
	if l == nil {
		return PTE{}, depth, false
	}
	pte = l.ptes[memlayout.Index(va, 0)]
	return pte, depth + 1, pte.Present
}

// Lookup is Walk without depth accounting.
func (t *Table) Lookup(va memlayout.VA) (PTE, bool) {
	pte, _, ok := t.Walk(va)
	return pte, ok
}

// SetWritable updates the writable bit of every populated PTE in region,
// returning the number of PTEs changed.
func (t *Table) SetWritable(r memlayout.Region, writable bool) int {
	n := 0
	t.ForEachPopulated(r, func(va memlayout.VA, pte *PTE) {
		if pte.Writable != writable {
			pte.Writable = writable
		}
		n++
	})
	return n
}

// SetKey writes the protection key into every populated PTE in region,
// returning the number of PTEs written. This is the cost driver of
// pkey_mprotect: work proportional to the populated pages of the domain.
func (t *Table) SetKey(r memlayout.Region, key uint8) int {
	n := 0
	t.ForEachPopulated(r, func(va memlayout.VA, pte *PTE) {
		pte.PKey = key
		n++
	})
	return n
}

// PopulatedPages counts present PTEs within region.
func (t *Table) PopulatedPages(r memlayout.Region) int {
	n := 0
	t.populatedIn(r, false, func(memlayout.VA, *PTE) { n++ })
	return n
}

// ForEachPopulated invokes fn for every present PTE whose page lies within
// region, in ascending VA order, passing the page base VA and a mutable
// PTE pointer. fn may rewrite any field but Present.
func (t *Table) ForEachPopulated(r memlayout.Region, fn func(memlayout.VA, *PTE)) {
	t.populatedIn(r, true, fn)
}

// populatedIn is ForEachPopulated; with write, the leaves the region
// overlaps are made private first, so fn may rewrite the PTEs.
func (t *Table) populatedIn(r memlayout.Region, write bool, fn func(memlayout.VA, *PTE)) {
	if r.Size == 0 || uint64(r.Base) > ^uint64(0)-(memlayout.PageSize-1) {
		return
	}
	// Pages whose base lies in r: round the start up, the end down.
	lo := memlayout.PageNum(r.Base + memlayout.PageSize - 1)
	hi := memlayout.PageNum(r.End() - 1)
	t.walkPages(lo, hi, write, func(vpn uint64, pte *PTE) bool {
		fn(memlayout.VA(vpn<<memlayout.PageShift), pte)
		return true
	})
}

// AppendPresentVPNs appends to dst, in ascending order, the page number of
// every present page numbered lo..hi (inclusive). It gives up once more
// than limit pages would be listed, returning ok=false; dst then holds a
// truncated prefix. This is the page-driven half of a TLB shootdown: a
// sparse range is listed in time proportional to its populated pages.
func (t *Table) AppendPresentVPNs(dst []uint64, lo, hi uint64, limit int) (_ []uint64, ok bool) {
	start := len(dst)
	ok = t.walkPages(lo, hi, false, func(vpn uint64, _ *PTE) bool {
		if len(dst)-start == limit {
			return false
		}
		dst = append(dst, vpn)
		return true
	})
	return dst, ok
}

// walkPages visits every present PTE of the pages numbered lo..hi in
// ascending order, stopping early when fn returns false. It reports
// whether the walk ran to completion. Pages at or above MaxVPN are never
// visited. With write, each leaf is made private before it is visited.
func (t *Table) walkPages(lo, hi uint64, write bool, fn func(vpn uint64, pte *PTE) bool) bool {
	if hi >= MaxVPN {
		hi = MaxVPN - 1
	}
	if lo > hi {
		return true
	}
	return walkRange(t.root, memlayout.NumLevels-1, 0, lo, hi, write, fn)
}

// slotRange returns the first and last slot of a level-lvl node, whose
// first page is first, that overlap the pages lo..hi.
func slotRange(lvl int, first, lo, hi uint64) (i0, i1 int) {
	shift := uint(lvl * memlayout.RadixBits) // a slot spans 1<<shift pages
	i1 = memlayout.RadixFanout - 1
	if lo > first {
		i0 = int((lo - first) >> shift)
	}
	if idx := (hi - first) >> shift; idx < memlayout.RadixFanout {
		i1 = int(idx)
	}
	return i0, i1
}

// walkRange walks the level-lvl interior node n, whose first page is
// first, over the pages lo..hi that overlap it.
func walkRange(n *node, lvl int, first, lo, hi uint64, write bool, fn func(uint64, *PTE) bool) bool {
	shift := uint(lvl * memlayout.RadixBits)
	i0, i1 := slotRange(lvl, first, lo, hi)
	for i := i0; i <= i1; i++ {
		start := first + uint64(i)<<shift
		if lvl == 1 {
			l := n.leaves[i]
			if l == nil {
				continue
			}
			if write {
				l = n.ownLeaf(i)
			}
			if !l.walk(start, lo, hi, fn) {
				return false
			}
		} else if child := n.children[i]; child != nil && !walkRange(child, lvl-1, start, lo, hi, write, fn) {
			return false
		}
	}
	return true
}

// walk visits the present PTEs of leaf l, whose first page is first,
// among the pages lo..hi.
func (l *leaf) walk(first, lo, hi uint64, fn func(uint64, *PTE) bool) bool {
	i0, i1 := slotRange(0, first, lo, hi)
	for w := i0 >> 6; w <= i1>>6; w++ {
		set := l.present[w]
		if w == i0>>6 {
			set &= ^uint64(0) << uint(i0&63)
		}
		if w == i1>>6 {
			set &= ^uint64(0) >> uint(63-i1&63)
		}
		for ; set != 0; set &= set - 1 {
			i := w<<6 | bits.TrailingZeros64(set)
			if !fn(first+uint64(i), &l.ptes[i]) {
				return false
			}
		}
	}
	return true
}
