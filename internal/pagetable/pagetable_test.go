package pagetable

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"domainvirt/internal/bincodec"
	"domainvirt/internal/memlayout"
)

func TestMapWalkRoundTrip(t *testing.T) {
	pt := New()
	va := memlayout.VA(0x7f1234567000)
	pt.Map(va, 0xABC000, true)
	pte, depth, ok := pt.Walk(va)
	if !ok {
		t.Fatal("mapped page not found")
	}
	if pte.PFN != 0xABC {
		t.Errorf("PFN = %#x, want 0xABC", pte.PFN)
	}
	if !pte.Writable {
		t.Error("writable bit lost")
	}
	if depth != memlayout.NumLevels {
		t.Errorf("walk depth = %d, want %d", depth, memlayout.NumLevels)
	}
	if _, _, ok := pt.Walk(va + memlayout.PageSize); ok {
		t.Error("adjacent unmapped page must miss")
	}
}

func TestMapAgainstReference(t *testing.T) {
	// Random map/unmap/lookup sequence must agree with a Go map.
	rng := rand.New(rand.NewSource(7))
	pt := New()
	ref := make(map[uint64]uint64) // vpn -> pfn
	for i := 0; i < 5000; i++ {
		vpn := uint64(rng.Intn(2048))*7919 + uint64(rng.Intn(64))<<30
		va := memlayout.VA(vpn << memlayout.PageShift)
		switch rng.Intn(3) {
		case 0:
			pfn := uint64(rng.Int63n(1 << 30))
			pt.Map(va, memlayout.PA(pfn<<memlayout.PageShift), true)
			ref[vpn] = pfn
		case 1:
			got := pt.Unmap(va)
			_, want := ref[vpn]
			if got != want {
				t.Fatalf("Unmap(%#x) = %v, want %v", va, got, want)
			}
			delete(ref, vpn)
		default:
			pte, ok := pt.Lookup(va)
			pfn, want := ref[vpn]
			if ok != want || (ok && pte.PFN != pfn) {
				t.Fatalf("Lookup(%#x) = (%v,%v), want (%v,%v)", va, pte.PFN, ok, pfn, want)
			}
		}
		if pt.Populated() != uint64(len(ref)) {
			t.Fatalf("Populated = %d, want %d", pt.Populated(), len(ref))
		}
	}
}

func TestSetKeyCountsPopulatedOnly(t *testing.T) {
	pt := New()
	base := memlayout.VA(0x40000000)
	// Map every other page of a 64-page region.
	for i := 0; i < 64; i += 2 {
		pt.Map(base+memlayout.VA(i*memlayout.PageSize), memlayout.PA(i+1)<<memlayout.PageShift, true)
	}
	r := memlayout.Region{Base: base, Size: 64 * memlayout.PageSize}
	if n := pt.SetKey(r, 3); n != 32 {
		t.Errorf("SetKey touched %d PTEs, want 32 (populated only)", n)
	}
	if n := pt.PopulatedPages(r); n != 32 {
		t.Errorf("PopulatedPages = %d, want 32", n)
	}
	pte, _ := pt.Lookup(base)
	if pte.PKey != 3 {
		t.Errorf("PKey = %d, want 3", pte.PKey)
	}
	// A sub-range touches only its own pages.
	sub := memlayout.Region{Base: base, Size: 16 * memlayout.PageSize}
	if n := pt.SetKey(sub, 5); n != 8 {
		t.Errorf("sub-range SetKey = %d, want 8", n)
	}
	outside, _ := pt.Lookup(base + 32*memlayout.PageSize)
	if outside.PKey != 3 {
		t.Errorf("PTE outside sub-range changed to %d", outside.PKey)
	}
}

func TestSetWritable(t *testing.T) {
	pt := New()
	base := memlayout.VA(0x50000000)
	for i := 0; i < 8; i++ {
		pt.Map(base+memlayout.VA(i*memlayout.PageSize), memlayout.PA(i+1)<<memlayout.PageShift, true)
	}
	r := memlayout.Region{Base: base, Size: 8 * memlayout.PageSize}
	if n := pt.SetWritable(r, false); n != 8 {
		t.Errorf("SetWritable = %d, want 8", n)
	}
	pte, _ := pt.Lookup(base)
	if pte.Writable {
		t.Error("page still writable")
	}
}

func TestForEachPopulatedRangeExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pt := New()
		mapped := make(map[uint64]bool)
		base := uint64(0x100000000)
		for i := 0; i < 200; i++ {
			vpn := base>>memlayout.PageShift + uint64(rng.Intn(4096))
			pt.Map(memlayout.VA(vpn<<memlayout.PageShift), memlayout.PA(vpn<<memlayout.PageShift), true)
			mapped[vpn] = true
		}
		lo := base + uint64(rng.Intn(2048))*memlayout.PageSize
		size := uint64(rng.Intn(2048)+1) * memlayout.PageSize
		r := memlayout.Region{Base: memlayout.VA(lo), Size: size}
		want := 0
		for vpn := range mapped {
			if r.Contains(memlayout.VA(vpn << memlayout.PageShift)) {
				want++
			}
		}
		got := 0
		pt.ForEachPopulated(r, func(va memlayout.VA, pte *PTE) {
			if !r.Contains(va) || !pte.Present {
				t.Errorf("callback outside range or non-present: %v", va)
			}
			got++
		})
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// scanPopulated is the slot-scanning walk ForEachPopulated ran before the
// present bitmaps, kept as the reference: it tests Present on every slot
// of every leaf the region overlaps. It walks interior node n at levels
// 3 to 1 and leaf l at level 0.
func scanPopulated(n *node, l *leaf, lvl int, base memlayout.VA, r memlayout.Region, fn func(memlayout.VA, *PTE)) {
	span := memlayout.LevelSize(lvl)
	lo, hi := 0, memlayout.RadixFanout-1
	if r.Base > base {
		lo = int((uint64(r.Base) - uint64(base)) / span)
	}
	last := uint64(r.End()) - 1
	if memlayout.VA(last) >= base {
		off := last - uint64(base)
		if idx := off / span; idx < memlayout.RadixFanout {
			hi = int(idx)
		}
	}
	for i := lo; i <= hi; i++ {
		slotBase := base + memlayout.VA(uint64(i)*span)
		if lvl == 0 {
			pte := &l.ptes[i]
			if pte.Present && r.Contains(slotBase) {
				fn(slotBase, pte)
			}
			continue
		}
		if lvl == 1 {
			if l := n.leaves[i]; l != nil {
				scanPopulated(nil, l, 0, slotBase, r, fn)
			}
			continue
		}
		child := n.children[i]
		if child == nil {
			continue
		}
		scanPopulated(child, nil, lvl-1, slotBase, r, fn)
	}
}

// checkBitmaps verifies every leaf's present bitmap against its PTEs and
// the populated count against the bitmaps.
func checkBitmaps(t *testing.T, pt *Table) {
	t.Helper()
	var total uint64
	var walk func(n *node, lvl int)
	walk = func(n *node, lvl int) {
		for _, l := range n.leaves {
			if l == nil {
				continue
			}
			if lvl != 1 {
				t.Fatalf("level-%d node holds a leaf", lvl)
			}
			for i := range l.ptes {
				set := l.present[i>>6]&(1<<(i&63)) != 0
				if set != l.ptes[i].Present {
					t.Fatalf("leaf slot %d: bitmap %v, PTE present %v", i, set, l.ptes[i].Present)
				}
				if set {
					total++
				}
			}
		}
		for _, c := range n.children {
			if c != nil {
				if lvl == 1 {
					t.Fatal("level-1 node holds an interior child")
				}
				walk(c, lvl-1)
			}
		}
	}
	walk(pt.root, memlayout.NumLevels-1)
	if total != pt.Populated() {
		t.Fatalf("Populated = %d, bitmaps hold %d", pt.Populated(), total)
	}
}

// TestForEachPopulatedMatchesScan is the differential referee for the
// present bitmaps: after random Map/Unmap/Clone/AppendTo→DecodeTable
// sequences, ForEachPopulated (and AppendPresentVPNs) must visit exactly
// the pages the slot scan visits, in the same order.
func TestForEachPopulatedMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pt := New()
		// Two 2 MB leaves' worth of pages straddling a leaf boundary, plus
		// a far cluster under another top-level slot.
		bases := []uint64{0x4000_0000_0000 - 2<<20 + 0x1000, 0x7f00_0000_0000}
		randVA := func() memlayout.VA {
			return memlayout.VA(bases[rng.Intn(len(bases))] + uint64(rng.Intn(1024))*memlayout.PageSize)
		}
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(20); {
			case op < 10:
				pt.Map(randVA(), memlayout.PA(rng.Intn(1<<20))<<memlayout.PageShift, rng.Intn(2) == 0)
			case op < 15:
				pt.Unmap(randVA())
			case op < 16:
				pt.SetKey(memlayout.Region{Base: randVA(), Size: uint64(rng.Intn(64)) * memlayout.PageSize}, uint8(rng.Intn(16)))
			case op < 18:
				// The clone shares no node: mutating the original
				// afterwards leaves its bitmaps and count consistent.
				old := pt
				pt = pt.Clone()
				old.Map(randVA(), 0, true)
				old.Unmap(randVA())
			default:
				dec, err := DecodeTable(bincodec.NewReader(pt.AppendTo(nil)))
				if err != nil {
					t.Fatal(err)
				}
				pt = dec
			}
			checkBitmaps(t, pt)

			r := memlayout.Region{Base: randVA() + memlayout.VA(rng.Intn(memlayout.PageSize)), Size: uint64(rng.Intn(1200 * memlayout.PageSize))}
			var got, want []memlayout.VA
			var gotKeys, wantKeys []uint8
			pt.ForEachPopulated(r, func(va memlayout.VA, pte *PTE) {
				got = append(got, va)
				gotKeys = append(gotKeys, pte.PKey)
			})
			if r.Size > 0 {
				scanPopulated(pt.root, nil, memlayout.NumLevels-1, 0, r, func(va memlayout.VA, pte *PTE) {
					want = append(want, va)
					wantKeys = append(wantKeys, pte.PKey)
				})
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotKeys, wantKeys) {
				t.Fatalf("seed %d step %d %s: ForEachPopulated visited %d pages, scan %d", seed, step, r, len(got), len(want))
			}

			// The page-number lister covers the pages r touches.
			lo, hi := memlayout.PageNum(r.Base), memlayout.PageNum(r.End()-1)
			var wantVPNs []uint64
			scanPopulated(pt.root, nil, memlayout.NumLevels-1, 0, memlayout.Region{Base: memlayout.VA(lo << memlayout.PageShift), Size: (hi - lo + 1) << memlayout.PageShift},
				func(va memlayout.VA, _ *PTE) { wantVPNs = append(wantVPNs, memlayout.PageNum(va)) })
			limit := rng.Intn(len(wantVPNs) + 2)
			gotVPNs, ok := pt.AppendPresentVPNs(nil, lo, hi, limit)
			if ok != (len(wantVPNs) <= limit) {
				t.Fatalf("seed %d step %d: AppendPresentVPNs(limit %d) ok=%v for %d pages", seed, step, limit, ok, len(wantVPNs))
			}
			if n := len(gotVPNs); n > limit || (ok && n != len(wantVPNs)) || (n > 0 && !reflect.DeepEqual(gotVPNs, wantVPNs[:n])) {
				t.Fatalf("seed %d step %d: AppendPresentVPNs = %v, want prefix of %v", seed, step, gotVPNs, wantVPNs)
			}
		}
	}
}

// TestLeafHoldsNoPointers pins the property that keeps leaves off the
// garbage collector's scan list: no field of a leaf, at any depth, is or
// contains a pointer.
func TestLeafHoldsNoPointers(t *testing.T) {
	var check func(typ reflect.Type, path string)
	check = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
			reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s: leaves must hold no pointers", path, typ.Kind())
		case reflect.Array:
			check(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(f.Type, path+"."+f.Name)
			}
		}
	}
	check(reflect.TypeOf(leaf{}), "leaf")
	if size := reflect.TypeOf(leaf{}).Size(); size > 8<<10+64 {
		t.Errorf("leaf is %d bytes, want at most 8 KB of PTEs plus the bitmap", size)
	}
}

// TestCloneCopyOnWrite: a clone shares its leaves with the original, and
// every kind of write on either side — Map, Unmap, SetKey, SetWritable —
// copies a shared leaf first, so the other side's contents never change.
// Each side is compared against a reference table built by replaying
// its own writes, and no leaf may stay shared after a write to it.
func TestCloneCopyOnWrite(t *testing.T) {
	bases := []uint64{0x4000_0000_0000 - 2<<20 + 0x1000, 0x7f00_0000_0000}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randVA := func() memlayout.VA {
			return memlayout.VA(bases[rng.Intn(len(bases))] + uint64(rng.Intn(1024))*memlayout.PageSize)
		}
		// write applies one random write to every table in pts.
		write := func(pts ...*Table) {
			va, op := randVA(), rng.Intn(4)
			r := memlayout.Region{Base: va, Size: uint64(rng.Intn(64)) * memlayout.PageSize}
			pa, w, key := memlayout.PA(rng.Intn(1<<20))<<memlayout.PageShift, rng.Intn(2) == 0, uint8(rng.Intn(16))
			for _, pt := range pts {
				switch op {
				case 0:
					pt.Map(va, pa, w)
				case 1:
					pt.Unmap(va)
				case 2:
					pt.SetKey(r, key)
				default:
					pt.SetWritable(r, w)
				}
			}
		}
		orig, refA := New(), New()
		for i := 0; i < 300; i++ {
			write(orig, refA)
		}
		clone := orig.Clone()
		refB := refA.Clone()
		if got, want := clone.AppendTo(nil), orig.AppendTo(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: clone differs from the original", seed)
		}
		for i := 0; i < 200; i++ {
			if rng.Intn(2) == 0 {
				write(orig, refA)
			} else {
				write(clone, refB)
			}
		}
		for _, c := range []struct {
			name     string
			pt, want *Table
		}{{"original", orig, refA}, {"clone", clone, refB}} {
			if !reflect.DeepEqual(c.pt.AppendTo(nil), c.want.AppendTo(nil)) {
				t.Fatalf("seed %d: %s was changed by writes to the other table", seed, c.name)
			}
			if c.pt.Populated() != c.want.Populated() {
				t.Fatalf("seed %d: %s Populated = %d, want %d", seed, c.name, c.pt.Populated(), c.want.Populated())
			}
			checkBitmaps(t, c.pt)
		}
	}
}

// TestConcurrentClonesOfSharedTable: a decoded table and a clone own no
// leaf, so goroutines may clone one concurrently and write their clones
// (run under the race detector). Every clone ends up with its own
// writes only.
func TestConcurrentClonesOfSharedTable(t *testing.T) {
	src := New()
	for i := 0; i < 2000; i++ {
		src.Map(memlayout.VA(0x7f00_0000_0000+uint64(i*3)*memlayout.PageSize), memlayout.PA(i)<<memlayout.PageShift, true)
	}
	dec, err := DecodeTable(bincodec.NewReader(src.AppendTo(nil)))
	if err != nil {
		t.Fatal(err)
	}
	want := src.AppendTo(nil)
	for _, shared := range []*Table{dec, src.Clone()} {
		done := make(chan *Table)
		for g := 0; g < 4; g++ {
			go func(g int) {
				c := shared.Clone()
				for i := 0; i < 2000; i += 4 {
					va := memlayout.VA(0x7f00_0000_0000 + uint64(i*3)*memlayout.PageSize)
					c.Map(va, memlayout.PA(1000+g)<<memlayout.PageShift, false)
					c.SetKey(memlayout.Region{Base: va, Size: memlayout.PageSize}, uint8(g+1))
				}
				done <- c
			}(g)
		}
		for g := 0; g < 4; g++ {
			c := <-done
			if c.Populated() != shared.Populated() {
				t.Errorf("clone Populated = %d, want %d", c.Populated(), shared.Populated())
			}
		}
		if !reflect.DeepEqual(shared.AppendTo(nil), want) {
			t.Error("writes to clones changed the shared table")
		}
	}
}
