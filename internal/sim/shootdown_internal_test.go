package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
	"domainvirt/internal/pagetable"
	"domainvirt/internal/tlb"
)

// scanFlushTLBRangeAll is the full-scan shootdown FlushTLBRangeAll used
// before the page-driven fast path, kept verbatim as the reference.
func scanFlushTLBRangeAll(m *Machine, r memlayout.Region) int {
	m.bumpGen()
	total := 0
	for _, c := range m.cores {
		owe := func(vpn uint64) { c.debt.Owe(vpn) }
		n1 := c.l1tlb.FlushRange(r, owe)
		n2 := c.l2tlb.FlushRange(r, owe)
		n := n2
		if n1 > n2 {
			n = n1
		}
		total += n
	}
	m.ctr.TLBFlushed += uint64(total)
	return total
}

// rebuiltSpans is the span index rebuild Attach and Detach ran before
// the index was kept sorted incrementally, kept as the reference. Its
// order is the base order; attach regions have distinct bases.
func rebuiltSpans(m *Machine) []domSpan {
	var spans []domSpan
	for _, di := range m.domains {
		spans = append(spans, domSpan{
			base:     di.region.Base,
			end:      di.region.End(),
			writable: di.perm.CanWrite(),
		})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].base < spans[j].base })
	return spans
}

// shootdownWindows are the VA windows the shootdown differential maps
// pages in and aims ranges at: an ordinary one, and one straddling the
// top of the 48-bit radix reach, where pages above it alias low slots
// and the fast path must hand the range to the scan.
var shootdownWindows = []memlayout.VA{
	0x4000_0000_0000,
	memlayout.VA(pagetable.MaxVPN<<memlayout.PageShift) - 64*memlayout.PageSize,
}

// shootdownMachine builds a two-core machine whose page table holds a
// random sparse page set and whose TLBs hold random entries for those
// pages, as demand paging would leave them. small shrinks the L2 TLB so
// the probe bound (its set count) is easy to cross.
func shootdownMachine(seed int64, small bool) (*Machine, *rand.Rand) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	if small {
		cfg.L2TLB = tlb.Config{Entries: 48, Ways: 6}
	}
	m := NewMachine(cfg, SchemeBaseline)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 300; i++ {
		shootdownRefill(m, rng)
	}
	return m, rng
}

// shootdownRefill maps one random page of a random window and caches it
// in a random subset of the cores' TLB levels.
func shootdownRefill(m *Machine, rng *rand.Rand) {
	va := shootdownWindows[rng.Intn(len(shootdownWindows))] + memlayout.VA(rng.Intn(128)*memlayout.PageSize)
	m.pt.Map(va, memlayout.PA(rng.Intn(1<<20))<<memlayout.PageShift, rng.Intn(2) == 0)
	pte, _ := m.pt.Lookup(va)
	e := tlb.Entry{VPN: memlayout.PageNum(va), PFN: pte.PFN, Writable: pte.Writable, Tag: uint16(rng.Intn(4))}
	for _, c := range m.cores {
		switch rng.Intn(4) {
		case 0:
			c.l2tlb.Insert(e)
			c.l1tlb.Insert(e)
		case 1:
			c.l2tlb.Insert(e)
		case 2:
			c.l1tlb.Insert(e) // an L1 entry whose L2 copy was evicted
		}
	}
}

// shootdownRegion draws a range over a window: byte-unaligned bases,
// partial pages, empty ranges, and ranges larger than the probe bound.
func shootdownRegion(rng *rand.Rand) memlayout.Region {
	base := shootdownWindows[rng.Intn(len(shootdownWindows))] + memlayout.VA(rng.Intn(160*memlayout.PageSize))
	var size uint64
	switch rng.Intn(5) {
	case 0:
		size = 0
	case 1:
		size = uint64(rng.Intn(3 * memlayout.PageSize))
	case 2:
		size = uint64(rng.Intn(32)) * memlayout.PageSize
	default:
		size = uint64(rng.Intn(256*memlayout.PageSize) + 1)
	}
	return memlayout.Region{Base: base, Size: size}
}

// checkShootdownMatchesScan drives the same random shootdown sequence
// through FlushTLBRangeAll on one machine and the reference scan on an
// identically built twin, comparing flushed counts, owed sets, and the
// full TLB state after every step.
func checkShootdownMatchesScan(t *testing.T, seed int64, small bool) {
	fast, rng := shootdownMachine(seed, small)
	ref, _ := shootdownMachine(seed, small)
	for step := 0; step < 60; step++ {
		r := shootdownRegion(rng)
		got := fast.FlushTLBRangeAll(r)
		want := scanFlushTLBRangeAll(ref, r)
		if got != want || fast.ctr.TLBFlushed != ref.ctr.TLBFlushed || fast.mutGen != ref.mutGen {
			t.Fatalf("seed %d step %d %s: flushed %d (total %d), scan flushed %d (total %d)",
				seed, step, r, got, fast.ctr.TLBFlushed, want, ref.ctr.TLBFlushed)
		}
		for i := range fast.cores {
			fc, rc := fast.cores[i], ref.cores[i]
			if !reflect.DeepEqual(fc.debt.Snapshot(), rc.debt.Snapshot()) {
				t.Fatalf("seed %d step %d %s: core %d owed set differs from scan", seed, step, r, i)
			}
			if !reflect.DeepEqual(fc.l1tlb.Snapshot(), rc.l1tlb.Snapshot()) ||
				!reflect.DeepEqual(fc.l2tlb.Snapshot(), rc.l2tlb.Snapshot()) {
				t.Fatalf("seed %d step %d %s: core %d surviving TLB entries differ from scan", seed, step, r, i)
			}
		}
		// Refill both machines identically between shootdowns.
		n := rng.Intn(20)
		for j := 0; j < n; j++ {
			s := rng.Int63()
			shootdownRefill(fast, rand.New(rand.NewSource(s)))
			shootdownRefill(ref, rand.New(rand.NewSource(s)))
		}
	}
}

// TestShootdownMatchesScan is the differential referee for the
// page-driven shootdown: over random TLB contents and ranges (partial,
// unaligned, empty, past the probe bound, across the radix reach) it
// must leave exactly what the full scan leaves.
func TestShootdownMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		checkShootdownMatchesScan(t, seed, seed%2 == 0)
	}
}

func FuzzShootdownMatchesScan(f *testing.F) {
	f.Add(int64(1), false)
	f.Add(int64(2), true)
	f.Fuzz(func(t *testing.T, seed int64, small bool) {
		checkShootdownMatchesScan(t, seed, small)
	})
}

// TestShootdownProbeAllocFree pins the scratch-buffer contract: the
// page-driven shootdown lists pages into a machine-owned buffer and
// allocates nothing per call.
func TestShootdownProbeAllocFree(t *testing.T) {
	m, _ := shootdownMachine(3, false)
	r := memlayout.Region{Base: shootdownWindows[0], Size: 128 * memlayout.PageSize}
	if _, ok := m.presentVPNs(r); !ok {
		t.Fatal("test range takes the scan, want the probe path")
	}
	if allocs := testing.AllocsPerRun(200, func() { m.FlushTLBRangeAll(r) }); allocs != 0 {
		t.Errorf("FlushTLBRangeAll allocates %v times per call, want 0", allocs)
	}
}

// spanRegion draws an attach region for the span differential: a mix of
// sizes at the granularities the domain table accepts, some misaligned
// or overlapping (the engine rejects those).
func spanRegion(rng *rand.Rand) memlayout.Region {
	sizes := []uint64{0, memlayout.PageSize, 5 << 10, 64 << 10, 2 << 20, 8 << 20}
	size := sizes[rng.Intn(len(sizes))]
	gran := uint64(memlayout.PageSize)
	if size >= 2<<20 {
		gran = 2 << 20
	}
	base := uint64(0x4000_0000_0000) + uint64(rng.Intn(64))*gran
	if rng.Intn(8) == 0 {
		base += memlayout.PageSize // misaligned for 2 MB regions
	}
	return memlayout.Region{Base: memlayout.VA(base), Size: size}
}

// TestSpansMatchRebuild is the differential referee for the sorted span
// index: after every step of random Attach/Detach/Snapshot/Restore
// sequences (in-memory and through the codec), m.spans must equal the
// index rebuilt from m.domains.
func TestSpansMatchRebuild(t *testing.T) {
	perms := []core.Perm{core.PermR, core.PermRW}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMachine(DefaultConfig(), SchemeBaseline)
		var snaps []*Snapshot
		for step := 0; step < 300; step++ {
			d := core.DomainID(1 + rng.Intn(40))
			switch op := rng.Intn(10); {
			case op < 5:
				r := spanRegion(rng)
				if m.Attach(d, r, perms[rng.Intn(2)]) == nil && r.Size > 0 {
					m.Access(1, r.Base, 8, false)
				}
			case op < 8:
				m.Detach(d)
			case op == 8:
				snaps = append(snaps, m.Snapshot())
			case len(snaps) > 0:
				s := snaps[rng.Intn(len(snaps))]
				if rng.Intn(2) == 0 {
					m.Restore(s)
					break
				}
				data, err := EncodeSnapshot(s)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := DecodeSnapshot(data)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.RestoreSafe(dec); err != nil {
					t.Fatalf("seed %d step %d: RestoreSafe of an intact snapshot: %v", seed, step, err)
				}
			}
			if want := rebuiltSpans(m); len(m.spans)+len(want) > 0 && !reflect.DeepEqual(m.spans, want) {
				t.Fatalf("seed %d step %d: spans\n got %v\nwant %v", seed, step, m.spans, want)
			}
		}
	}
}

// corruptibleSnapshot returns a decoded snapshot of a machine with two
// attached domains and warm TLBs, plus a VA whose page its TLBs cache.
func corruptibleSnapshot(t *testing.T) (*Snapshot, memlayout.VA) {
	t.Helper()
	m := NewMachine(DefaultConfig(), SchemeBaseline)
	for d := core.DomainID(1); d <= 2; d++ {
		r := memlayout.Region{Base: memlayout.VA(0x4000_0000_0000 + uint64(d)<<21), Size: 2 << 20}
		if err := m.Attach(d, r, core.PermRW); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 4; p++ {
			m.Access(1, r.Base+memlayout.VA(p*memlayout.PageSize), 8, true)
		}
	}
	data, err := EncodeSnapshot(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return s, memlayout.VA(0x4000_0000_0000 + 1<<21)
}

// TestRestoreSafeRejectsInconsistent pins the guard the page-driven
// shootdown relies on: a decoded snapshot whose TLBs cache a page with
// no present PTE, or whose span index disagrees with its attach table,
// is rejected with ErrSnapshotInconsistent — no panic, and the target
// machine left untouched.
func TestRestoreSafeRejectsInconsistent(t *testing.T) {
	corruptions := map[string]func(*Snapshot, memlayout.VA){
		"tlb entry without pte": func(s *Snapshot, va memlayout.VA) {
			if !s.pt.Unmap(va) {
				t.Fatal("cached page was not mapped")
			}
		},
		"spans out of order": func(s *Snapshot, _ memlayout.VA) {
			s.spans[0], s.spans[1] = s.spans[1], s.spans[0]
		},
		"span missing": func(s *Snapshot, _ memlayout.VA) { s.spans = s.spans[:1] },
		"span disagrees with domain": func(s *Snapshot, _ memlayout.VA) {
			s.spans[1].writable = !s.spans[1].writable
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s, va := corruptibleSnapshot(t)
			corrupt(s, va)
			m := NewMachine(DefaultConfig(), SchemeBaseline)
			err := m.RestoreSafe(s)
			if !errors.Is(err, ErrSnapshotInconsistent) {
				t.Fatalf("RestoreSafe = %v, want ErrSnapshotInconsistent", err)
			}
			if len(m.domains) != 0 || m.pt.Populated() != 0 {
				t.Error("rejected snapshot was partially restored")
			}
		})
	}
	s, _ := corruptibleSnapshot(t)
	if err := NewMachine(DefaultConfig(), SchemeBaseline).RestoreSafe(s); err != nil {
		t.Fatalf("intact snapshot rejected: %v", err)
	}
}
