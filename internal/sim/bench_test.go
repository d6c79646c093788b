package sim_test

import (
	"testing"

	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
	"domainvirt/internal/sim"
)

// benchRegion returns the attach region for benchmark domain d (2 MB
// aligned, one 2 MB slot each, far from the code/heap ranges).
func benchRegion(d core.DomainID) memlayout.Region {
	base := memlayout.VA(0x4000_0000_0000 + uint64(d)<<21)
	return memlayout.Region{Base: base, Size: 2 << 20}
}

// benchMachine builds a single-core machine with ndomains attached
// domains, grants thread 1 RW on all of them, and warms the page working
// set so the measured loop is steady state (TLB hits, no demand paging).
func benchMachine(tb testing.TB, scheme sim.Scheme, ndomains, pages int) *sim.Machine {
	tb.Helper()
	cfg := sim.DefaultConfig()
	m := sim.NewMachine(cfg, scheme)
	for d := core.DomainID(1); d <= core.DomainID(ndomains); d++ {
		if err := m.Attach(d, benchRegion(d), core.PermRW); err != nil {
			tb.Fatal(err)
		}
		m.SetPerm(1, d, core.PermRW, 0)
	}
	for d := core.DomainID(1); d <= core.DomainID(ndomains); d++ {
		r := benchRegion(d)
		for p := 0; p < pages; p++ {
			if !m.Access(1, r.Base+memlayout.VA(p*memlayout.PageSize), 8, false) {
				tb.Fatalf("warmup access denied: scheme=%s d=%d page=%d", scheme, d, p)
			}
		}
	}
	m.ResetStats()
	return m
}

// benchSchemes is the scheme set for the hot-path benchmarks: the
// baseline floor plus the three schemes that do per-access work.
var benchSchemes = []sim.Scheme{
	sim.SchemeBaseline,
	sim.SchemeMPK,
	sim.SchemeLibmpk,
	sim.SchemeMPKVirt,
	sim.SchemeDomainVirt,
}

// BenchmarkAccessSamePage is the L0 fast-path regime: repeated
// same-page, single-line accesses, the common case of any loop over a
// PMO-resident structure. This is the benchmark the BENCH_sim.json
// trajectory tracks as access_same_page.
func BenchmarkAccessSamePage(b *testing.B) {
	for _, s := range benchSchemes {
		b.Run(string(s), func(b *testing.B) {
			m := benchMachine(b, s, 4, 8)
			va := benchRegion(1).Base
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Access(1, va+memlayout.VA((i&7)*64), 8, i&1 == 0)
			}
		})
	}
}

// BenchmarkAccessPageStride walks a working set larger than one page but
// well inside the L1 TLB: every access changes pages, so the L0 slot
// misses and the TLB-hit path is measured.
func BenchmarkAccessPageStride(b *testing.B) {
	for _, s := range benchSchemes {
		b.Run(string(s), func(b *testing.B) {
			m := benchMachine(b, s, 4, 8)
			r := benchRegion(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				va := r.Base + memlayout.VA((i&7)*memlayout.PageSize)
				m.Access(1, va, 8, false)
			}
		})
	}
}

// BenchmarkReplayTrace is the end-to-end trace-replay regime: a mixed
// stream of instructions, loads, stores, and SETPERM windows across
// several domains — the shape every experiment grid and conformance
// replay drives. BENCH_sim.json tracks it as replay_trace.
func BenchmarkReplayTrace(b *testing.B) {
	for _, s := range benchSchemes {
		b.Run(string(s), func(b *testing.B) {
			const nd = 4
			m := benchMachine(b, s, nd, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := core.DomainID(1 + i%nd)
				r := benchRegion(d)
				m.Instr(1, 20)
				if i%64 == 0 {
					m.SetPerm(1, d, core.PermRW, 0)
				}
				va := r.Base + memlayout.VA((i&7)*memlayout.PageSize) + memlayout.VA((i&31)*64)
				m.Access(1, va, 8, false)
				m.Access(1, va, 8, true)
				m.Access(1, va+8, 8, false)
			}
		})
	}
}

// BenchmarkAccessStraddle measures the cache-line-straddling split path.
func BenchmarkAccessStraddle(b *testing.B) {
	m := benchMachine(b, sim.SchemeDomainVirt, 1, 8)
	va := benchRegion(1).Base + 60 // 8-byte access crosses the 64 B line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(1, va, 8, false)
	}
}

// BenchmarkFetch measures the instruction-fetch path in steady state.
func BenchmarkFetch(b *testing.B) {
	m := benchMachine(b, sim.SchemeDomainVirt, 1, 8)
	va := benchRegion(1).Base
	for i := 0; i < 8; i++ {
		m.Fetch(1, va+memlayout.VA(i*memlayout.PageSize))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Fetch(1, va+memlayout.VA((i&7)*memlayout.PageSize))
	}
}

// benchSnapshot builds a machine with warmed multi-domain state and
// returns its snapshot — the codec benchmarks measure the persistent
// snapshot store's serialization hot path on a realistic capture.
func benchSnapshot(tb testing.TB) *sim.Snapshot {
	m := benchMachine(tb, sim.SchemeDomainVirt, 8, 32)
	for d := core.DomainID(1); d <= 8; d++ {
		r := benchRegion(d)
		for p := 0; p < 32; p++ {
			va := r.Base + memlayout.VA(p*memlayout.PageSize)
			m.Access(1, va, 8, true)
			m.Instr(1, 50)
		}
		m.SetPerm(1, d, core.PermR, 0)
		m.SetPerm(1, d, core.PermRW, 0)
	}
	return m.Snapshot()
}

// BenchmarkSnapshotEncode measures the wire encoding of a full machine
// snapshot — the write half of every snapshot-store Put.
func BenchmarkSnapshotEncode(b *testing.B) {
	snap := benchSnapshot(b)
	data, err := sim.EncodeSnapshot(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.EncodeSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotDecode measures decode+checksum of stored snapshot
// bytes — the read half of every warm-store hit.
func BenchmarkSnapshotDecode(b *testing.B) {
	data, err := sim.EncodeSnapshot(benchSnapshot(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.DecodeSnapshot(data); err != nil {
			b.Fatal(err)
		}
	}
}

// poolRegion returns the 8 MiB attach region of pool d, the Fig 6 PMO
// size.
func poolRegion(d core.DomainID) memlayout.Region {
	return memlayout.Region{Base: memlayout.VA(0x4000_0000_0000 + uint64(d)<<23), Size: 8 << 20}
}

// pools1024Machine builds the Fig 6 shape at 1024 PMOs: 1024 attached
// 8 MiB pools with two touched pages each, so the page table is sparse
// and both TLB levels are full.
func pools1024Machine(tb testing.TB) *sim.Machine {
	tb.Helper()
	m := sim.NewMachine(sim.DefaultConfig(), sim.SchemeLowerbound)
	for d := core.DomainID(1); d <= 1024; d++ {
		r := poolRegion(d)
		if err := m.Attach(d, r, core.PermRW); err != nil {
			tb.Fatal(err)
		}
		m.Access(1, r.Base, 8, true)
		m.Access(1, r.Base+memlayout.PageSize, 8, true)
	}
	return m
}

// BenchmarkShootdown1024PMO measures one TLB shootdown of an 8 MiB pool
// on the 1024-pool machine, plus the two refills that keep the TLBs
// full: the libmpk key-eviction shape that dominates a cold Fig 6.
func BenchmarkShootdown1024PMO(b *testing.B) {
	m := pools1024Machine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := poolRegion(core.DomainID(1 + i%1024))
		m.FlushTLBRangeAll(r)
		m.Access(1, r.Base, 8, false)
		m.Access(1, r.Base+memlayout.PageSize, 8, false)
	}
}

// BenchmarkSetPTEKeys8MiB measures a pkey_mprotect-style key rewrite of
// one sparse 8 MiB pool (two present pages) on the 1024-pool machine.
func BenchmarkSetPTEKeys8MiB(b *testing.B) {
	m := pools1024Machine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetPTEKeys(poolRegion(core.DomainID(1+i%1024)), uint8(i&15))
	}
}

// BenchmarkAttach1024 measures attaching 1024 8 MiB pools to a fresh
// machine (one op is all 1024 attaches), which maintains the sorted span
// index demand paging searches.
func BenchmarkAttach1024(b *testing.B) {
	cfg := sim.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := sim.NewMachine(cfg, sim.SchemeLowerbound)
		b.StartTimer()
		for d := core.DomainID(1); d <= 1024; d++ {
			if err := m.Attach(d, poolRegion(d), core.PermRW); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRestore1024PMO measures serving one warm cell from stored
// snapshot bytes on the Fig 6 shape at 1024 PMOs: decode the snapshot,
// then restore it into a machine. Its allocation budget is dominated by
// the page table, which decode builds and restore shares copy on write.
func BenchmarkRestore1024PMO(b *testing.B) {
	data, err := sim.EncodeSnapshot(pools1024Machine(b).Snapshot())
	if err != nil {
		b.Fatal(err)
	}
	fork := sim.NewMachine(sim.DefaultConfig(), sim.SchemeLowerbound)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := sim.DecodeSnapshot(data)
		if err != nil {
			b.Fatal(err)
		}
		fork.Restore(snap)
	}
}
