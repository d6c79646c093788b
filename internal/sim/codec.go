package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"domainvirt/internal/bincodec"
	"domainvirt/internal/cache"
	"domainvirt/internal/core"
	"domainvirt/internal/mem"
	"domainvirt/internal/memlayout"
	"domainvirt/internal/obs"
	"domainvirt/internal/pagetable"
	"domainvirt/internal/stats"
	"domainvirt/internal/tlb"
)

// SnapshotCodecVersion is the current binary snapshot format version.
// Any change to the encoded field set — including growth of
// stats.Counters, stats.Breakdown, or an engine state struct — must bump
// it, so stale store files are rejected rather than misdecoded.
const SnapshotCodecVersion uint32 = 1

// snapMagic opens every encoded snapshot.
const snapMagic = "PMOSNAP\x00"

// Codec errors. A persistent store treats both as a cache miss.
var (
	// ErrSnapshotCorrupt marks a truncated, garbled, or checksum-failing
	// snapshot file.
	ErrSnapshotCorrupt = errors.New("sim: snapshot data corrupt")
	// ErrSnapshotVersion marks an intact snapshot written by a different
	// codec version.
	ErrSnapshotVersion = errors.New("sim: snapshot codec version mismatch")
	// ErrSnapshotInconsistent marks a snapshot whose parts contradict an
	// invariant a live machine keeps: a TLB entry for a page with no
	// present PTE, or a span index that is not the sorted image of the
	// attach table.
	ErrSnapshotInconsistent = errors.New("sim: snapshot state inconsistent")
)

// EncodeSnapshot serializes s into the versioned, checksummed binary
// snapshot format. Encoding is deterministic: equal snapshots produce
// identical bytes (maps are written in sorted key order), which is what
// makes content-addressed snapshot stores and byte-level cache
// validation possible.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	b := make([]byte, 0, 1<<16)
	b = append(b, snapMagic...)
	b = bincodec.U32(b, SnapshotCodecVersion)

	b = bincodec.Str(b, s.scheme)
	b = bincodec.U32(b, uint32(s.ncores))
	b = appendBreakdown(b, &s.bd)
	b = appendCounters(b, &s.ctr)

	doms := make([]core.DomainID, 0, len(s.domains))
	for d := range s.domains {
		doms = append(doms, d)
	}
	sort.Slice(doms, func(i, j int) bool { return doms[i] < doms[j] })
	b = bincodec.U32(b, uint32(len(doms)))
	for _, d := range doms {
		di := s.domains[d]
		b = bincodec.U32(b, uint32(d))
		b = bincodec.U64(b, uint64(di.region.Base))
		b = bincodec.U64(b, di.region.Size)
		b = bincodec.U8(b, uint8(di.perm))
	}

	b = bincodec.U32(b, uint32(len(s.spans)))
	for _, sp := range s.spans {
		b = bincodec.U64(b, uint64(sp.base))
		b = bincodec.U64(b, uint64(sp.end))
		b = bincodec.Bool(b, sp.writable)
	}

	b = bincodec.Bool(b, s.affinity != nil)
	if s.affinity != nil {
		ths := make([]core.ThreadID, 0, len(s.affinity))
		for th := range s.affinity {
			ths = append(ths, th)
		}
		sort.Slice(ths, func(i, j int) bool { return ths[i] < ths[j] })
		b = bincodec.U32(b, uint32(len(ths)))
		for _, th := range ths {
			b = bincodec.U32(b, uint32(th))
			b = bincodec.U32(b, uint32(s.affinity[th]))
		}
	}

	b = bincodec.U64(b, s.mutGen)
	b = bincodec.U32(b, uint32(len(s.faults)))
	for _, f := range s.faults {
		b = bincodec.U32(b, uint32(f.Thread))
		b = bincodec.U64(b, uint64(f.VA))
		b = bincodec.Bool(b, f.Write)
		b = bincodec.U32(b, uint32(f.Domain))
		b = bincodec.Bool(b, f.Page)
	}
	b = bincodec.U64(b, s.faultsDropped)

	b = s.pt.AppendTo(b)
	b = appendMemState(b, s.memst)
	b = s.caches.AppendTo(b)

	b = bincodec.U32(b, uint32(len(s.cores)))
	for i := range s.cores {
		cs := &s.cores[i]
		b = bincodec.U64(b, cs.cycles)
		b = bincodec.U64(b, cs.instRem)
		b = bincodec.U32(b, uint32(cs.thread))
		b = bincodec.Bool(b, cs.active)
		b = bincodec.U64(b, cs.tlbL1Hits)
		b = bincodec.U64(b, cs.tlbL2Hits)
		b = bincodec.U64(b, cs.tlbMisses)
		b = cs.l1.AppendTo(b)
		b = cs.l2.AppendTo(b)
		pages := make([]uint64, 0, len(cs.debt))
		for p := range cs.debt {
			pages = append(pages, p)
		}
		sort.Slice(pages, func(x, y int) bool { return pages[x] < pages[y] })
		b = bincodec.U32(b, uint32(len(pages)))
		for _, p := range pages {
			b = bincodec.U64(b, p)
		}
	}

	var err error
	b, err = core.AppendEngineState(b, s.eng)
	if err != nil {
		return nil, err
	}

	b = bincodec.U64(b, s.recNext)
	b = bincodec.Bool(b, s.hasRec)
	if s.hasRec {
		b = appendRecorderState(b, &s.recState)
	}

	h := fnv.New64a()
	h.Write(b)
	return bincodec.U64(b, h.Sum64()), nil
}

// DecodeSnapshot parses data written by EncodeSnapshot. It returns
// ErrSnapshotCorrupt for truncation, garbling, or checksum failure and
// ErrSnapshotVersion for an intact payload of a different codec version;
// a store treats either as a miss and rebuilds.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic)+4+8 {
		return nil, fmt.Errorf("%w: %d bytes", ErrSnapshotCorrupt, len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	body, sum := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	want := bincodec.NewReader(sum).U64()
	if h.Sum64() != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	r := bincodec.NewReader(body[len(snapMagic):])
	if v := r.U32(); v != SnapshotCodecVersion {
		return nil, fmt.Errorf("%w: file v%d, codec v%d", ErrSnapshotVersion, v, SnapshotCodecVersion)
	}

	s := &Snapshot{}
	s.scheme = r.Str()
	s.ncores = int(r.U32())
	decodeBreakdown(r, &s.bd)
	decodeCounters(r, &s.ctr)

	ndom := r.Count(21)
	s.domains = make(map[core.DomainID]domainInfo, ndom)
	for i := 0; i < ndom; i++ {
		d := core.DomainID(r.U32())
		s.domains[d] = domainInfo{
			region: memlayout.Region{Base: memlayout.VA(r.U64()), Size: r.U64()},
			perm:   core.Perm(r.U8()),
		}
	}

	nspan := r.Count(17)
	s.spans = make([]domSpan, nspan)
	for i := range s.spans {
		s.spans[i] = domSpan{
			base:     memlayout.VA(r.U64()),
			end:      memlayout.VA(r.U64()),
			writable: r.Bool(),
		}
	}

	if r.Bool() {
		naff := r.Count(8)
		s.affinity = make(map[core.ThreadID]int, naff)
		for i := 0; i < naff; i++ {
			th := core.ThreadID(r.U32())
			s.affinity[th] = int(r.U32())
		}
	}

	s.mutGen = r.U64()
	nfault := r.Count(18)
	s.faults = make([]FaultRecord, nfault)
	for i := range s.faults {
		f := &s.faults[i]
		f.Thread = core.ThreadID(r.U32())
		f.VA = memlayout.VA(r.U64())
		f.Write = r.Bool()
		f.Domain = core.DomainID(r.U32())
		f.Page = r.Bool()
	}
	s.faultsDropped = r.U64()

	var err error
	if s.pt, err = pagetable.DecodeTable(r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	s.memst = decodeMemState(r)
	if s.caches, err = cache.DecodeHierarchyState(r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}

	ncore := r.Count(44)
	s.cores = make([]coreSnap, ncore)
	for i := range s.cores {
		cs := &s.cores[i]
		cs.cycles = r.U64()
		cs.instRem = r.U64()
		cs.thread = core.ThreadID(r.U32())
		cs.active = r.Bool()
		cs.tlbL1Hits = r.U64()
		cs.tlbL2Hits = r.U64()
		cs.tlbMisses = r.U64()
		if cs.l1, err = tlb.DecodeState(r); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		if cs.l2, err = tlb.DecodeState(r); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		ndebt := r.Count(8)
		cs.debt = make(map[uint64]struct{}, ndebt)
		for j := 0; j < ndebt; j++ {
			cs.debt[r.U64()] = struct{}{}
		}
	}

	if s.eng, err = core.DecodeEngineState(r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}

	s.recNext = r.U64()
	s.hasRec = r.Bool()
	if s.hasRec {
		decodeRecorderState(r, &s.recState)
	}

	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, r.Len())
	}
	return s, nil
}

// ResealSnapshotVersion returns a copy of data with the version field
// replaced and the trailing checksum recomputed — the shape of a file an
// intact future writer would produce. It exists so version-rejection
// coverage (here and in the store's hostility tests) exercises the
// version check rather than the checksum.
func ResealSnapshotVersion(data []byte, v uint32) []byte {
	mut := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(mut[len(snapMagic):], v)
	h := fnv.New64a()
	h.Write(mut[: len(mut)-8 : len(mut)-8])
	binary.LittleEndian.PutUint64(mut[len(mut)-8:], h.Sum64())
	return mut
}

// RestoreSafe is Restore for snapshots of untrusted provenance (a disk
// store another process wrote). A snapshot that breaks an invariant the
// machine's fast paths rely on is rejected with ErrSnapshotInconsistent
// before anything is overwritten. A geometry or scheme mismatch — which
// Restore reports by panicking, as it indicates a caller bug on the
// in-memory path — comes back as an error, with the machine owed a
// rebuild by the caller (its state may be partially overwritten).
func (m *Machine) RestoreSafe(s *Snapshot) (err error) {
	if err := s.checkConsistent(); err != nil {
		return err
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sim: restore rejected: %v", p)
		}
	}()
	m.Restore(s)
	return nil
}

// checkConsistent verifies the cross-part invariants a live machine
// keeps and a decoded snapshot could break:
//   - every valid TLB entry caches a present page, which the page-driven
//     shootdown in FlushTLBRangeAll relies on (entries at or above
//     pagetable.MaxVPN are exempt: that path never probes for them);
//   - the span index is the attach table's spans in spanBefore order,
//     which Attach and Detach maintain incrementally.
func (s *Snapshot) checkConsistent() error {
	for i := range s.cores {
		for lvl, st := range [2]*tlb.State{&s.cores[i].l1, &s.cores[i].l2} {
			var bad uint64
			ok := st.ValidVPNs(func(vpn uint64) bool {
				if vpn >= pagetable.MaxVPN {
					return true
				}
				if _, present := s.pt.Lookup(memlayout.VA(vpn << memlayout.PageShift)); present {
					return true
				}
				bad = vpn
				return false
			})
			if !ok {
				return fmt.Errorf("%w: core %d L%d TLB caches vpn %#x, which has no present PTE",
					ErrSnapshotInconsistent, i, lvl+1, bad)
			}
		}
	}
	if len(s.spans) != len(s.domains) {
		return fmt.Errorf("%w: %d spans for %d attached domains", ErrSnapshotInconsistent, len(s.spans), len(s.domains))
	}
	for i := 1; i < len(s.spans); i++ {
		if !spanBefore(s.spans[i-1], s.spans[i]) {
			return fmt.Errorf("%w: span index out of order at %d", ErrSnapshotInconsistent, i)
		}
	}
	for d, di := range s.domains {
		sp := spanOf(di)
		if i := spanIndex(s.spans, sp); i == len(s.spans) || s.spans[i] != sp {
			return fmt.Errorf("%w: domain %d has no span", ErrSnapshotInconsistent, d)
		}
	}
	return nil
}

func appendBreakdown(b []byte, bd *stats.Breakdown) []byte {
	b = bincodec.U32(b, uint32(stats.NumCategories))
	for _, v := range bd.Cycles {
		b = bincodec.U64(b, v)
	}
	for _, v := range bd.Counts {
		b = bincodec.U64(b, v)
	}
	return b
}

func decodeBreakdown(r *bincodec.Reader, bd *stats.Breakdown) {
	if n := r.Count(16); n != stats.NumCategories {
		r.Fail(fmt.Errorf("breakdown has %d categories, want %d", n, stats.NumCategories))
		return
	}
	for i := range bd.Cycles {
		bd.Cycles[i] = r.U64()
	}
	for i := range bd.Counts {
		bd.Counts[i] = r.U64()
	}
}

// counterFields lists every stats.Counters field in encoding order. The
// codec round-trip test checks this list against the struct by
// reflection, so a new counter cannot be silently dropped from the
// format.
func counterFields(c *stats.Counters) []*uint64 {
	return []*uint64{
		&c.Instructions, &c.Loads, &c.Stores,
		&c.TLBL1Hits, &c.TLBL2Hits, &c.TLBMisses, &c.TLBFlushed, &c.DebtRefills,
		&c.L1DHits, &c.L2Hits, &c.MemReads, &c.MemWrites, &c.NVMReads, &c.NVMWrites,
		&c.PermSwitches, &c.Evictions, &c.DTTWalks,
		&c.PTLBMisses, &c.PTLBHits, &c.DTTLBHits, &c.DTTLBMisses,
		&c.DomainFaults, &c.PageFaults,
		&c.ContextSwitches,
	}
}

func appendCounters(b []byte, c *stats.Counters) []byte {
	fields := counterFields(c)
	b = bincodec.U32(b, uint32(len(fields)))
	for _, f := range fields {
		b = bincodec.U64(b, *f)
	}
	return b
}

func decodeCounters(r *bincodec.Reader, c *stats.Counters) {
	fields := counterFields(c)
	if n := r.Count(8); n != len(fields) {
		r.Fail(fmt.Errorf("counters has %d fields, want %d", n, len(fields)))
		return
	}
	for _, f := range fields {
		*f = r.U64()
	}
}

func appendMemState(b []byte, st mem.State) []byte {
	b = bincodec.U64(b, uint64(st.NextDRAM))
	b = bincodec.U64(b, uint64(st.NextNVM))
	b = bincodec.U64(b, st.DRAMReads)
	b = bincodec.U64(b, st.NVMReads)
	b = bincodec.U64(b, st.DRAMWr)
	b = bincodec.U64(b, st.NVMWr)
	return b
}

func decodeMemState(r *bincodec.Reader) mem.State {
	return mem.State{
		NextDRAM:  memlayout.PA(r.U64()),
		NextNVM:   memlayout.PA(r.U64()),
		DRAMReads: r.U64(),
		NVMReads:  r.U64(),
		DRAMWr:    r.U64(),
		NVMWr:     r.U64(),
	}
}

func appendRecorderState(b []byte, st *obs.RecorderState) []byte {
	b = bincodec.U64(b, st.Last.Retired)
	b = appendCounters(b, &st.Last.Counters)
	b = appendBreakdown(b, &st.Last.Breakdown)
	b = bincodec.U32(b, uint32(len(st.Last.Cores)))
	for _, cs := range st.Last.Cores {
		b = bincodec.U64(b, cs.Cycles)
		b = bincodec.U64(b, cs.TLBL1Hits)
		b = bincodec.U64(b, cs.TLBL2Hits)
		b = bincodec.U64(b, cs.TLBMisses)
	}
	b = bincodec.U32(b, uint32(st.Samples))
	b = bincodec.U32(b, uint32(len(st.EvAccum)))
	for _, ev := range st.EvAccum {
		for _, v := range ev {
			b = bincodec.U64(b, v)
		}
	}
	return b
}

func decodeRecorderState(r *bincodec.Reader, st *obs.RecorderState) {
	st.Last.Retired = r.U64()
	decodeCounters(r, &st.Last.Counters)
	decodeBreakdown(r, &st.Last.Breakdown)
	ncore := r.Count(32)
	st.Last.Cores = make([]obs.CoreState, ncore)
	for i := range st.Last.Cores {
		cs := &st.Last.Cores[i]
		cs.Cycles = r.U64()
		cs.TLBL1Hits = r.U64()
		cs.TLBL2Hits = r.U64()
		cs.TLBMisses = r.U64()
	}
	st.Samples = int(r.U32())
	nev := r.Count(8 * stats.NumEventKinds)
	st.EvAccum = make([][stats.NumEventKinds]uint64, nev)
	for i := range st.EvAccum {
		for j := 0; j < stats.NumEventKinds; j++ {
			st.EvAccum[i][j] = r.U64()
		}
	}
}
