package sim

import (
	"fmt"
	"math"
	"sort"

	"domainvirt/internal/cache"
	"domainvirt/internal/core"
	"domainvirt/internal/mem"
	"domainvirt/internal/memlayout"
	"domainvirt/internal/obs"
	"domainvirt/internal/pagetable"
	"domainvirt/internal/stats"
	"domainvirt/internal/tlb"
	"domainvirt/internal/trace"
)

// FaultRecord captures one denied access or blocked permission change for
// diagnostics and security tests.
type FaultRecord struct {
	Thread core.ThreadID
	VA     memlayout.VA
	Write  bool
	Domain core.DomainID
	Page   bool // true if the page permission (not the domain) denied it
}

// String implements fmt.Stringer.
func (f FaultRecord) String() string {
	op := "load"
	if f.Write {
		op = "store"
	}
	kind := "domain"
	if f.Page {
		kind = "page"
	}
	return fmt.Sprintf("%s fault: %s %#x by thread %d (domain %d)", kind, op, uint64(f.VA), f.Thread, f.Domain)
}

// L0 verdict-replay modes: how a memoized engine check is re-applied on a
// fast-path hit. Every mode replays, by construction, exactly the
// counters, breakdown attribution, and cycles the full Check would have
// produced for the same (engine state, tag, write) — see
// ARCHITECTURE.md "Performance model & hot-path invariants".
const (
	// l0Full re-runs the concrete engine Check: always bit-identical,
	// used for engines whose Check has state-dependent side effects
	// (libmpk's LRU clock, MPK-family PKRU reads, external engines).
	l0Full uint8 = iota
	// l0Pass covers (engine, tag) pairs whose Check is provably the pure
	// verdict {allowed, 0 cycles}: baseline/lowerbound always, and the
	// null (domainless) tag under MPK, MPKVirt, and DomainVirt.
	l0Pass
	// l0DVSlot replays DomainVirt's PTLB-hit arm through a memoized PTLB
	// slot (CheckRepeat), falling back to the full CheckFill when an
	// interleaved miss evicted the slot.
	l0DVSlot
	// l0PKRU replays a keyed MPK/MPKVirt check from the memoized PKRU
	// read. Their Check is a pure, costless PKRU lookup, and every path
	// that can change the verdict either bumps the mutation generation
	// (SetPerm, Attach, Detach, key remap — the remap's Range_Flush
	// shootdown bumps it) or clears the L0 (context switch), so within a
	// generation the memoized {read-allow, write-allow} pair is the live
	// PKRU content.
	l0PKRU
)

// l0Entries sizes the per-core L0 micro-TLB: a small direct-mapped array
// of last-translation slots indexed by the low VPN bits, so streams that
// rotate over a few hot pages keep one memoized translation per page.
// Must be a power of two.
const l0Entries = 8

// l0Slot is one entry of a core's L0 micro-TLB: the L1 TLB position of a
// recent translation plus how to replay its permission check. It is
// valid only while gen matches the machine's mutation generation; any
// SetPerm/Attach/Detach/shootdown/affinity change bumps the generation
// and thereby drops every core's slots. The TLB position is additionally
// self-validating (tlb.TouchHit re-checks the entry), so staleness can
// only send an access down the slow path, never corrupt a replay.
type l0Slot struct {
	gen    uint64 // Machine.mutGen at fill time; 0 never matches
	vpn    uint64
	pos    int // flat L1 TLB position of the memoized entry
	mode   uint8
	allowR bool          // memoized read verdict (l0PKRU only)
	allowW bool          // memoized write verdict (l0PKRU only)
	slot   int           // memoized PTLB slot (l0DVSlot only)
	dom    core.DomainID // memoized domain (l0DVSlot only)
}

// coreState is the per-core microarchitectural state. The tlb* fields
// shadow the machine-wide counters per core so the observability sampler
// can report per-core TLB hit rates.
type coreState struct {
	id        int
	l1tlb     *tlb.TLB
	l2tlb     *tlb.TLB
	debt      *tlb.Debt
	l0        [l0Entries]l0Slot
	cycles    uint64
	instRem   uint64
	thread    core.ThreadID
	active    bool
	tlbL1Hits uint64
	tlbL2Hits uint64
	tlbMisses uint64
}

// engineKind discriminates the built-in engines for devirtualized
// dispatch; ekOther routes through the Engine interface unchanged.
type engineKind uint8

const (
	ekOther engineKind = iota
	ekBaseline
	ekLowerbound
	ekMPK
	ekLibmpk
	ekMPKVirt
	ekDomainVirt
)

// Machine is one simulated multicore running a protected process. It
// implements trace.Sink so workloads (or trace replays) drive it directly.
type Machine struct {
	cfg    Config
	engine core.Engine
	pt     *pagetable.Table
	memory *mem.Memory
	caches *cache.Hierarchy
	cores  []*coreState

	bd  stats.Breakdown
	ctr stats.Counters

	domains   map[core.DomainID]domainInfo
	spans     []domSpan // attach regions sorted by spanBefore, backing demandMap
	inspector *core.Inspector
	affinity  map[core.ThreadID]int

	// curTh/curCore memoize the last coreFor resolution: a repeated call
	// for the running thread is a no-op (placement is deterministic,
	// c.active and c.thread are already set), so the map lookup and
	// modulo only run when the thread actually changes. SetAffinity and
	// ResetStats invalidate the memo.
	curTh   core.ThreadID
	curCore *coreState

	// cpiShift/cpiPow2 precompute the Instr divide for power-of-two
	// CPIDen (the default 1/4): cyc = num >> cpiShift is exact.
	cpiShift uint
	cpiPow2  bool

	// mutGen is the mutation generation: bumped by every operation that
	// can change translations, permissions, or per-core engine state
	// (SetPerm, Attach, Detach, TLB shootdowns, PTE key rewrites,
	// affinity moves). A core's l0Slot is valid only while its recorded
	// generation matches, so one counter increment invalidates every
	// memoized translation machine-wide.
	mutGen uint64

	// Devirtualized engine dispatch: ekind selects a concrete-typed
	// Check call on the per-access path so the interface call (an
	// inlining barrier) only remains for engines constructed outside
	// this package (ablation wrappers).
	ekind       engineKind
	ebaseline   *core.Baseline
	elowerbound *core.Lowerbound
	empk        *core.MPK
	elibmpk     *core.Libmpk
	empkvirt    *core.MPKVirt
	edomvirt    *core.DomainVirt

	faults        []FaultRecord
	faultsDropped uint64

	// probeMax bounds the page-driven shootdown: a range with at most
	// this many present pages is invalidated by per-page TLB probes,
	// a denser one by the full tlb.FlushRange scan. flushVPNs is the
	// reused buffer the present pages are listed into.
	probeMax  int
	flushVPNs []uint64

	// rec is the optional observability recorder; recNext is the retired
	// count at which the next epoch sample fires (MaxUint64 when no
	// sampling is due). Every hook is guarded by a rec nil check, so an
	// unobserved run pays nothing on the access path.
	rec     *obs.Recorder
	recNext uint64
}

type domainInfo struct {
	region memlayout.Region
	perm   core.Perm
}

// domSpan is one attached region in demandMap's sorted index. Attach
// regions never overlap (the engine's domain table rejects overlap before
// the span is recorded), so binary search by end address finds the unique
// candidate span for any address.
type domSpan struct {
	base, end memlayout.VA
	writable  bool
}

// spanOf returns the span-index entry of an attached region.
func spanOf(di domainInfo) domSpan {
	return domSpan{base: di.region.Base, end: di.region.End(), writable: di.perm.CanWrite()}
}

// spanBefore is the total order of the span index: by base, then end,
// then read-only before writable.
func spanBefore(a, b domSpan) bool {
	if a.base != b.base {
		return a.base < b.base
	}
	if a.end != b.end {
		return a.end < b.end
	}
	return !a.writable && b.writable
}

// spanIndex returns the position of the first span in spans not ordered
// before sp: where sp is, or would be inserted.
func spanIndex(spans []domSpan, sp domSpan) int {
	return sort.Search(len(spans), func(i int) bool { return !spanBefore(spans[i], sp) })
}

// insertSpan adds the span of di to the sorted index.
func (m *Machine) insertSpan(di domainInfo) {
	sp := spanOf(di)
	i := spanIndex(m.spans, sp)
	m.spans = append(m.spans, domSpan{})
	copy(m.spans[i+1:], m.spans[i:])
	m.spans[i] = sp
}

// removeSpan deletes the span of di from the sorted index.
func (m *Machine) removeSpan(di domainInfo) {
	sp := spanOf(di)
	if i := spanIndex(m.spans, sp); i < len(m.spans) && m.spans[i] == sp {
		m.spans = append(m.spans[:i], m.spans[i+1:]...)
	}
}

// NewMachine builds a machine with the given scheme's engine.
func NewMachine(cfg Config, scheme Scheme) *Machine {
	return NewMachineWithEngine(cfg, NewEngine(scheme, cfg))
}

// NewMachineWithEngine builds a machine around an explicit engine.
func NewMachineWithEngine(cfg Config, eng core.Engine) *Machine {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	m := &Machine{
		cfg:     cfg,
		engine:  eng,
		pt:      pagetable.New(),
		memory:  mem.New(cfg.Mem),
		domains: make(map[core.DomainID]domainInfo),
	}
	m.caches = cache.NewHierarchy(cfg.Cores, cfg.L1D, cfg.L2, m.memory)
	for i := 0; i < cfg.Cores; i++ {
		m.cores = append(m.cores, &coreState{
			id:    i,
			l1tlb: tlb.New(cfg.L1TLB),
			l2tlb: tlb.New(cfg.L2TLB),
			debt:  tlb.NewDebt(),
		})
	}
	m.probeMax = cfg.L2TLB.Entries / cfg.L2TLB.Ways // the L2 set count
	m.flushVPNs = make([]uint64, 0, m.probeMax)
	m.mutGen = 1 // l0Slot.gen zero value never matches
	if den := m.cfg.CPIDen; den > 0 && den&(den-1) == 0 {
		m.cpiPow2 = true
		for den > 1 {
			m.cpiShift++
			den >>= 1
		}
	}
	switch e := eng.(type) {
	case *core.Baseline:
		m.ekind, m.ebaseline = ekBaseline, e
	case *core.Lowerbound:
		m.ekind, m.elowerbound = ekLowerbound, e
	case *core.MPK:
		m.ekind, m.empk = ekMPK, e
	case *core.Libmpk:
		m.ekind, m.elibmpk = ekLibmpk, e
	case *core.MPKVirt:
		m.ekind, m.empkvirt = ekMPKVirt, e
	case *core.DomainVirt:
		m.ekind, m.edomvirt = ekDomainVirt, e
	}
	eng.Bind(m, &m.bd, &m.ctr)
	return m
}

// bumpGen invalidates every core's last-translation slot.
func (m *Machine) bumpGen() { m.mutGen++ }

// check dispatches a permission check to the engine's concrete type.
// Each arm calls the same method the interface would reach, so dispatch
// is behavior-preserving by construction.
func (m *Machine) check(ctx core.AccessCtx) core.Verdict {
	switch m.ekind {
	case ekBaseline:
		return m.ebaseline.Check(ctx)
	case ekLowerbound:
		return m.elowerbound.Check(ctx)
	case ekMPK:
		return m.empk.Check(ctx)
	case ekLibmpk:
		return m.elibmpk.Check(ctx)
	case ekMPKVirt:
		return m.empkvirt.Check(ctx)
	case ekDomainVirt:
		return m.edomvirt.Check(ctx)
	}
	return m.engine.Check(ctx)
}

// l0fill classifies how a memoized check for tag replays under the bound
// engine and fills the slot's replay state. dvSlot is the PTLB slot
// CheckFill reported (DomainVirt only). For the MPK family the pure
// PKRU verdict is sampled for both access kinds (Check is side-effect
// free, so the extra probe changes nothing).
func (m *Machine) l0fill(l0 *l0Slot, coreID int, tag uint16, dvSlot int) {
	l0.slot, l0.dom = -1, core.NullDomain
	switch m.ekind {
	case ekBaseline, ekLowerbound:
		l0.mode = l0Pass
		return
	case ekMPK:
		if tag == core.TagNone {
			l0.mode = l0Pass
			return
		}
		l0.mode = l0PKRU
		l0.allowR = m.empk.Check(core.AccessCtx{Core: coreID, Tag: tag}).Allowed
		l0.allowW = m.empk.Check(core.AccessCtx{Core: coreID, Tag: tag, Write: true}).Allowed
		return
	case ekMPKVirt:
		if tag == core.TagNone {
			l0.mode = l0Pass
			return
		}
		l0.mode = l0PKRU
		l0.allowR = m.empkvirt.Check(core.AccessCtx{Core: coreID, Tag: tag}).Allowed
		l0.allowW = m.empkvirt.Check(core.AccessCtx{Core: coreID, Tag: tag, Write: true}).Allowed
		return
	case ekDomainVirt:
		if tag == core.TagNone {
			l0.mode = l0Pass
			return
		}
		l0.mode = l0DVSlot
		l0.slot, l0.dom = dvSlot, core.DomainID(tag)
		return
	}
	// libmpk (LRU clock side effects even on hits) and external engines:
	// always re-run the real Check.
	l0.mode = l0Full
}

// Engine returns the bound protection engine.
func (m *Machine) Engine() core.Engine { return m.engine }

// SetRecorder attaches (nil: detaches) an observability recorder. The
// recorder samples epoch deltas every rec.EpochLen() retired
// instructions, receives per-access and per-SETPERM latencies, and is
// wired into the engine as its eviction/shootdown event sink. Attaching
// a recorder never changes simulated timing: the recorder only reads.
func (m *Machine) SetRecorder(rec *obs.Recorder) {
	m.rec = rec
	var sink stats.EventSink
	m.recNext = math.MaxUint64
	if rec != nil {
		sink = rec
		if step := rec.EpochLen(); step > 0 {
			m.recNext = m.retired() + step
		}
	}
	if em, ok := m.engine.(core.EventEmitter); ok {
		em.SetEventSink(sink)
	}
}

// FlushObs records the final (partial) epoch and the end-of-run totals
// into the attached recorder. Call once after the measured phase,
// before Result.
func (m *Machine) FlushObs() {
	if m.rec != nil {
		m.rec.Finish(m.obsState(m.retired()))
	}
}

// retired is the observability epoch clock: instructions + loads +
// stores retired so far.
func (m *Machine) retired() uint64 {
	return m.ctr.Instructions + m.ctr.Loads + m.ctr.Stores
}

// obsTick fires an epoch sample when the retired clock crossed the next
// boundary. Callers must have checked m.rec != nil.
func (m *Machine) obsTick() {
	if r := m.retired(); r >= m.recNext {
		step := m.rec.EpochLen()
		for m.recNext <= r {
			m.recNext += step
		}
		m.rec.TakeSample(m.obsState(r))
	}
}

// obsState snapshots the cumulative machine state for the sampler. Only
// called at sample points, never per access.
func (m *Machine) obsState(retired uint64) obs.MachineState {
	st := obs.MachineState{
		Retired:   retired,
		Counters:  m.counterSnapshot(),
		Breakdown: m.bd,
		Cores:     make([]obs.CoreState, len(m.cores)),
	}
	for i, c := range m.cores {
		st.Cores[i] = obs.CoreState{
			Cycles:    c.cycles,
			TLBL1Hits: c.tlbL1Hits,
			TLBL2Hits: c.tlbL2Hits,
			TLBMisses: c.tlbMisses,
		}
	}
	return st
}

// SetInspector installs an ERIM-style SETPERM site inspector; permission
// changes from unapproved sites are blocked and recorded.
func (m *Machine) SetInspector(in *core.Inspector) { m.inspector = in }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// SetAffinity migrates a thread to a specific core; subsequent events
// from th run there, paying the usual context-switch and state
// reconstruction costs. The default placement is static round-robin.
func (m *Machine) SetAffinity(th core.ThreadID, coreID int) {
	if m.affinity == nil {
		m.affinity = make(map[core.ThreadID]int)
	}
	if coreID < 0 || coreID >= len(m.cores) {
		coreID = 0
	}
	m.affinity[th] = coreID
	m.curCore = nil
	m.bumpGen()
}

// coreFor maps a thread to its core (static round-robin placement unless
// migrated via SetAffinity) and performs a context switch when the core
// was running another thread. The nil-map and single-core short circuits
// keep the unpinned common case free of map and modulo work.
func (m *Machine) coreFor(th core.ThreadID) *coreState {
	if th == m.curTh && m.curCore != nil {
		return m.curCore
	}
	c := m.coreForSlow(th)
	m.curTh, m.curCore = th, c
	return c
}

func (m *Machine) coreForSlow(th core.ThreadID) *coreState {
	idx := 0
	pinned := false
	if m.affinity != nil {
		idx, pinned = m.affinity[th]
	}
	if !pinned && th > 0 && len(m.cores) > 1 {
		idx = int((uint32(th) - 1) % uint32(len(m.cores)))
	}
	c := m.cores[idx]
	c.active = true
	if c.thread != th {
		// The engine swaps per-core thread state (PKRU, PTLB/DTTLB):
		// drop the memoized translations before their verdicts go stale.
		for i := range c.l0 {
			c.l0[i].gen = 0
		}
		if c.thread != 0 {
			m.ctr.ContextSwitches++
			c.cycles += m.cfg.CtxSwitchCost
			m.bd.Add(stats.CatBase, m.cfg.CtxSwitchCost)
		}
		c.cycles += m.engine.ContextSwitch(c.id, th)
		c.thread = th
	}
	return c
}

// Instr implements trace.Sink: n non-memory instructions at the base CPI.
func (m *Machine) Instr(th core.ThreadID, n uint64) {
	c := m.coreFor(th)
	m.ctr.Instructions += n
	num := n*m.cfg.CPINum + c.instRem
	var cyc uint64
	if m.cpiPow2 {
		cyc = num >> m.cpiShift
		c.instRem = num & (1<<m.cpiShift - 1)
	} else {
		cyc = num / m.cfg.CPIDen
		c.instRem = num % m.cfg.CPIDen
	}
	c.cycles += cyc
	m.bd.AddN(stats.CatBase, cyc, 0)
	if m.rec != nil {
		m.obsTick()
	}
}

// Access implements trace.Sink: one load or store, split at cache-line
// boundaries. It returns false if any piece was denied by the domain or
// page permission, in which case the caller must suppress the data
// transfer.
func (m *Machine) Access(th core.ThreadID, va memlayout.VA, size uint32, write bool) bool {
	if size == 0 {
		size = 1
	}
	// Single-line fast path: almost every access fits one cache line, so
	// SplitLine's closure and indirect call only run for straddlers. The
	// guard is the exact complement of "SplitLine would call fn twice".
	if uint64(va)&(memlayout.LineSize-1)+uint64(size) <= memlayout.LineSize {
		return m.access1(th, va, write)
	}
	allowed := true
	memlayout.SplitLine(va, size, func(pva memlayout.VA, _ uint32) {
		if !m.access1(th, pva, write) {
			allowed = false
		}
	})
	return allowed
}

func (m *Machine) access1(th core.ThreadID, va memlayout.VA, write bool) bool {
	c := m.coreFor(th)
	if write {
		m.ctr.Stores++
	} else {
		m.ctr.Loads++
	}

	// cyc is the total latency of this access; baseCyc (identical until
	// the slow path diverges) is the portion an unprotected run would
	// also pay, attributed to CatBase. Engine costs are attributed by
	// the engine itself.
	cyc := m.cfg.L1TLBLat
	vpn := memlayout.PageNum(va)

	// L0 fast path: repeated same-page access with no intervening
	// mutation. TouchHit revalidates the memoized L1 TLB position and
	// replays the exact Lookup-hit bookkeeping; the memoized mode
	// replays the exact engine check. Falls through to the full path on
	// any staleness.
	if l0 := &c.l0[vpn&(l0Entries-1)]; l0.gen == m.mutGen && l0.vpn == vpn {
		if e, ok := c.l1tlb.TouchHit(l0.pos, vpn); ok {
			m.ctr.TLBL1Hits++
			c.tlbL1Hits++
			var verdict core.Verdict
			switch l0.mode {
			case l0Pass:
				verdict = core.Verdict{Allowed: true}
			case l0PKRU:
				if write {
					verdict = core.Verdict{Allowed: l0.allowW}
				} else {
					verdict = core.Verdict{Allowed: l0.allowR}
				}
			case l0DVSlot:
				var live bool
				verdict, live = m.edomvirt.CheckRepeat(c.id, l0.slot, l0.dom, write)
				if !live {
					// The memoized PTLB slot was evicted by an
					// interleaved miss: run the real check (identical
					// to the slow path's, the TLB hit already
					// replayed) and re-memoize the new slot.
					verdict, l0.slot = m.edomvirt.CheckFill(core.AccessCtx{
						Core: c.id, Thread: th, VA: va, Write: write,
						TLBHit: true, Tag: e.Tag,
					})
				}
			default: // l0Full
				verdict = m.check(core.AccessCtx{
					Core: c.id, Thread: th, VA: va, Write: write,
					TLBHit: true, Tag: e.Tag,
				})
			}
			return m.finishAccess(c, th, va, write, e.PFN, e.Writable, verdict, cyc, cyc)
		}
	}

	baseCyc := cyc
	var entry tlb.Entry
	tlbHit := true
	var pos int
	if e, p, ok := c.l1tlb.LookupPos(vpn); ok {
		m.ctr.TLBL1Hits++
		c.tlbL1Hits++
		entry = *e
		pos = p
	} else {
		cyc += m.cfg.L2TLBLat
		baseCyc += m.cfg.L2TLBLat
		if e2, ok := c.l2tlb.Lookup(vpn); ok {
			m.ctr.TLBL2Hits++
			c.tlbL2Hits++
			entry = *e2
			pos, _, _ = c.l1tlb.InsertPos(entry)
		} else {
			// TLB miss: page walk (and, for the domain engines, the
			// DTT/DRT machinery via FillTag).
			tlbHit = false
			m.ctr.TLBMisses++
			c.tlbMisses++
			walk := m.cfg.WalkPenalty
			if c.debt.Settle(vpn) {
				// Refill forced by a TLB invalidation: attribute the
				// walk to the invalidation, not the base run.
				m.ctr.DebtRefills++
				m.bd.Add(stats.CatTLBInval, walk)
			} else {
				baseCyc += walk
			}
			cyc += walk

			pte, ok := m.pt.Lookup(va)
			if !ok {
				pte = m.demandMap(va)
				cyc += m.cfg.MinorFault
				baseCyc += m.cfg.MinorFault
			}
			tag, extra := m.engine.FillTag(c.id, th, va)
			cyc += extra
			entry = tlb.Entry{VPN: vpn, PFN: pte.PFN, Writable: pte.Writable, Tag: tag, Valid: true}
			c.l2tlb.Insert(entry)
			pos, _, _ = c.l1tlb.InsertPos(entry)
		}
	}

	ctx := core.AccessCtx{
		Core:   c.id,
		Thread: th,
		VA:     va,
		Write:  write,
		TLBHit: tlbHit,
		Tag:    entry.Tag,
	}
	var verdict core.Verdict
	dvSlot := -1
	if m.ekind == ekDomainVirt {
		verdict, dvSlot = m.edomvirt.CheckFill(ctx)
	} else {
		verdict = m.check(ctx)
	}

	if !m.cfg.DisableFastPath {
		l0 := &c.l0[vpn&(l0Entries-1)]
		l0.gen = m.mutGen
		l0.vpn = vpn
		l0.pos = pos
		m.l0fill(l0, c.id, entry.Tag, dvSlot)
	}

	return m.finishAccess(c, th, va, write, entry.PFN, entry.Writable, verdict, cyc, baseCyc)
}

// finishAccess applies one access's verdict: fault recording on denial,
// the cache-hierarchy access on success, and the cycle attribution both
// outcomes share. It is the common tail of the L0 fast path and the full
// translation path, which makes the two cycle-identical by construction.
func (m *Machine) finishAccess(c *coreState, th core.ThreadID, va memlayout.VA, write bool, pfn uint64, writable bool, verdict core.Verdict, cyc, baseCyc uint64) bool {
	cyc += verdict.Cycles

	pageOK := !write || writable
	if !verdict.Allowed || !pageOK {
		m.recordFault(FaultRecord{
			Thread: th,
			VA:     va,
			Write:  write,
			Domain: m.engine.DomainOf(va),
			Page:   verdict.Allowed && !pageOK,
		})
		if verdict.Allowed {
			m.ctr.PageFaults++
		} else {
			m.ctr.DomainFaults++
		}
		m.bd.AddN(stats.CatBase, baseCyc, 0)
		c.cycles += cyc
		if m.rec != nil {
			m.rec.ObserveAccess(cyc)
			m.obsTick()
		}
		return false // access suppressed
	}

	pa := memlayout.PA(pfn<<memlayout.PageShift) + memlayout.PA(memlayout.PageOffset(va))
	lat, _ := m.caches.Access(c.id, pa, write)
	cyc += lat
	baseCyc += lat
	m.bd.AddN(stats.CatBase, baseCyc, 0)
	c.cycles += cyc
	if m.rec != nil {
		m.rec.ObserveAccess(cyc)
		m.obsTick()
	}
	return true
}

// demandMap allocates and maps a frame for the first touch of a page.
// Pages inside an attached PMO region are NVM-backed with the attach
// permission; everything else is writable DRAM. The attach regions are
// held in a sorted span index (kept sorted by Attach and Detach), so the
// lookup is a binary search instead of a linear scan over every live
// domain.
func (m *Machine) demandMap(va memlayout.VA) pagetable.PTE {
	kind := mem.DRAM
	writable := true
	i := sort.Search(len(m.spans), func(i int) bool { return m.spans[i].end > va })
	if i < len(m.spans) && m.spans[i].base <= va {
		kind = mem.NVM
		writable = m.spans[i].writable
	}
	pa := m.memory.AllocFrame(kind)
	m.pt.Map(memlayout.PageBase(va), pa, writable)
	pte, _ := m.pt.Lookup(va)
	return pte
}

// Fetch implements trace.Sink: one instruction fetch. Domain permissions
// never block execution — the paper's executable-only memory: "changing
// the domain permission as inaccessible in the PKRU register... code can
// still jump to this domain and execute code but all reads and writes
// are prohibited". Page presence and translation costs still apply.
func (m *Machine) Fetch(th core.ThreadID, va memlayout.VA) bool {
	c := m.coreFor(th)
	var cyc, engCyc uint64
	cyc += m.cfg.L1TLBLat
	vpn := memlayout.PageNum(va)

	var entry tlb.Entry
	if e, ok := c.l1tlb.Lookup(vpn); ok {
		m.ctr.TLBL1Hits++
		c.tlbL1Hits++
		entry = *e
	} else {
		cyc += m.cfg.L2TLBLat
		if e2, ok := c.l2tlb.Lookup(vpn); ok {
			m.ctr.TLBL2Hits++
			c.tlbL2Hits++
			entry = *e2
			c.l1tlb.Insert(entry)
		} else {
			m.ctr.TLBMisses++
			c.tlbMisses++
			cyc += m.cfg.WalkPenalty
			pte, ok := m.pt.Lookup(va)
			if !ok {
				pte = m.demandMap(va)
				cyc += m.cfg.MinorFault
			}
			tag, extra := m.engine.FillTag(c.id, th, va)
			cyc += extra
			engCyc += extra
			entry = tlb.Entry{VPN: vpn, PFN: pte.PFN, Writable: pte.Writable, Tag: tag, Valid: true}
			c.l2tlb.Insert(entry)
			c.l1tlb.Insert(entry)
		}
	}
	pa := memlayout.PA(entry.PFN<<memlayout.PageShift) + memlayout.PA(memlayout.PageOffset(va))
	lat, _ := m.caches.Access(c.id, pa, false)
	cyc += lat
	// The engine attributes its FillTag cycles itself; only the rest is
	// base-run work.
	m.bd.AddN(stats.CatBase, cyc-engCyc, 0)
	c.cycles += cyc
	return true
}

// SetPerm implements trace.Sink.
func (m *Machine) SetPerm(th core.ThreadID, d core.DomainID, p core.Perm, site core.SiteID) {
	if m.inspector != nil && !m.inspector.Allow(site, th, d, p) {
		m.ctr.DomainFaults++
		m.recordFault(FaultRecord{Thread: th, Domain: d})
		return
	}
	m.bumpGen()
	c := m.coreFor(th)
	cost := m.engine.SetPerm(c.id, th, d, p)
	c.cycles += cost
	if m.rec != nil {
		m.rec.ObserveSetPerm(cost)
	}
}

// Attach implements trace.Sink. Mapping a PMO over a VA range
// invalidates any translations cached for it (mmap semantics): without
// the flush, a TLB entry warmed by a pre-attach access would keep its
// domainless tag and bypass the new domain's checks.
func (m *Machine) Attach(d core.DomainID, r memlayout.Region, perm core.Perm) error {
	if err := m.engine.Attach(d, r); err != nil {
		return err
	}
	m.FlushTLBRangeAll(r)
	if old, ok := m.domains[d]; ok {
		m.removeSpan(old)
	}
	di := domainInfo{region: r, perm: perm}
	m.domains[d] = di
	m.insertSpan(di)
	m.bumpGen()
	return nil
}

// Detach implements trace.Sink.
func (m *Machine) Detach(d core.DomainID) {
	m.engine.Detach(d)
	if di, ok := m.domains[d]; ok {
		m.removeSpan(di)
		delete(m.domains, d)
	}
	m.bumpGen()
}

// Fence implements trace.Sink: a persist barrier, present in the baseline
// run too.
func (m *Machine) Fence(th core.ThreadID) {
	c := m.coreFor(th)
	c.cycles += m.cfg.FenceCost
	m.bd.AddN(stats.CatBase, m.cfg.FenceCost, 0)
}

func (m *Machine) recordFault(f FaultRecord) {
	if len(m.faults) < m.cfg.MaxFaultRecords {
		m.faults = append(m.faults, f)
	} else {
		// The retained window is full: count the drop so fault-heavy
		// adversarial traces bound memory without losing the signal
		// that more faults occurred.
		m.faultsDropped++
	}
}

// Faults returns a copy of the recorded fault diagnostics. Returning a
// copy keeps callers from corrupting later fault attribution by mutating
// (or appending into) the machine's live record window.
func (m *Machine) Faults() []FaultRecord {
	if len(m.faults) == 0 {
		return nil
	}
	return append([]FaultRecord(nil), m.faults...)
}

// FaultsDropped returns how many fault records were dropped after the
// retained window reached Config.MaxFaultRecords.
func (m *Machine) FaultsDropped() uint64 { return m.faultsDropped }

// NumCores implements core.Hooks.
func (m *Machine) NumCores() int { return len(m.cores) }

// FlushTLBRangeAll implements core.Hooks: the TLB shootdown primitive.
//
// Every valid TLB entry maps a present page (fills follow demandMap and
// nothing unmaps), so a range's entries can only sit at its present
// pages. A sparse range is therefore invalidated by probing each core's
// TLBs for just those pages; one with more than probeMax present pages
// (or with no radix-resolvable page list) takes the full FlushRange scan.
// Both give the same flushed counts, owed pages, and survivors.
func (m *Machine) FlushTLBRangeAll(r memlayout.Region) int {
	m.bumpGen()
	vpns, probe := m.presentVPNs(r)
	total := 0
	for _, c := range m.cores {
		var n1, n2 int
		if probe {
			for _, vpn := range vpns {
				in1 := c.l1tlb.Invalidate(vpn)
				in2 := c.l2tlb.Invalidate(vpn)
				if in1 {
					n1++
				}
				if in2 {
					n2++
				}
				if in1 || in2 {
					c.debt.Owe(vpn)
				}
			}
		} else {
			owe := func(vpn uint64) { c.debt.Owe(vpn) }
			n1 = c.l1tlb.FlushRange(r, owe)
			n2 = c.l2tlb.FlushRange(r, owe)
		}
		// L1 entries are a subset of L2's working set; count distinct
		// pages as the L2 flush count plus any L1-only stragglers.
		n := n2
		if n1 > n2 {
			n = n1
		}
		total += n
	}
	m.ctr.TLBFlushed += uint64(total)
	return total
}

// presentVPNs lists the present pages of the pages r touches (the page
// range FlushRange covers) into the reused scratch buffer. ok is false
// when the list would exceed probeMax or r is not a range the radix
// resolves without aliasing; the caller then falls back to the scan.
func (m *Machine) presentVPNs(r memlayout.Region) (vpns []uint64, ok bool) {
	if r.Size == 0 || r.End() < r.Base {
		return nil, false
	}
	hi := memlayout.PageNum(r.End() - 1)
	if hi >= pagetable.MaxVPN {
		return nil, false
	}
	m.flushVPNs, ok = m.pt.AppendPresentVPNs(m.flushVPNs[:0], memlayout.PageNum(r.Base), hi, m.probeMax)
	return m.flushVPNs, ok
}

// PopulatedPages implements core.Hooks.
func (m *Machine) PopulatedPages(r memlayout.Region) int {
	return m.pt.PopulatedPages(r)
}

// SetPTEKeys implements core.Hooks.
func (m *Machine) SetPTEKeys(r memlayout.Region, key uint8) int {
	m.bumpGen()
	return m.pt.SetKey(r, key)
}

// ResetStats zeroes cycle counts, breakdowns, counters, and faults while
// preserving warm microarchitectural state (TLBs, caches, page table,
// engine tables). Call it after workload setup so measurements cover only
// the measured operations, as the paper does.
func (m *Machine) ResetStats() {
	m.bd.Reset()
	m.ctr = stats.Counters{}
	m.faults = nil
	m.faultsDropped = 0
	m.curCore = nil // cores go inactive; the next coreFor re-marks them
	for _, c := range m.cores {
		c.cycles = 0
		c.instRem = 0
		c.active = false
		c.tlbL1Hits = 0
		c.tlbL2Hits = 0
		c.tlbMisses = 0
	}
	if m.rec != nil && m.rec.EpochLen() > 0 {
		m.recNext = m.rec.EpochLen()
	}
}

// Result snapshots the run statistics. Cycles is the maximum across
// active cores (parallel execution time); WorkSum is their sum.
func (m *Machine) Result() stats.Result {
	var maxc, sum uint64
	for _, c := range m.cores {
		if !c.active {
			continue
		}
		sum += c.cycles
		if c.cycles > maxc {
			maxc = c.cycles
		}
	}
	return stats.Result{
		Scheme:    m.engine.Name(),
		Cycles:    maxc,
		WorkSum:   sum,
		Breakdown: m.bd,
		Counters:  m.counterSnapshot(),
	}
}

// counterSnapshot returns the machine counters enriched with the cache
// and memory statistics, exactly as Result reports them; the
// observability sampler uses the same snapshot so epoch deltas and the
// final Result always agree.
func (m *Machine) counterSnapshot() stats.Counters {
	c := m.ctr
	l1h, _, l2h, _, _, _ := m.caches.Stats()
	c.L1DHits = l1h
	c.L2Hits = l2h
	dr, dw, nr, nw := m.memory.Stats()
	c.MemReads = dr + nr
	c.MemWrites = dw + nw
	c.NVMReads = nr
	c.NVMWrites = nw
	return c
}

var _ trace.Sink = (*Machine)(nil)
var _ core.Hooks = (*Machine)(nil)
