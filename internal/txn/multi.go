package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"domainvirt/internal/pmo"
)

// Cross-pool durable transactions: a data structure spanning several PMOs
// (as the multi-PMO benchmarks do) needs updates in different pools to
// commit atomically. MultiTx implements two-phase commit over the
// per-pool redo logs:
//
//  1. stage: each participant pool's writes go to its own log area;
//  2. prepare: every participant's log is marked prepared, naming the
//     coordinator pool;
//  3. decide: the coordinator pool's log is marked committed (the single
//     atomic commit point);
//  4. apply: home locations in every pool are updated;
//  5. clean: all logs return to clean.
//
// Recovery consults the coordinator: a prepared participant redoes its
// log only if the coordinator had committed; otherwise it discards.

// Additional log states for participants of a cross-pool transaction.
const (
	logPrepared = 3
)

// Participant log layout extends the single-pool layout: on prepare, the
// word after the entry count stores the coordinator's pool ID.
const logCoordOff = 16 // u64: coordinator pool ID (participants only)

// multiEntriesOff leaves room for the coordinator pointer.
const multiEntriesOff = 24

// MultiTx is a durable transaction spanning several pools.
type MultiTx struct {
	coord *pmo.Pool
	clo   uint32         // coordinator log-area offset, checked at BeginMulti
	parts map[uint32]*Tx // per-pool single-pool transactions
	pools map[uint32]*pmo.Pool
	crash CrashPoint
	done  bool

	// UnsafeNoPrepareFence and UnsafeNoDecisionFence reintroduce two
	// recovery bugs the crash-conformance harness caught, for
	// fault-injection demonstrations ONLY (see the .crash repros in
	// internal/crashconform/testdata/repros):
	//
	// NoPrepareFence omits the barrier between a participant's
	// count/coordinator-pointer stores and its prepared mark, so under
	// reordered flushes the prepared mark can persist alone and recovery
	// consults a stale or zero coordinator pointer.
	//
	// NoDecisionFence omits the barrier between the coordinator's
	// count=0 store and its committed mark, so the committed mark can
	// persist while a stale entry count from an earlier transaction
	// survives — recovery then replays the coordinator's old log.
	UnsafeNoPrepareFence  bool
	UnsafeNoDecisionFence bool
}

// BeginMulti starts a cross-pool transaction coordinated by coord. Every
// pool written must be enlisted via Write*/pool registration on first
// use; the coordinator itself may also be written.
func BeginMulti(coord *pmo.Pool) (*MultiTx, error) {
	clo, size, err := logArea(coord)
	if err != nil {
		return nil, err
	}
	if size == 0 {
		return nil, fmt.Errorf("txn: coordinator pool %q has no log area", coord.Name())
	}
	switch coord.ReadU64(uint32(clo + logStateOff)) {
	case logClean, logActive:
	default:
		return nil, fmt.Errorf("txn: coordinator pool %q has an unrecovered log", coord.Name())
	}
	return &MultiTx{
		coord: coord,
		clo:   uint32(clo),
		parts: make(map[uint32]*Tx),
		pools: make(map[uint32]*pmo.Pool),
	}, nil
}

// SetCrashPoint arms crash injection for Commit.
func (m *MultiTx) SetCrashPoint(p CrashPoint) { m.crash = p }

func (m *MultiTx) txFor(pool *pmo.Pool) (*Tx, error) {
	if t, ok := m.parts[pool.ID()]; ok {
		return t, nil
	}
	t, err := Begin(pool)
	if err != nil {
		return nil, err
	}
	// Participant logs use the multi layout: reserve the coordinator
	// pointer slot.
	t.cursor = multiEntriesOff
	t.multi = true
	m.parts[pool.ID()] = t
	m.pools[pool.ID()] = pool
	return t, nil
}

// Write stages a durable write of src at off in pool. The coordinator
// pool itself cannot be written: its log area holds only the decision
// record (use a dedicated coordinator pool, or a single-pool Tx).
func (m *MultiTx) Write(pool *pmo.Pool, off uint32, src []byte) error {
	if m.done {
		return errors.New("txn: transaction already finished")
	}
	if pool.ID() == m.coord.ID() {
		return fmt.Errorf("txn: coordinator pool %q cannot be a participant", pool.Name())
	}
	t, err := m.txFor(pool)
	if err != nil {
		return err
	}
	return t.Write(off, src)
}

// WriteU64 stages a durable u64 write in pool.
func (m *MultiTx) WriteU64(pool *pmo.Pool, off uint32, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return m.Write(pool, off, buf[:])
}

// ReadU64 reads with read-your-writes semantics from pool.
func (m *MultiTx) ReadU64(pool *pmo.Pool, off uint32) uint64 {
	if t, ok := m.parts[pool.ID()]; ok {
		return t.ReadU64(off)
	}
	return pool.ReadU64(off)
}

// participants returns the enlisted pools in deterministic order.
func (m *MultiTx) participants() []*pmo.Pool {
	ids := make([]uint32, 0, len(m.pools))
	for id := range m.pools {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*pmo.Pool, 0, len(ids))
	for _, id := range ids {
		out = append(out, m.pools[id])
	}
	return out
}

// Crash points specific to the two-phase protocol.
const (
	// CrashAfterPrepare stops after every participant is prepared but
	// before the coordinator's decision: recovery must abort everywhere.
	CrashAfterPrepare CrashPoint = 100 + iota
	// CrashAfterDecide stops after the coordinator committed but before
	// any apply: recovery must redo everywhere.
	CrashAfterDecide
	// CrashMidApplyMulti stops after applying some participants.
	CrashMidApplyMulti
)

// Commit runs the two-phase protocol.
func (m *MultiTx) Commit() error {
	if m.done {
		return errors.New("txn: transaction already finished")
	}
	m.done = true
	parts := m.participants()

	// Phase 1: prepare every participant — persist staged entries, then
	// the entry count and coordinator pointer, then the prepared mark.
	// The mark gets its own epoch: recovery trusts the coordinator
	// pointer of any pool marked prepared, so the pointer must be
	// durable strictly before the mark can be.
	for _, p := range parts {
		t := m.parts[p.ID()]
		lo := uint32(t.logOff)
		t.fence() // persist staged entries
		p.WriteU64(lo+logCountOff, t.count)
		p.WriteU64(lo+logCoordOff, uint64(m.coord.ID()))
		if !m.UnsafeNoPrepareFence {
			t.fence() // persist count + coordinator pointer
		}
		p.WriteU64(lo+logStateOff, logPrepared)
		t.fence()
	}
	if m.crash == CrashAfterPrepare {
		return ErrCrashed
	}

	// Phase 2: the coordinator's committed mark is the atomic decision.
	// Its entry count is zeroed so single-pool recovery treats the
	// decision record as an empty (trivially redone) log — and the zero
	// must be durable strictly before the mark, or a crash can leave the
	// committed mark over a stale count from an earlier transaction and
	// recovery replays the coordinator's old log.
	clo := m.clo
	m.coord.WriteU64(clo+logCountOff, 0)
	if !m.UnsafeNoDecisionFence {
		m.coord.Fence() // persist the zeroed decision count
	}
	m.coord.WriteU64(clo+logStateOff, logCommitted)
	m.coord.Fence()
	if m.crash == CrashAfterDecide {
		return ErrCrashed
	}

	// Apply and clean every participant.
	applied := 0
	for _, p := range parts {
		if m.crash == CrashMidApplyMulti && applied >= len(parts)/2 && applied > 0 {
			return ErrCrashed
		}
		t := m.parts[p.ID()]
		for _, off := range t.order {
			p.Write(off, t.pending[off])
		}
		t.fence()
		p.WriteU64(uint32(t.logOff)+logStateOff, logClean)
		applied++
	}
	m.coord.WriteU64(clo+logStateOff, logClean)
	m.coord.Fence()
	return nil
}

// Abort discards the transaction on every participant.
func (m *MultiTx) Abort() {
	if m.done {
		return
	}
	m.done = true
	for _, p := range m.participants() {
		t := m.parts[p.ID()]
		p.WriteU64(uint32(t.logOff)+logStateOff, logClean)
	}
}

// RecoverMulti completes or discards a prepared cross-pool transaction
// found in pool. The lookup function resolves participant/coordinator
// pools by ID (typically store.ByID). It returns whether pool's log was
// redone.
func RecoverMulti(pool *pmo.Pool, lookup func(uint32) (*pmo.Pool, bool)) (bool, error) {
	logOff, logSize, err := logArea(pool)
	if err != nil || logSize == 0 {
		return false, err
	}
	lo := uint32(logOff)
	if pool.ReadU64(lo+logStateOff) != logPrepared {
		// Not a prepared participant: the single-pool recovery rules
		// apply.
		return Recover(pool)
	}
	coordID := uint32(pool.ReadU64(lo + logCoordOff))
	coord, ok := lookup(coordID)
	if !ok {
		return false, fmt.Errorf("txn: pool %q prepared by unknown coordinator %d", pool.Name(), coordID)
	}
	clo, csize, err := logArea(coord)
	if err != nil {
		return false, err
	}
	committed := csize > 0 && coord.ReadU64(uint32(clo)+logStateOff) == logCommitted
	if !committed {
		// The decision never landed: abort.
		pool.WriteU64(lo+logStateOff, logClean)
		return false, nil
	}
	// Redo this participant's log (multi layout).
	count := pool.ReadU64(lo + logCountOff)
	if err := redoEntries(pool, logOff, logSize, multiEntriesOff, count); err != nil {
		return false, err
	}
	pool.WriteU64(lo+logStateOff, logClean)
	return true, nil
}

// RecoverStore runs multi-pool recovery over every pool in a store:
// first every prepared participant consults its coordinator, and only
// then are remaining logs (single-pool logs and coordinator decision
// records) settled. The order is load-bearing: a coordinator's
// committed mark is the only durable evidence of the decision, and
// clearing it before all participants have consulted it makes later
// participants abort a committed transaction — the kill-at-every-step
// harness in internal/crashconform caught exactly that (a mid-apply
// crash recovered one pool's writes and discarded another's).
func RecoverStore(store *pmo.Store) (redone int, err error) {
	infos := store.List()
	// Pass 1: prepared participants only. Nothing is cleared except
	// participant logs, so every consult sees the coordinator's mark
	// exactly as the crash left it.
	for _, info := range infos {
		p, ok := store.Get(info.Name)
		if !ok {
			continue
		}
		if LogStateOf(p) != StatePrepared {
			continue
		}
		r, err := RecoverMulti(p, store.ByID)
		if err != nil {
			return redone, err
		}
		if r {
			redone++
		}
	}
	// Pass 2: settle everything else — committed single-pool logs redo,
	// coordinator decision records (count 0) clear, active logs discard.
	for _, info := range infos {
		p, ok := store.Get(info.Name)
		if !ok {
			continue
		}
		r, err := Recover(p)
		if err != nil {
			return redone, err
		}
		if r {
			redone++
		}
	}
	return redone, nil
}
