// Package txn provides redo-log durable transactions over PMO pools — the
// crash-consistency feature the PMO abstraction requires ("crash
// consistency allowing a PMO to remain in a consistent state even on
// process crashes or system power loss"). Writes are staged in a log area
// inside the pool, made durable with a commit record, then applied to
// their home locations; recovery redoes committed-but-unapplied
// transactions and discards uncommitted ones. Crash points can be
// injected at every step for testing and the crash-recovery example.
package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"domainvirt/internal/pmo"
)

// Log states, stored in the first word of the pool's log area.
const (
	logClean     = 0
	logActive    = 1
	logCommitted = 2
)

// Log area layout: state u64, entry count u64, then entries. Each entry:
// target offset u64, length u64, payload padded to 8 bytes.
const (
	logStateOff   = 0
	logCountOff   = 8
	logEntriesOff = 16
	entryHdrSize  = 16
)

// CrashPoint selects where an injected crash interrupts Commit.
type CrashPoint int

// Crash points.
const (
	// CrashNone disables injection.
	CrashNone CrashPoint = iota
	// CrashBeforeCommit stops after staging log entries but before the
	// commit record: recovery must discard the transaction.
	CrashBeforeCommit
	// CrashAfterCommit stops after the commit record but before any
	// home-location write: recovery must redo the transaction.
	CrashAfterCommit
	// CrashMidApply stops halfway through applying home-location
	// writes: recovery must redo (idempotently) the transaction.
	CrashMidApply
)

// ErrCrashed is returned by Commit when an injected crash fires.
var ErrCrashed = errors.New("txn: injected crash")

// ErrLogArea marks a pool whose header places its log area outside the
// pool, or makes it too small for a log header. Pools are created with a
// valid header, so this is a corrupt or client-overwritten header.
var ErrLogArea = errors.New("txn: pool log area invalid")

// logArea returns pool's log area (size 0: the pool has none), checked
// against the pool bounds so no log access can index past the pool.
func logArea(pool *pmo.Pool) (off, size uint64, err error) {
	off, size = pool.LogArea()
	if size == 0 {
		return off, 0, nil
	}
	end := off + size
	if size < multiEntriesOff || end < off || end > pool.Size() || end > math.MaxUint32 {
		return 0, 0, fmt.Errorf("%w: pool %q header places it at [%#x,%#x), pool size %#x",
			ErrLogArea, pool.Name(), off, end, pool.Size())
	}
	return off, size, nil
}

// Tx is one durable transaction on a single pool.
type Tx struct {
	pool    *pmo.Pool
	logOff  uint64
	logSize uint64
	cursor  uint64 // next free byte in the log area
	count   uint64
	// pending provides read-your-writes before commit.
	pending map[uint32][]byte
	order   []uint32
	crash   CrashPoint
	done    bool
	// multi marks this as a participant leg of a cross-pool MultiTx,
	// whose log layout reserves a coordinator-pointer slot.
	multi bool

	// UnsafeOmitStageFence reintroduces a write-ahead-logging bug for
	// fault-injection demonstrations ONLY: Commit skips the persist
	// barrier between the staged log entries and the commit record, so
	// under reordered flushes the commit record can reach NVM before an
	// entry and recovery replays a torn log. Never set in production
	// code; internal/crashconform uses it to prove the referee catches
	// the missing fence.
	UnsafeOmitStageFence bool
}

// Begin starts a transaction on pool. The pool must have a log area and
// must not have a committed-but-unapplied log (run Recover first).
func Begin(pool *pmo.Pool) (*Tx, error) {
	logOff, logSize, err := logArea(pool)
	if err != nil {
		return nil, err
	}
	if logSize == 0 {
		return nil, fmt.Errorf("txn: pool %q has no log area", pool.Name())
	}
	switch pool.ReadU64(uint32(logOff + logStateOff)) {
	case logClean:
	case logActive:
		// A previous crash left a partial log; it is safe to overwrite.
	case logCommitted:
		return nil, fmt.Errorf("txn: pool %q has an unrecovered committed log; run Recover", pool.Name())
	}
	t := &Tx{
		pool:    pool,
		logOff:  logOff,
		logSize: logSize,
		cursor:  logEntriesOff,
		pending: make(map[uint32][]byte),
	}
	pool.WriteU64(uint32(logOff+logStateOff), logActive)
	pool.WriteU64(uint32(logOff+logCountOff), 0)
	return t, nil
}

// SetCrashPoint arms crash injection for Commit.
func (t *Tx) SetCrashPoint(p CrashPoint) { t.crash = p }

// Write stages a durable write of src at pool offset off.
func (t *Tx) Write(off uint32, src []byte) error {
	if t.done {
		return errors.New("txn: transaction already finished")
	}
	need := uint64(entryHdrSize) + alignUp8(uint64(len(src)))
	if t.cursor+need > t.logSize {
		return fmt.Errorf("txn: log full (%d of %d bytes)", t.cursor, t.logSize)
	}
	base := uint32(t.logOff + t.cursor)
	t.pool.WriteU64(base, uint64(off))
	t.pool.WriteU64(base+8, uint64(len(src)))
	t.pool.Write(base+entryHdrSize, src)
	t.cursor += need
	t.count++
	if _, seen := t.pending[off]; !seen {
		t.order = append(t.order, off)
	}
	cp := make([]byte, len(src))
	copy(cp, src)
	t.pending[off] = cp
	return nil
}

// WriteU64 stages a durable u64 write.
func (t *Tx) WriteU64(off uint32, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return t.Write(off, buf[:])
}

// WriteOID stages a durable persistent-pointer write.
func (t *Tx) WriteOID(off uint32, o pmo.OID) error { return t.WriteU64(off, uint64(o)) }

// Read reads len(dst) bytes at off with read-your-writes semantics for
// exact-offset staged writes.
func (t *Tx) Read(off uint32, dst []byte) {
	if v, ok := t.pending[off]; ok && len(v) >= len(dst) {
		copy(dst, v[:len(dst)])
		return
	}
	t.pool.Read(off, dst)
}

// ReadU64 reads a u64 with read-your-writes semantics.
func (t *Tx) ReadU64(off uint32) uint64 {
	var buf [8]byte
	t.Read(off, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// ReadOID reads a persistent pointer with read-your-writes semantics.
func (t *Tx) ReadOID(off uint32) pmo.OID { return pmo.OID(t.ReadU64(off)) }

// fence emits a persist barrier through the pool: fault-injection hooks
// observe it even in pure library mode, and an attached instrumented
// space receives the trace event.
func (t *Tx) fence() { t.pool.Fence() }

// Commit makes the staged writes durable: persist the log, write the
// commit record, apply to home locations, clear the log. An armed crash
// point aborts at the corresponding step with ErrCrashed, leaving the
// pool exactly as a real crash would.
func (t *Tx) Commit() error {
	if t.done {
		return errors.New("txn: transaction already finished")
	}
	t.done = true
	lo := uint32(t.logOff)

	if !t.UnsafeOmitStageFence {
		t.fence() // persist staged entries
	}
	if t.crash == CrashBeforeCommit {
		return ErrCrashed
	}
	t.pool.WriteU64(lo+logCountOff, t.count)
	t.pool.WriteU64(lo+logStateOff, logCommitted)
	t.fence() // persist the commit record
	if t.crash == CrashAfterCommit {
		return ErrCrashed
	}

	applied := 0
	for _, off := range t.order {
		if t.crash == CrashMidApply && applied >= len(t.order)/2 {
			return ErrCrashed
		}
		t.pool.Write(off, t.pending[off])
		applied++
	}
	t.fence() // persist home locations
	t.pool.WriteU64(lo+logStateOff, logClean)
	t.fence()
	return nil
}

// Abort discards the transaction; staged writes never reach their home
// locations.
func (t *Tx) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.pool.WriteU64(uint32(t.logOff+logStateOff), logClean)
	t.fence()
}

// Recover completes or discards an interrupted transaction on pool. It
// returns whether a committed transaction was redone.
func Recover(pool *pmo.Pool) (redone bool, err error) {
	logOff, logSize, err := logArea(pool)
	if err != nil || logSize == 0 {
		return false, err
	}
	lo := uint32(logOff)
	switch pool.ReadU64(lo + logStateOff) {
	case logClean:
		return false, nil
	case logActive:
		// Uncommitted: discard.
		pool.WriteU64(lo+logStateOff, logClean)
		return false, nil
	case logCommitted:
		// Redo every logged write (idempotent).
		count := pool.ReadU64(lo + logCountOff)
		if err := redoEntries(pool, logOff, logSize, logEntriesOff, count); err != nil {
			return false, err
		}
		pool.WriteU64(lo+logStateOff, logClean)
		// An empty committed log (a cross-pool coordinator's decision
		// record) is settled but counts as nothing redone.
		return count > 0, nil
	default:
		return false, fmt.Errorf("txn: pool %q log state corrupt", pool.Name())
	}
}

// redoEntries replays count staged entries starting at cursor within the
// log area, validating every header against both the log bounds and the
// pool bounds. Recovery runs over whatever bytes a crash left behind, so
// a torn or stale log must yield an error — never a panic, a wild write
// outside the pool, or an attempt to allocate a corrupt u64 length.
func redoEntries(pool *pmo.Pool, logOff, logSize, cursor, count uint64) error {
	for i := uint64(0); i < count; i++ {
		if cursor+entryHdrSize > logSize {
			return fmt.Errorf("txn: pool %q log corrupt (entry %d header past log end)", pool.Name(), i)
		}
		target := pool.ReadU64(uint32(logOff + cursor))
		length := pool.ReadU64(uint32(logOff + cursor + 8))
		if length > logSize || cursor+entryHdrSize+length > logSize {
			return fmt.Errorf("txn: pool %q log corrupt (entry %d length %d)", pool.Name(), i, length)
		}
		if target > math.MaxUint32 || target > pool.Size() || length > pool.Size()-target {
			return fmt.Errorf("txn: pool %q log corrupt (entry %d target %#x+%d outside pool)",
				pool.Name(), i, target, length)
		}
		buf := make([]byte, length)
		pool.Read(uint32(logOff+cursor+entryHdrSize), buf)
		pool.Write(uint32(target), buf)
		cursor += entryHdrSize + alignUp8(length)
	}
	return nil
}

func alignUp8(v uint64) uint64 { return (v + 7) &^ 7 }

// Log-state diagnostics, exported for tests and the crash-conformance
// referee in internal/crashconform.
const (
	// StateClean is an idle log.
	StateClean uint64 = logClean
	// StateActive is a log with staged, uncommitted entries.
	StateActive uint64 = logActive
	// StateCommitted is a committed-but-unapplied log (or a cross-pool
	// coordinator's decision record).
	StateCommitted uint64 = logCommitted
	// StatePrepared is a cross-pool participant awaiting its
	// coordinator's decision.
	StatePrepared uint64 = logPrepared
)

// LogStateOf reads pool's current log-state word (StateClean if the pool
// has no usable log area; Recover reports an invalid one).
func LogStateOf(pool *pmo.Pool) uint64 {
	logOff, logSize, err := logArea(pool)
	if err != nil || logSize == 0 {
		return StateClean
	}
	return pool.ReadU64(uint32(logOff + logStateOff))
}
