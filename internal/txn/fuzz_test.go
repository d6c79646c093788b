package txn

import (
	"encoding/binary"
	"testing"

	"domainvirt/internal/pmo"
)

// FuzzRecover throws arbitrary log bytes, truncated at an arbitrary
// crash offset, at full-store recovery, optionally with the pool
// header's log-area pointer (bytes 40–55) overwritten by hdr. Whatever a
// crash or a client left there, recovery must never panic, never
// allocate from a corrupt length word, never write outside the pool,
// never report redone alongside an error, and must leave a clean,
// idempotently re-recoverable log on success; Begin on the same pool
// must answer an error or a usable transaction, never a panic.
func FuzzRecover(f *testing.F) {
	// A well-formed committed single-pool log: state 2, count 1, one
	// entry targeting a data slot.
	valid := make([]byte, 40)
	binary.LittleEndian.PutUint64(valid[0:], 2)       // state committed
	binary.LittleEndian.PutUint64(valid[8:], 1)       // count
	binary.LittleEndian.PutUint64(valid[16:], 72<<10) // entry target
	binary.LittleEndian.PutUint64(valid[24:], 8)      // entry length
	binary.LittleEndian.PutUint64(valid[32:], 0xabcd) // payload
	f.Add(valid, uint16(40), []byte(nil))

	// The same log torn mid-record.
	f.Add(valid, uint16(20), []byte(nil))

	// Committed log whose length word is a wild u64 (the allocation/
	// overflow hazard) and whose target is outside the pool.
	corrupt := make([]byte, 32)
	binary.LittleEndian.PutUint64(corrupt[0:], 2)
	binary.LittleEndian.PutUint64(corrupt[8:], 1)
	binary.LittleEndian.PutUint64(corrupt[16:], 1<<40) // target past pool
	binary.LittleEndian.PutUint64(corrupt[24:], ^uint64(0))
	f.Add(corrupt, uint16(32), []byte(nil))

	// A prepared participant naming an unknown coordinator.
	prepared := make([]byte, 24)
	binary.LittleEndian.PutUint64(prepared[0:], 3)
	binary.LittleEndian.PutUint64(prepared[8:], 1)
	binary.LittleEndian.PutUint64(prepared[16:], 99) // no such pool
	f.Add(prepared, uint16(24), []byte(nil))

	// A committed log whose header now places the log area at
	// 0xffffffff, past the pool's end (the raw-WRITE-then-TX_COMMIT
	// daemon crash).
	pastEnd := make([]byte, 16)
	binary.LittleEndian.PutUint64(pastEnd[0:], 0xffffffff)
	binary.LittleEndian.PutUint64(pastEnd[8:], 8)
	f.Add(valid, uint16(40), pastEnd)

	f.Fuzz(func(t *testing.T, logBytes []byte, crashOff uint16, hdr []byte) {
		s := pmo.NewStore()
		p, err := s.Create("fuzz", 80<<10, pmo.ModeDefault, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		logOff, logSize := p.LogArea()
		n := int(crashOff)
		if n > len(logBytes) {
			n = len(logBytes)
		}
		data := logBytes[:n]
		if uint64(len(data)) > logSize {
			data = data[:logSize]
		}
		if len(data) > 0 {
			p.Write(uint32(logOff), data)
		}
		if len(hdr) > 16 {
			hdr = hdr[:16]
		}
		p.Write(40, hdr) // the log-area offset and size words
		// Begin on whatever recovery leaves behind answers an error or a
		// usable transaction.
		probeBegin := func() {
			if tx, err := Begin(p); err == nil {
				tx.Abort()
			}
		}

		redone, err := RecoverMulti(p, s.ByID)
		if err != nil {
			if redone {
				t.Fatalf("redone=true alongside error %v", err)
			}
			probeBegin()
			return
		}
		if st := LogStateOf(p); st != StateClean {
			t.Fatalf("log state %d after successful recovery", st)
		}
		redone2, err2 := RecoverMulti(p, s.ByID)
		if err2 != nil || redone2 {
			t.Fatalf("second recovery = (%v, %v), want (false, nil)", redone2, err2)
		}
		probeBegin()
	})
}
