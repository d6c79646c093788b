package tlb

import (
	"fmt"

	"domainvirt/internal/bincodec"
)

// AppendTo appends the deterministic binary form of the state: geometry
// first, then entries, recency stamps, clock, and statistics. Identical
// states produce identical bytes.
func (s State) AppendTo(b []byte) []byte {
	b = bincodec.U32(b, uint32(len(s.entries)))
	for _, e := range s.entries {
		b = bincodec.U64(b, e.VPN)
		b = bincodec.U64(b, e.PFN)
		b = bincodec.Bool(b, e.Writable)
		b = bincodec.U16(b, e.Tag)
		b = bincodec.Bool(b, e.Valid)
	}
	for _, v := range s.lru {
		b = bincodec.U32(b, v)
	}
	b = bincodec.U32(b, s.clock)
	b = bincodec.U64(b, s.hits)
	b = bincodec.U64(b, s.misses)
	b = bincodec.U64(b, s.evictions)
	return b
}

// DecodeState reads a State written by AppendTo.
func DecodeState(r *bincodec.Reader) (State, error) {
	var s State
	n := r.Count(20 + 4) // entry (20 bytes) + lru stamp per entry
	if err := r.Err(); err != nil {
		return s, fmt.Errorf("tlb: %w", err)
	}
	s.entries = make([]Entry, n)
	for i := range s.entries {
		e := &s.entries[i]
		e.VPN = r.U64()
		e.PFN = r.U64()
		e.Writable = r.Bool()
		e.Tag = r.U16()
		e.Valid = r.Bool()
	}
	s.lru = make([]uint32, n)
	for i := range s.lru {
		s.lru[i] = r.U32()
	}
	s.clock = r.U32()
	s.hits = r.U64()
	s.misses = r.U64()
	s.evictions = r.U64()
	if err := r.Err(); err != nil {
		return State{}, fmt.Errorf("tlb: %w", err)
	}
	return s, nil
}

// Entries returns the number of TLB entries the state was captured from,
// for pre-restore geometry validation.
func (s State) Entries() int { return len(s.entries) }

// ValidVPNs calls fn with the VPN of every valid entry in position order,
// stopping at the first false return; it reports whether every call
// returned true. Restore-time validation uses it to check decoded entries
// against the page table they claim to cache.
func (s State) ValidVPNs(fn func(vpn uint64) bool) bool {
	for i := range s.entries {
		if s.entries[i].Valid && !fn(s.entries[i].VPN) {
			return false
		}
	}
	return true
}
