// Package trace defines the instrumentation event stream connecting
// workloads to the timing simulator — the role Intel Pin plays in the
// paper's methodology. Workloads execute real data-structure operations
// against PMO pools and emit (thread, instruction-count, load/store,
// permission-change) events into a Sink; the simulator is a Sink, as is a
// binary trace recorder whose files can be replayed later.
package trace

import (
	"domainvirt/internal/core"
	"domainvirt/internal/memlayout"
)

// Sink consumes an instrumentation event stream. All methods are
// program-order calls from the generating workload.
type Sink interface {
	// Instr accounts n non-memory instructions executed by thread th.
	Instr(th core.ThreadID, n uint64)
	// Access is one load (write=false) or store (write=true) of size
	// bytes at va by thread th. It reports whether the access was
	// permitted: an enforcing sink (the simulated machine) returns
	// false when the domain or page permission denies it, and the
	// caller must not complete the data transfer.
	Access(th core.ThreadID, va memlayout.VA, size uint32, write bool) bool
	// Fetch is one instruction fetch from va by thread th. Domains
	// permit fetches even when inaccessible to loads/stores — the
	// paper's executable-only memory ("code can still jump to this
	// domain and execute code but all reads and writes are
	// prohibited"). It reports whether the fetch was permitted (page
	// permissions still apply).
	Fetch(th core.ThreadID, va memlayout.VA) bool
	// SetPerm is a SETPERM/pkey_set permission change by thread th for
	// domain d from the static code site.
	SetPerm(th core.ThreadID, d core.DomainID, p core.Perm, site core.SiteID)
	// Attach maps PMO domain d at region r (attach system call).
	Attach(d core.DomainID, r memlayout.Region, perm core.Perm) error
	// Detach unmaps PMO domain d.
	Detach(d core.DomainID)
	// Fence is an explicit memory fence (persist barrier) by thread th.
	Fence(th core.ThreadID)
}

// Load is shorthand for a read Access.
func Load(s Sink, th core.ThreadID, va memlayout.VA, size uint32) bool {
	return s.Access(th, va, size, false)
}

// Store is shorthand for a write Access.
func Store(s Sink, th core.ThreadID, va memlayout.VA, size uint32) bool {
	return s.Access(th, va, size, true)
}

// Tee fans an event stream out to several sinks (e.g. simulate and record
// simultaneously). Attach is all or nothing: an error from any sink
// aborts the attach and detaches the sinks that had already accepted it.
type Tee struct {
	Sinks []Sink
}

// NewTee returns a Tee over the given sinks.
func NewTee(sinks ...Sink) *Tee { return &Tee{Sinks: sinks} }

// Instr implements Sink.
func (t *Tee) Instr(th core.ThreadID, n uint64) {
	for _, s := range t.Sinks {
		s.Instr(th, n)
	}
}

// Access implements Sink: the access is permitted only if every sink
// permits it.
func (t *Tee) Access(th core.ThreadID, va memlayout.VA, size uint32, write bool) bool {
	ok := true
	for _, s := range t.Sinks {
		if !s.Access(th, va, size, write) {
			ok = false
		}
	}
	return ok
}

// Fetch implements Sink.
func (t *Tee) Fetch(th core.ThreadID, va memlayout.VA) bool {
	ok := true
	for _, s := range t.Sinks {
		if !s.Fetch(th, va) {
			ok = false
		}
	}
	return ok
}

// SetPerm implements Sink.
func (t *Tee) SetPerm(th core.ThreadID, d core.DomainID, p core.Perm, site core.SiteID) {
	for _, s := range t.Sinks {
		s.SetPerm(th, d, p, site)
	}
}

// Attach implements Sink. On the first sink that rejects the attach,
// the sinks before it are detached again, so a failed attach leaves no
// sink holding the domain (the caller, e.g. pmo.Space.Attach, rolls back
// only its own reservation).
func (t *Tee) Attach(d core.DomainID, r memlayout.Region, perm core.Perm) error {
	for i, s := range t.Sinks {
		if err := s.Attach(d, r, perm); err != nil {
			for _, done := range t.Sinks[:i] {
				done.Detach(d)
			}
			return err
		}
	}
	return nil
}

// Detach implements Sink.
func (t *Tee) Detach(d core.DomainID) {
	for _, s := range t.Sinks {
		s.Detach(d)
	}
}

// Fence implements Sink.
func (t *Tee) Fence(th core.ThreadID) {
	for _, s := range t.Sinks {
		s.Fence(th)
	}
}

// Counter is a Sink that only counts events; useful for tests and for
// sizing traces before simulation.
type Counter struct {
	Instrs   uint64
	Loads    uint64
	Stores   uint64
	Fetches  uint64
	SetPerms uint64
	Attaches uint64
	Detaches uint64
	Fences   uint64
}

// Instr implements Sink.
func (c *Counter) Instr(_ core.ThreadID, n uint64) { c.Instrs += n }

// Access implements Sink.
func (c *Counter) Access(_ core.ThreadID, _ memlayout.VA, _ uint32, write bool) bool {
	if write {
		c.Stores++
	} else {
		c.Loads++
	}
	return true
}

// Fetch implements Sink.
func (c *Counter) Fetch(core.ThreadID, memlayout.VA) bool {
	c.Fetches++
	return true
}

// SetPerm implements Sink.
func (c *Counter) SetPerm(core.ThreadID, core.DomainID, core.Perm, core.SiteID) {
	c.SetPerms++
}

// Attach implements Sink.
func (c *Counter) Attach(core.DomainID, memlayout.Region, core.Perm) error {
	c.Attaches++
	return nil
}

// Detach implements Sink.
func (c *Counter) Detach(core.DomainID) { c.Detaches++ }

// Fence implements Sink.
func (c *Counter) Fence(core.ThreadID) { c.Fences++ }

// Discard is a Sink that drops everything.
type Discard struct{}

// Instr implements Sink.
func (Discard) Instr(core.ThreadID, uint64) {}

// Access implements Sink.
func (Discard) Access(core.ThreadID, memlayout.VA, uint32, bool) bool { return true }

// Fetch implements Sink.
func (Discard) Fetch(core.ThreadID, memlayout.VA) bool { return true }

// SetPerm implements Sink.
func (Discard) SetPerm(core.ThreadID, core.DomainID, core.Perm, core.SiteID) {}

// Attach implements Sink.
func (Discard) Attach(core.DomainID, memlayout.Region, core.Perm) error { return nil }

// Detach implements Sink.
func (Discard) Detach(core.DomainID) {}

// Fence implements Sink.
func (Discard) Fence(core.ThreadID) {}
