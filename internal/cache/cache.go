// Package cache models a two-level cache hierarchy — per-core L1D caches
// over a shared L2 — kept coherent with a directory-based MESI protocol,
// per the paper's Table II configuration (L1D 32 KB 8-way 1 cycle; L2 1 MB
// 16-way 8 cycles; directory-based MESI).
package cache

import (
	"domainvirt/internal/memlayout"
)

// BlockShift is log2 of the cache block size (64 bytes).
const BlockShift = 6

// BlockOf returns the block address (block-aligned) of pa.
func BlockOf(pa memlayout.PA) uint64 { return uint64(pa) >> BlockShift }

// State is a MESI coherence state.
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// Config describes one cache level.
type Config struct {
	SizeBytes int
	Ways      int
	Latency   uint64
}

// line is one cache line (tag-only; the model tracks addresses, not data).
type line struct {
	tag   uint64
	state State
}

// Cache is one set-associative tag-only cache. Lines and recency stamps
// live in flat set-major arrays (set s, way w at index s*ways+w): one
// bounds check and no per-set slice-header chase on the lookup scans
// that dominate the simulator's hot path.
type Cache struct {
	lines   []line
	lru     []uint32
	clock   uint32
	ways    int
	setMask uint64

	hits   uint64
	misses uint64
}

// New constructs a cache from cfg.
func New(cfg Config) *Cache {
	blocks := cfg.SizeBytes >> BlockShift
	if cfg.Ways <= 0 || blocks <= 0 || blocks%cfg.Ways != 0 {
		panic("cache: invalid geometry")
	}
	nsets := blocks / cfg.Ways
	if cfg.Ways > maxWays {
		panic("cache: too many ways")
	}
	if nsets&(nsets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	return &Cache{
		lines:   make([]line, blocks),
		lru:     make([]uint32, blocks),
		ways:    cfg.Ways,
		setMask: uint64(nsets - 1),
	}
}

// baseOf returns the flat index of way 0 of block's set.
func (c *Cache) baseOf(block uint64) int { return int(block&c.setMask) * c.ways }

// Probe looks up block, returning its state without changing recency.
func (c *Cache) Probe(block uint64) (State, bool) {
	base := c.baseOf(block)
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w].state != Invalid && set[w].tag == block {
			return set[w].state, true
		}
	}
	return Invalid, false
}

// Touch looks up block and refreshes recency; returns hit state.
func (c *Cache) Touch(block uint64) (State, bool) {
	st, _, hit := c.TouchPos(block)
	return st, hit
}

// TouchPos is Touch returning, additionally, the flat line index of the
// hit so the caller can update its state via SetStateAt without a second
// scan.
func (c *Cache) TouchPos(block uint64) (State, int, bool) {
	base := c.baseOf(block)
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w].state != Invalid && set[w].tag == block {
			c.clock++
			c.lru[base+w] = c.clock
			c.hits++
			return set[w].state, base + w, true
		}
	}
	c.misses++
	return Invalid, 0, false
}

// TouchAt revalidates a previously observed hit position: if pos still
// holds a live line for block it replays exactly the bookkeeping a
// TouchPos hit performs (recency refresh, hit count) and returns the
// state. Any staleness — the line evicted, invalidated, or replaced —
// returns false with no state change (no miss is counted), so callers
// fall back to a full TouchPos. A tag equal to block can only live in
// block's own set and in at most one way of it, so the position check is
// a complete hit test.
func (c *Cache) TouchAt(pos int, block uint64) (State, bool) {
	if pos < 0 || pos >= len(c.lines) {
		return Invalid, false
	}
	ln := &c.lines[pos]
	if ln.state == Invalid || ln.tag != block {
		return Invalid, false
	}
	c.clock++
	c.lru[pos] = c.clock
	c.hits++
	return ln.state, true
}

// SetState updates the state of block if present.
func (c *Cache) SetState(block uint64, s State) {
	base := c.baseOf(block)
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w].state != Invalid && set[w].tag == block {
			set[w].state = s
			return
		}
	}
}

// SetStateAt updates the line at a flat index previously returned by
// TouchPos for the same block, skipping the set rescan.
func (c *Cache) SetStateAt(idx int, s State) { c.lines[idx].state = s }

// maxWays bounds the associativity so a way index fits the low byte of
// a replacement key.
const maxWays = 256

// scan looks block up in the set whose way 0 is at flat index base, in
// one pass. On a hit it returns the first way holding block; on a miss,
// the way a fill replaces: the first invalid way, else the least
// recently used one (ties to the lower way). The replacement choice is
// the minimum of a per-way key, taken without a data-dependent branch:
// an invalid way's key is its index, a valid way's is
// 1<<40 | lru<<8 | way, which sorts above every invalid way.
func (c *Cache) scan(base int, block uint64) (way int, hit bool) {
	set := c.lines[base : base+c.ways]
	lru := c.lru[base : base+c.ways]
	best := ^uint64(0)
	for w, ln := range set {
		if ln.tag == block && ln.state != Invalid {
			return w, true
		}
		valid := (uint64(ln.state) + 0xff) >> 8 // 1 iff ln.state != Invalid
		best = min(best, -valid&(1<<40|uint64(lru[w])<<8)|uint64(w))
	}
	return int(best & (maxWays - 1)), false
}

// replace installs block with state s at flat index i, the way scan
// chose, returning the line it evicted (if valid) and whether that was
// dirty (Modified), and stamps it most recently used.
func (c *Cache) replace(i int, block uint64, s State) (victim uint64, dirty, evicted bool) {
	if old := c.lines[i]; old.state != Invalid {
		victim, dirty, evicted = old.tag, old.state == Modified, true
	}
	c.lines[i] = line{tag: block, state: s}
	c.clock++
	c.lru[i] = c.clock
	return victim, dirty, evicted
}

// Fill inserts block with state s, returning the evicted block (if any)
// and whether it was dirty (Modified). A block already present is
// overwritten in place and evicts nothing.
func (c *Cache) Fill(block uint64, s State) (victim uint64, dirty, evicted bool) {
	base := c.baseOf(block)
	way, hit := c.scan(base, block)
	if hit {
		c.lines[base+way].state = s
		c.clock++
		c.lru[base+way] = c.clock
		return 0, false, false
	}
	return c.replace(base+way, block, s)
}

// TouchOrFill is Touch followed, on a miss, by Fill(block, s), with one
// scan of the set: a hit refreshes recency and counts a hit exactly as
// Touch does; a miss counts a miss and fills exactly as Fill does,
// returning what the fill evicted.
func (c *Cache) TouchOrFill(block uint64, s State) (hit bool, victim uint64, dirty, evicted bool) {
	base := c.baseOf(block)
	way, hit := c.scan(base, block)
	if hit {
		c.clock++
		c.lru[base+way] = c.clock
		c.hits++
		return true, 0, false, false
	}
	c.misses++
	victim, dirty, evicted = c.replace(base+way, block, s)
	return false, victim, dirty, evicted
}

// Stats returns (hits, misses).
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// CacheState is a deep copy of one Cache's mutable state. It is immutable
// once taken: Restore copies out of it, so one state can seed many caches.
type CacheState struct {
	lines  []line
	lru    []uint32
	clock  uint32
	hits   uint64
	misses uint64
}

// Snapshot captures the cache's lines, recency state, and statistics.
func (c *Cache) Snapshot() *CacheState {
	s := &CacheState{}
	c.SnapshotInto(s)
	return s
}

// SnapshotInto overwrites s with a fresh snapshot, reusing s's storage
// when the geometry matches — the pooled-buffer path for snapshot-heavy
// sweeps. The caller must no longer be restoring from the old contents.
func (c *Cache) SnapshotInto(s *CacheState) {
	if len(s.lines) != len(c.lines) {
		s.lines = make([]line, len(c.lines))
		s.lru = make([]uint32, len(c.lru))
	}
	copy(s.lines, c.lines)
	copy(s.lru, c.lru)
	s.clock = c.clock
	s.hits = c.hits
	s.misses = c.misses
}

// Restore reinstates a snapshot taken from a cache of identical geometry,
// reusing the receiver's storage. It panics on a geometry mismatch.
func (c *Cache) Restore(s *CacheState) {
	if len(s.lines) != len(c.lines) {
		panic("cache: Restore geometry mismatch")
	}
	copy(c.lines, s.lines)
	copy(c.lru, s.lru)
	c.clock = s.clock
	c.hits = s.hits
	c.misses = s.misses
}
