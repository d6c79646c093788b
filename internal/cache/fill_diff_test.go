package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// refCache is the cache's lookup and fill logic before the one-scan
// miss path, kept as the reference: Touch scans the set for a match, and
// Fill scans it up to three times — for a match, for the first invalid
// way, and for the least recently used way.
type refCache struct {
	lines   []line
	lru     []uint32
	clock   uint32
	ways    int
	setMask uint64
	hits    uint64
	misses  uint64
}

func newRefCache(c *Cache) *refCache {
	return &refCache{
		lines:   append([]line(nil), c.lines...),
		lru:     append([]uint32(nil), c.lru...),
		clock:   c.clock,
		ways:    c.ways,
		setMask: c.setMask,
	}
}

func (c *refCache) baseOf(block uint64) int { return int(block&c.setMask) * c.ways }

func (c *refCache) Touch(block uint64) (State, bool) {
	base := c.baseOf(block)
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w].state != Invalid && set[w].tag == block {
			c.clock++
			c.lru[base+w] = c.clock
			c.hits++
			return set[w].state, true
		}
	}
	c.misses++
	return Invalid, false
}

func (c *refCache) SetState(block uint64, s State) {
	base := c.baseOf(block)
	set := c.lines[base : base+c.ways]
	for w := range set {
		if set[w].state != Invalid && set[w].tag == block {
			set[w].state = s
			return
		}
	}
}

func (c *refCache) Fill(block uint64, s State) (victim uint64, dirty, evicted bool) {
	base := c.baseOf(block)
	set := c.lines[base : base+c.ways]
	way := -1
	for w := range set {
		if set[w].state != Invalid && set[w].tag == block {
			way = w
			break
		}
	}
	if way < 0 {
		for w := range set {
			if set[w].state == Invalid {
				way = w
				break
			}
		}
	}
	if way < 0 {
		way = 0
		oldest := c.lru[base]
		for w := 1; w < c.ways; w++ {
			if c.lru[base+w] < oldest {
				oldest = c.lru[base+w]
				way = w
			}
		}
		victim = set[way].tag
		dirty = set[way].state == Modified
		evicted = true
	}
	set[way] = line{tag: block, state: s}
	c.clock++
	c.lru[base+way] = c.clock
	return victim, dirty, evicted
}

// TestFillMatchesThreeScanReference drives the cache and the reference
// with the same random Touch, Fill, TouchOrFill (against Touch then Fill
// on a miss) and SetState traffic, invalidations included, and requires
// the same results and the same lines, stamps, clock and hit/miss counts
// after every step. Some runs start the clock just below its wrap, so
// valid lines with small and zero stamps meet invalid ways.
func TestFillMatchesThreeScanReference(t *testing.T) {
	for _, ways := range []int{1, 4, 16} {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := New(Config{SizeBytes: 8 * ways * 64, Ways: ways, Latency: 1})
			if seed%4 == 0 {
				c.clock = ^uint32(0) - 300
			}
			ref := newRefCache(c)
			nblocks := 8 * ways * 3
			states := []State{Shared, Exclusive, Modified}
			for step := 0; step < 2000; step++ {
				block := uint64(rng.Intn(nblocks))
				switch op := rng.Intn(10); {
				case op < 3:
					st, hit := c.Touch(block)
					wst, whit := ref.Touch(block)
					if st != wst || hit != whit {
						t.Fatalf("ways %d seed %d step %d: Touch = %v,%v, reference %v,%v", ways, seed, step, st, hit, wst, whit)
					}
				case op < 5:
					s := states[rng.Intn(len(states))]
					v, d, e := c.Fill(block, s)
					wv, wd, we := ref.Fill(block, s)
					if v != wv || d != wd || e != we {
						t.Fatalf("ways %d seed %d step %d: Fill = %d,%v,%v, reference %d,%v,%v", ways, seed, step, v, d, e, wv, wd, we)
					}
				case op < 8:
					s := states[rng.Intn(len(states))]
					hit, v, d, e := c.TouchOrFill(block, s)
					var wv uint64
					var wd, we bool
					_, whit := ref.Touch(block)
					if !whit {
						wv, wd, we = ref.Fill(block, s)
					}
					if hit != whit || v != wv || d != wd || e != we {
						t.Fatalf("ways %d seed %d step %d: TouchOrFill = %v,%d,%v,%v, reference %v,%d,%v,%v", ways, seed, step, hit, v, d, e, whit, wv, wd, we)
					}
				default:
					s := Invalid
					if rng.Intn(3) == 0 {
						s = states[rng.Intn(len(states))]
					}
					c.SetState(block, s)
					ref.SetState(block, s)
				}
				if !slices.Equal(c.lines, ref.lines) || !slices.Equal(c.lru, ref.lru) ||
					c.clock != ref.clock || c.hits != ref.hits || c.misses != ref.misses {
					t.Fatalf("ways %d seed %d step %d: cache state diverged from the reference", ways, seed, step)
				}
			}
		}
	}

	// A stamp that wrapped to zero still ranks after every invalid way.
	c := New(Config{SizeBytes: 4 * 64, Ways: 4, Latency: 1})
	c.clock = ^uint32(0)
	ref := newRefCache(c)
	for b := uint64(0); b < 4; b++ {
		c.Fill(b, Shared)
		ref.Fill(b, Shared)
	}
	c.SetState(2, Invalid)
	ref.SetState(2, Invalid)
	c.Fill(9, Shared)
	ref.Fill(9, Shared)
	if !slices.Equal(c.lines, ref.lines) || !slices.Equal(c.lru, ref.lru) {
		t.Fatalf("after a clock wrap, Fill replaced %v, reference %v", c.lines, ref.lines)
	}
}
