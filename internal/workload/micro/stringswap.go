package micro

import (
	"fmt"

	"domainvirt/internal/pmo"
	"domainvirt/internal/workload"
)

// StringSwap is the paper's best-locality microbenchmark: a global array
// of 64-byte strings striped across pools; each operation swaps two
// random strings — "there are 128 loads/stores incurring only up to two
// TLB misses".
type StringSwap struct {
	mp      *MultiPool
	total   int
	strSize int
	bases   []pmo.OID // per-pool slab base
	perPool int
	bi, bj  []byte // Swap's string buffers
}

// NewStringSwap allocates one slab of string slots per pool. Slot i lives
// in pool i%P at index i/P.
func NewStringSwap(mp *MultiPool, env *workload.Env, ctx *OpCtx) (*StringSwap, error) {
	s := &StringSwap{
		mp:      mp,
		total:   env.P.InitialElems * 4,
		strSize: env.P.ValueSize,
		bi:      make([]byte, env.P.ValueSize),
		bj:      make([]byte, env.P.ValueSize),
	}
	p := len(mp.Pools)
	s.perPool = (s.total + p - 1) / p
	for _, pool := range mp.Pools {
		ctx.EnsureWrite(pool)
		slab, err := pool.Alloc(uint64(s.perPool * s.strSize))
		if err != nil {
			return nil, err
		}
		pool.SetRoot(slab) // persistently locate the slab
		s.bases = append(s.bases, slab)
	}
	// Initialize every string deterministically from its slot index.
	buf := make([]byte, s.strSize)
	for i := 0; i < s.total; i++ {
		oid, pool := s.slot(i)
		fillValue(buf, uint64(i)+1)
		pool.Write(oid.Offset(), buf)
	}
	ctx.End()
	return s, nil
}

// slot resolves string index i to its OID and pool.
func (s *StringSwap) slot(i int) (pmo.OID, *pmo.Pool) {
	p := i % len(s.mp.Pools)
	idx := i / len(s.mp.Pools)
	base := s.bases[p]
	return base.Add(uint32(idx * s.strSize)), s.mp.Pools[p]
}

// Swap exchanges strings i and j: two 64-byte reads, two 64-byte writes.
func (s *StringSwap) Swap(ctx *OpCtx, i, j int) {
	oi, pi := s.slot(i)
	oj, pj := s.slot(j)
	bi, bj := s.bi, s.bj
	pi.Read(oi.Offset(), bi)
	pj.Read(oj.Offset(), bj)
	ctx.EnsureWrite(pi)
	pi.Write(oi.Offset(), bj)
	ctx.EnsureWrite(pj)
	pj.Write(oj.Offset(), bi)
}

// Get returns string i (tests).
func (s *StringSwap) Get(i int) []byte {
	oid, pool := s.slot(i)
	buf := make([]byte, s.strSize)
	pool.Read(oid.Offset(), buf)
	return buf
}

// Validate checks that the multiset of strings is the initial one: swaps
// permute, never corrupt.
func (s *StringSwap) Validate() error {
	seen := make(map[string]int, s.total)
	for i := 0; i < s.total; i++ {
		seen[string(s.Get(i))]++
	}
	buf := make([]byte, s.strSize)
	for i := 0; i < s.total; i++ {
		fillValue(buf, uint64(i)+1)
		if seen[string(buf)] == 0 {
			return fmt.Errorf("stringswap: string %d lost", i)
		}
		seen[string(buf)]--
	}
	return nil
}

// ssWorkload is the registered "ss" benchmark.
type ssWorkload struct {
	mp *MultiPool
	ss *StringSwap
}

func init() {
	workload.Register("ss", func() workload.Workload { return &ssWorkload{} })
}

// Name implements workload.Workload.
func (w *ssWorkload) Name() string { return "ss" }

// Setup implements workload.Workload.
func (w *ssWorkload) Setup(env *workload.Env) error {
	mp, err := SetupPools(env, "ss")
	if err != nil {
		return err
	}
	w.mp = mp
	ctx := NewOpCtx(env, mp)
	w.ss, err = NewStringSwap(mp, env, ctx)
	return err
}

// Run implements workload.Workload.
func (w *ssWorkload) Run(env *workload.Env) error {
	ctx := NewOpCtx(env, w.mp)
	npools := len(w.mp.Pools)
	for i := 0; i < env.P.Ops; i++ {
		env.Space.Thread = opThread(env, i)
		env.Space.Instr(env.P.InstrPerOp)
		a := env.Rng.Intn(w.ss.total)
		b := env.Rng.Intn(w.ss.total)
		if env.P.PerPool() {
			// Swap two strings striped into the same pool.
			b = b - b%npools + a%npools
			if b >= w.ss.total {
				b = a
			}
		}
		w.ss.Swap(ctx, a, b)
		ctx.End()
		env.OpDone(i)
	}
	return nil
}
