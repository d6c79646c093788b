// Package micro implements the paper's multi-PMO microbenchmarks
// (Table IV): AVL tree, red-black tree, B+tree, linked list, and string
// swap. Each benchmark maintains one logical data structure whose nodes
// are scattered across 16–1024 pools (each node lives in a randomly
// chosen pool), so an operation's traversal touches several protection
// domains — the regime that stresses domain virtualization.
//
// Permission discipline, per the paper: every thread is granted read
// permission for all PMOs at setup; write permission for a PMO is enabled
// just before a data-structure operation writes it and disabled right
// after the operation completes.
package micro

import (
	"fmt"

	"domainvirt/internal/core"
	"domainvirt/internal/pmo"
	"domainvirt/internal/workload"
)

// MultiPool is the set of pools a benchmark spreads its nodes across.
type MultiPool struct {
	Pools []*pmo.Pool
	// byID is indexed by pool ID (nil where the ID is not one of Pools):
	// the store hands out IDs densely, and every node access resolves
	// its OID's pool through it.
	byID []*pmo.Pool
}

// SetupPools creates, attaches, and read-grants NumPMOs pools.
func SetupPools(env *workload.Env, prefix string) (*MultiPool, error) {
	mp := &MultiPool{}
	for i := 0; i < env.P.NumPMOs; i++ {
		p, err := env.Store.Create(fmt.Sprintf("%s-%04d", prefix, i), env.P.PoolSize, pmo.ModeDefault, "bench")
		if err != nil {
			return nil, err
		}
		if _, err := env.Space.Attach(p, core.PermRW, ""); err != nil {
			return nil, err
		}
		mp.Pools = append(mp.Pools, p)
		if n := int(p.ID()) + 1; n > len(mp.byID) {
			mp.byID = append(mp.byID, make([]*pmo.Pool, n-len(mp.byID))...)
		}
		mp.byID[p.ID()] = p
	}
	// Grant every thread read permission for all PMOs.
	orig := env.Space.Thread
	for th := 1; th <= env.P.Threads; th++ {
		env.Space.Thread = core.ThreadID(th)
		for _, p := range mp.Pools {
			if err := env.Space.SetPerm(p, core.PermR, workload.SiteSetupGrant); err != nil {
				return nil, err
			}
		}
	}
	env.Space.Thread = orig
	return mp, nil
}

// ByOID returns the pool holding o, or nil if o is in none of them.
func (m *MultiPool) ByOID(o pmo.OID) *pmo.Pool { return m.ByID(o.Pool()) }

// ByID returns the pool with the given ID, or nil.
func (m *MultiPool) ByID(id uint32) *pmo.Pool {
	if int(id) >= len(m.byID) {
		return nil
	}
	return m.byID[id]
}

// Home is the pool holding structure roots and sentinels (the first).
func (m *MultiPool) Home() *pmo.Pool { return m.Pools[0] }

// OpCtx is the write window of one data-structure operation: the first
// write to each pool enables its write permission; End revokes all of
// them, restoring read-only.
type OpCtx struct {
	Env *workload.Env
	MP  *MultiPool
	// Pin, when non-nil, forces all node placement into one pool — the
	// per-pool placement ablation (each pool holds its own structure).
	Pin     *pmo.Pool
	enabled []*pmo.Pool
	inWin   []bool // by pool ID: write enabled in this operation
	val     []byte // ValueSize scratch for WriteValue and ReadValue
}

// NewOpCtx returns a write-window tracker for the benchmark.
func NewOpCtx(env *workload.Env, mp *MultiPool) *OpCtx {
	return &OpCtx{Env: env, MP: mp, val: make([]byte, env.P.ValueSize)}
}

// EnsureWrite enables write permission for p if this operation has not
// already.
func (o *OpCtx) EnsureWrite(p *pmo.Pool) {
	id := int(p.ID())
	if id < len(o.inWin) && o.inWin[id] {
		return
	}
	if id >= len(o.inWin) {
		o.inWin = append(o.inWin, make([]bool, id+1-len(o.inWin))...)
	}
	o.inWin[id] = true
	o.enabled = append(o.enabled, p)
	_ = o.Env.Space.SetPerm(p, core.PermRW, workload.SiteOpEnable)
}

// End closes the operation's write window, restoring read-only on every
// pool it wrote.
func (o *OpCtx) End() {
	for _, p := range o.enabled {
		_ = o.Env.Space.SetPerm(p, core.PermR, workload.SiteOpDisable)
		o.inWin[p.ID()] = false
	}
	o.enabled = o.enabled[:0]
}

// RandomPool picks the pool for a new node: uniform across pools under
// scattered placement, the pinned pool under per-pool placement.
func (o *OpCtx) RandomPool() *pmo.Pool {
	if o.Pin != nil {
		return o.Pin
	}
	return o.MP.Pools[o.Env.Rng.Intn(len(o.MP.Pools))]
}

// Alloc allocates size bytes in a random pool inside the write window.
func (o *OpCtx) Alloc(size uint64) (pmo.OID, error) {
	p := o.RandomPool()
	o.EnsureWrite(p)
	return p.Alloc(size)
}

// Free releases oid inside the write window.
func (o *OpCtx) Free(oid pmo.OID) error {
	p := o.MP.ByOID(oid)
	if p == nil {
		return fmt.Errorf("micro: no pool for %v", oid)
	}
	o.EnsureWrite(p)
	return p.Free(oid)
}

// R8 reads a u64 field of node oid.
func (o *OpCtx) R8(oid pmo.OID, field uint32) uint64 {
	return o.MP.ByOID(oid).ReadU64(oid.Offset() + field)
}

// W8 writes a u64 field of node oid inside the write window.
func (o *OpCtx) W8(oid pmo.OID, field uint32, v uint64) {
	p := o.MP.ByOID(oid)
	o.EnsureWrite(p)
	p.WriteU64(oid.Offset()+field, v)
}

// ROID reads a persistent-pointer field.
func (o *OpCtx) ROID(oid pmo.OID, field uint32) pmo.OID {
	return pmo.OID(o.R8(oid, field))
}

// WOID writes a persistent-pointer field.
func (o *OpCtx) WOID(oid pmo.OID, field uint32, v pmo.OID) {
	o.W8(oid, field, uint64(v))
}

// WriteValue fills the node's payload deterministically from its key.
func (o *OpCtx) WriteValue(oid pmo.OID, field uint32, key uint64) {
	p := o.MP.ByOID(oid)
	o.EnsureWrite(p)
	fillValue(o.val, key)
	p.Write(oid.Offset()+field, o.val)
}

// ReadValue reads the node payload into the context's scratch buffer,
// which stays valid until the next ReadValue or WriteValue.
func (o *OpCtx) ReadValue(oid pmo.OID, field uint32) []byte {
	o.MP.ByOID(oid).Read(oid.Offset()+field, o.val)
	return o.val
}

func fillValue(buf []byte, key uint64) {
	x := key*0x9E3779B97F4A7C15 + 1
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
}

// opThread assigns operation i to a worker thread.
func opThread(env *workload.Env, i int) core.ThreadID {
	return core.ThreadID(1 + i%env.P.Threads)
}

// randomKey draws from the bounded key universe.
func randomKey(env *workload.Env, keyspace uint64) uint64 {
	return uint64(env.Rng.Int63n(int64(keyspace))) + 1
}
