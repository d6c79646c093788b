package micro

import (
	"encoding/binary"
	"fmt"

	"domainvirt/internal/pmo"
	"domainvirt/internal/workload"
)

// B+tree node layout (4096 bytes, per the paper: "a node is 4096-byte
// long, containing 126 values and two pointers"):
//
//	off  0: isLeaf u64
//	off  8: nkeys u64
//	off 16: next-leaf OID (leaf chain)
//	off 24: reserved
//	leaves:   entries at off 32, 32 bytes each: key u64 + 24-byte value
//	internal: keys at off 32 (126 × u64), children at off 1040 (127 OIDs)
const (
	btIsLeaf  = 0
	btNKeys   = 8
	btNext    = 16
	btEntries = 32

	btNodeSize   = 4096
	btLeafEntry  = 32
	btMaxKeys    = 126
	btChildBase  = btEntries + btMaxKeys*8
	btValueBytes = 24
)

// btElemFactor scales the B+tree element count: the paper sizes
// structures in nodes, and one B+tree node holds 126 values, so reaching
// the same node count as the pointer-chasing benchmarks takes ~two
// orders of magnitude more elements.
const btElemFactor = 32

// BPTree is a persistent B+tree whose 4 KB nodes are scattered across
// pools; its flat fan-out gives it the best locality of the
// microbenchmarks (the paper's explanation for its late crossover point).
type BPTree struct {
	mp       *MultiPool
	home     *pmo.Pool
	keyspace uint64
	scratch  [btNodeSize]byte // entry block moves within and between leaves
}

// NewBPTree wraps mp as a B+tree, creating the root leaf in a random
// pool.
func NewBPTree(mp *MultiPool, env *workload.Env, ctx *OpCtx) (*BPTree, error) {
	return NewBPTreeHomed(mp, env, ctx, mp.Home())
}

// NewBPTreeHomed roots the tree's pointer in an explicit pool.
func NewBPTreeHomed(mp *MultiPool, env *workload.Env, ctx *OpCtx, home *pmo.Pool) (*BPTree, error) {
	t := &BPTree{mp: mp, home: home, keyspace: env.P.Keyspace() * btElemFactor}
	root, err := t.newLeaf(ctx)
	if err != nil {
		return nil, err
	}
	ctx.EnsureWrite(home)
	home.SetRoot(root)
	ctx.End()
	return t, nil
}

func (t *BPTree) root() pmo.OID { return t.home.Root() }

func (t *BPTree) setRoot(ctx *OpCtx, o pmo.OID) {
	ctx.EnsureWrite(t.home)
	t.home.SetRoot(o)
}

func (t *BPTree) newLeaf(ctx *OpCtx) (pmo.OID, error) {
	o, err := ctx.Alloc(btNodeSize)
	if err != nil {
		return pmo.NullOID, err
	}
	ctx.W8(o, btIsLeaf, 1)
	ctx.W8(o, btNKeys, 0)
	ctx.WOID(o, btNext, pmo.NullOID)
	return o, nil
}

func (t *BPTree) newInternal(ctx *OpCtx) (pmo.OID, error) {
	o, err := ctx.Alloc(btNodeSize)
	if err != nil {
		return pmo.NullOID, err
	}
	ctx.W8(o, btIsLeaf, 0)
	ctx.W8(o, btNKeys, 0)
	return o, nil
}

func (t *BPTree) leafKey(ctx *OpCtx, o pmo.OID, i int) uint64 {
	return ctx.R8(o, uint32(btEntries+i*btLeafEntry))
}

func (t *BPTree) internalKey(ctx *OpCtx, o pmo.OID, i int) uint64 {
	return ctx.R8(o, uint32(btEntries+i*8))
}

func (t *BPTree) child(ctx *OpCtx, o pmo.OID, i int) pmo.OID {
	return ctx.ROID(o, uint32(btChildBase+i*8))
}

func (t *BPTree) writeLeafEntry(ctx *OpCtx, o pmo.OID, i int, key uint64) {
	p := t.mp.ByOID(o)
	ctx.EnsureWrite(p)
	var buf [btLeafEntry]byte
	binary.LittleEndian.PutUint64(buf[:8], key)
	fillValue(buf[8:8+btValueBytes], key)
	p.Write(o.Offset()+uint32(btEntries+i*btLeafEntry), buf[:])
}

// shiftLeaf moves entries [pos, n) one slot right via a block copy.
func (t *BPTree) shiftLeaf(ctx *OpCtx, o pmo.OID, pos, n int) {
	if pos >= n {
		return
	}
	p := t.mp.ByOID(o)
	ctx.EnsureWrite(p)
	buf := t.scratch[:(n-pos)*btLeafEntry]
	p.Read(o.Offset()+uint32(btEntries+pos*btLeafEntry), buf)
	p.Write(o.Offset()+uint32(btEntries+(pos+1)*btLeafEntry), buf)
}

// Insert adds key (updating in place on duplicates).
func (t *BPTree) Insert(ctx *OpCtx, key uint64) error {
	root := t.root()
	promo, newNode, err := t.insertRec(ctx, root, key)
	if err != nil {
		return err
	}
	if newNode.IsNull() {
		return nil
	}
	// Root split: grow the tree by one level.
	nr, err := t.newInternal(ctx)
	if err != nil {
		return err
	}
	ctx.W8(nr, btNKeys, 1)
	ctx.W8(nr, uint32(btEntries), promo)
	ctx.WOID(nr, uint32(btChildBase), root)
	ctx.WOID(nr, uint32(btChildBase+8), newNode)
	t.setRoot(ctx, nr)
	return nil
}

func (t *BPTree) insertRec(ctx *OpCtx, o pmo.OID, key uint64) (uint64, pmo.OID, error) {
	n := int(ctx.R8(o, btNKeys))
	if ctx.R8(o, btIsLeaf) == 1 {
		pos := 0
		for pos < n {
			k := t.leafKey(ctx, o, pos)
			if key == k {
				t.writeLeafEntry(ctx, o, pos, key) // refresh value
				return 0, pmo.NullOID, nil
			}
			if key < k {
				break
			}
			pos++
		}
		if n < btMaxKeys {
			t.shiftLeaf(ctx, o, pos, n)
			t.writeLeafEntry(ctx, o, pos, key)
			ctx.W8(o, btNKeys, uint64(n+1))
			return 0, pmo.NullOID, nil
		}
		// Leaf split: upper half moves to a new leaf.
		nl, err := t.newLeaf(ctx)
		if err != nil {
			return 0, pmo.NullOID, err
		}
		half := n / 2
		src, dst := t.mp.ByOID(o), t.mp.ByOID(nl)
		ctx.EnsureWrite(dst)
		buf := t.scratch[:(n-half)*btLeafEntry]
		src.Read(o.Offset()+uint32(btEntries+half*btLeafEntry), buf)
		dst.Write(nl.Offset()+uint32(btEntries), buf)
		ctx.W8(nl, btNKeys, uint64(n-half))
		ctx.WOID(nl, btNext, ctx.ROID(o, btNext))
		ctx.W8(o, btNKeys, uint64(half))
		ctx.WOID(o, btNext, nl)
		sep := t.leafKey(ctx, nl, 0)
		if key < sep {
			if _, _, err := t.insertRec(ctx, o, key); err != nil {
				return 0, pmo.NullOID, err
			}
		} else {
			if _, _, err := t.insertRec(ctx, nl, key); err != nil {
				return 0, pmo.NullOID, err
			}
		}
		return sep, nl, nil
	}

	// Internal node: find the child to descend into.
	idx := 0
	for idx < n && key >= t.internalKey(ctx, o, idx) {
		idx++
	}
	promo, newChild, err := t.insertRec(ctx, t.child(ctx, o, idx), key)
	if err != nil || newChild.IsNull() {
		return 0, pmo.NullOID, err
	}
	// Insert (promo, newChild) at idx.
	p := t.mp.ByOID(o)
	ctx.EnsureWrite(p)
	for i := n; i > idx; i-- {
		ctx.W8(o, uint32(btEntries+i*8), t.internalKey(ctx, o, i-1))
		ctx.WOID(o, uint32(btChildBase+(i+1)*8), t.child(ctx, o, i))
	}
	ctx.W8(o, uint32(btEntries+idx*8), promo)
	ctx.WOID(o, uint32(btChildBase+(idx+1)*8), newChild)
	n++
	ctx.W8(o, btNKeys, uint64(n))
	if n < btMaxKeys {
		return 0, pmo.NullOID, nil
	}
	// Internal split: promote the middle key.
	half := n / 2
	mid := t.internalKey(ctx, o, half)
	ni, err := t.newInternal(ctx)
	if err != nil {
		return 0, pmo.NullOID, err
	}
	for i := half + 1; i < n; i++ {
		j := i - half - 1
		ctx.W8(ni, uint32(btEntries+j*8), t.internalKey(ctx, o, i))
		ctx.WOID(ni, uint32(btChildBase+j*8), t.child(ctx, o, i))
	}
	ctx.WOID(ni, uint32(btChildBase+(n-half-1)*8), t.child(ctx, o, n))
	ctx.W8(ni, btNKeys, uint64(n-half-1))
	ctx.W8(o, btNKeys, uint64(half))
	return mid, ni, nil
}

// Search reports whether key is present.
func (t *BPTree) Search(ctx *OpCtx, key uint64) bool {
	o := t.root()
	for ctx.R8(o, btIsLeaf) == 0 {
		n := int(ctx.R8(o, btNKeys))
		idx := 0
		for idx < n && key >= t.internalKey(ctx, o, idx) {
			idx++
		}
		o = t.child(ctx, o, idx)
	}
	n := int(ctx.R8(o, btNKeys))
	for i := 0; i < n; i++ {
		if t.leafKey(ctx, o, i) == key {
			return true
		}
	}
	return false
}

// Delete removes key from its leaf (lazy deletion: leaves are never
// merged, matching insert-dominated workloads).
func (t *BPTree) Delete(ctx *OpCtx, key uint64) (bool, error) {
	o := t.root()
	for ctx.R8(o, btIsLeaf) == 0 {
		n := int(ctx.R8(o, btNKeys))
		idx := 0
		for idx < n && key >= t.internalKey(ctx, o, idx) {
			idx++
		}
		o = t.child(ctx, o, idx)
	}
	n := int(ctx.R8(o, btNKeys))
	for i := 0; i < n; i++ {
		if t.leafKey(ctx, o, i) == key {
			p := t.mp.ByOID(o)
			ctx.EnsureWrite(p)
			if i < n-1 {
				buf := t.scratch[:(n-1-i)*btLeafEntry]
				p.Read(o.Offset()+uint32(btEntries+(i+1)*btLeafEntry), buf)
				p.Write(o.Offset()+uint32(btEntries+i*btLeafEntry), buf)
			}
			ctx.W8(o, btNKeys, uint64(n-1))
			return true, nil
		}
	}
	return false, nil
}

// Keys returns all keys via the leaf chain (tests).
func (t *BPTree) Keys(ctx *OpCtx) []uint64 {
	o := t.root()
	for ctx.R8(o, btIsLeaf) == 0 {
		o = t.child(ctx, o, 0)
	}
	var out []uint64
	for !o.IsNull() {
		n := int(ctx.R8(o, btNKeys))
		for i := 0; i < n; i++ {
			out = append(out, t.leafKey(ctx, o, i))
		}
		o = ctx.ROID(o, btNext)
	}
	return out
}

// Validate checks sortedness along the leaf chain and fan-out bounds.
func (t *BPTree) Validate(ctx *OpCtx) error {
	keys := t.Keys(ctx)
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return fmt.Errorf("bptree: leaf chain unsorted at %d (%d >= %d)", i, keys[i-1], keys[i])
		}
	}
	var walk func(o pmo.OID, depth int) (int, error)
	walk = func(o pmo.OID, depth int) (int, error) {
		n := int(ctx.R8(o, btNKeys))
		if n > btMaxKeys {
			return 0, fmt.Errorf("bptree: node overflow (%d keys)", n)
		}
		if ctx.R8(o, btIsLeaf) == 1 {
			return depth, nil
		}
		want := -1
		for i := 0; i <= n; i++ {
			d, err := walk(t.child(ctx, o, i), depth+1)
			if err != nil {
				return 0, err
			}
			if want < 0 {
				want = d
			} else if d != want {
				return 0, fmt.Errorf("bptree: uneven leaf depth (%d vs %d)", d, want)
			}
		}
		return want, nil
	}
	_, err := walk(t.root(), 0)
	return err
}

// btWorkload is the registered "bt" benchmark.
type btWorkload struct {
	mp    *MultiPool
	tree  *BPTree
	trees []*BPTree // per-pool placement ablation
}

func init() {
	workload.Register("bt", func() workload.Workload { return &btWorkload{} })
}

// Name implements workload.Workload.
func (w *btWorkload) Name() string { return "bt" }

// Setup implements workload.Workload.
func (w *btWorkload) Setup(env *workload.Env) error {
	mp, err := SetupPools(env, "bt")
	if err != nil {
		return err
	}
	w.mp = mp
	ctx := NewOpCtx(env, mp)
	if env.P.PerPool() {
		for _, p := range mp.Pools {
			tr, err := NewBPTreeHomed(mp, env, ctx, p)
			if err != nil {
				return err
			}
			tr.keyspace = env.P.Keyspace() // per-pool trees stay small
			ctx.Pin = p
			for i := 0; i < env.P.InitialElems; i++ {
				if err := tr.Insert(ctx, randomKey(env, tr.keyspace)); err != nil {
					return err
				}
				ctx.End()
			}
			w.trees = append(w.trees, tr)
		}
		ctx.Pin = nil
		return nil
	}
	w.tree, err = NewBPTree(mp, env, ctx)
	if err != nil {
		return err
	}
	for i := 0; i < env.P.InitialElems*btElemFactor; i++ {
		if err := w.tree.Insert(ctx, randomKey(env, w.tree.keyspace)); err != nil {
			return err
		}
		ctx.End()
	}
	return nil
}

// Run implements workload.Workload.
func (w *btWorkload) Run(env *workload.Env) error {
	ctx := NewOpCtx(env, w.mp)
	for i := 0; i < env.P.Ops; i++ {
		env.Space.Thread = opThread(env, i)
		env.Space.Instr(env.P.InstrPerOp)
		tree := w.tree
		if env.P.PerPool() {
			idx := env.Rng.Intn(len(w.trees))
			tree = w.trees[idx]
			ctx.Pin = w.mp.Pools[idx]
		}
		key := randomKey(env, tree.keyspace)
		if env.Rng.Intn(100) < 90 {
			if err := tree.Insert(ctx, key); err != nil {
				return err
			}
		} else {
			if _, err := tree.Delete(ctx, key); err != nil {
				return err
			}
		}
		ctx.End()
		ctx.Pin = nil
		env.OpDone(i)
	}
	return nil
}
