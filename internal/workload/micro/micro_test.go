package micro

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"domainvirt/internal/trace"
	"domainvirt/internal/workload"
)

func testEnv(t *testing.T, pmos int) *workload.Env {
	t.Helper()
	p := workload.Params{NumPMOs: pmos, Ops: 100, InitialElems: 64, Seed: 1}
	return workload.NewEnv(trace.Discard{}, p)
}

// refModel drives a structure and a Go map with the same operations and
// compares the surviving key sets.
func refCheck(t *testing.T, name string, insert func(uint64) error, del func(uint64) (bool, error), keys func() []uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	ref := make(map[uint64]bool)
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(400)) + 1
		if rng.Intn(100) < 70 {
			if err := insert(k); err != nil {
				t.Fatalf("%s insert: %v", name, err)
			}
			ref[k] = true
		} else {
			got, err := del(k)
			if err != nil {
				t.Fatalf("%s delete: %v", name, err)
			}
			if got != ref[k] {
				t.Fatalf("%s delete(%d) = %v, ref %v", name, k, got, ref[k])
			}
			delete(ref, k)
		}
	}
	want := make([]uint64, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := keys()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %d keys vs ref %d", name, len(got), len(want))
	}
}

func TestAVLAgainstReference(t *testing.T) {
	env := testEnv(t, 8)
	mp, err := SetupPools(env, "avl-test")
	if err != nil {
		t.Fatal(err)
	}
	tree := NewAVL(mp, env)
	ctx := NewOpCtx(env, mp)
	refCheck(t, "avl",
		func(k uint64) error { defer ctx.End(); return tree.Insert(ctx, k) },
		func(k uint64) (bool, error) { defer ctx.End(); return tree.Delete(ctx, k) },
		func() []uint64 { return tree.Keys(ctx) })
	if err := tree.Validate(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestRBTAgainstReference(t *testing.T) {
	env := testEnv(t, 8)
	mp, err := SetupPools(env, "rbt-test")
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewOpCtx(env, mp)
	tree, err := NewRBT(mp, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	refCheck(t, "rbt",
		func(k uint64) error { defer ctx.End(); return tree.Insert(ctx, k) },
		func(k uint64) (bool, error) { defer ctx.End(); return tree.Delete(ctx, k) },
		func() []uint64 { return tree.Keys(ctx) })
	if err := tree.Validate(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestBPTreeAgainstReference(t *testing.T) {
	env := testEnv(t, 8)
	mp, err := SetupPools(env, "bt-test")
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewOpCtx(env, mp)
	tree, err := NewBPTree(mp, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	refCheck(t, "bt",
		func(k uint64) error { defer ctx.End(); return tree.Insert(ctx, k) },
		func(k uint64) (bool, error) { defer ctx.End(); return tree.Delete(ctx, k) },
		func() []uint64 { return tree.Keys(ctx) })
	if err := tree.Validate(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestBPTreeSplitsDeepTree(t *testing.T) {
	// Insert enough sequential keys to force internal splits (>126*126
	// would be level-3; a few thousand gives a 2-3 level tree).
	env := testEnv(t, 4)
	mp, err := SetupPools(env, "bt-deep")
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewOpCtx(env, mp)
	tree, err := NewBPTree(mp, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for k := uint64(1); k <= n; k++ {
		if err := tree.Insert(ctx, k); err != nil {
			t.Fatal(err)
		}
		ctx.End()
	}
	keys := tree.Keys(ctx)
	if len(keys) != n {
		t.Fatalf("keys = %d, want %d", len(keys), n)
	}
	for i, k := range keys {
		if k != uint64(i+1) {
			t.Fatalf("keys[%d] = %d", i, k)
		}
	}
	if err := tree.Validate(ctx); err != nil {
		t.Fatal(err)
	}
	if !tree.Search(ctx, n/2) || tree.Search(ctx, n+1) {
		t.Error("search broken")
	}
}

func TestLinkedListAgainstReference(t *testing.T) {
	env := testEnv(t, 8)
	mp, err := SetupPools(env, "ll-test")
	if err != nil {
		t.Fatal(err)
	}
	list := NewLinkedList(mp, env)
	ctx := NewOpCtx(env, mp)
	refCheck(t, "ll",
		func(k uint64) error { defer ctx.End(); return list.Insert(ctx, k) },
		func(k uint64) (bool, error) { defer ctx.End(); return list.Delete(ctx, k) },
		func() []uint64 { return list.Keys(ctx) })
	if err := list.Validate(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestStringSwapPermutes(t *testing.T) {
	env := testEnv(t, 8)
	mp, err := SetupPools(env, "ss-test")
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewOpCtx(env, mp)
	ss, err := NewStringSwap(mp, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	before0 := append([]byte(nil), ss.Get(0)...)
	before9 := append([]byte(nil), ss.Get(9)...)
	ss.Swap(ctx, 0, 9)
	ctx.End()
	if string(ss.Get(0)) != string(before9) || string(ss.Get(9)) != string(before0) {
		t.Error("swap did not exchange contents")
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		ss.Swap(ctx, rng.Intn(ss.total), rng.Intn(ss.total))
		ctx.End()
	}
	if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadsRegisteredAndRunnable(t *testing.T) {
	for _, name := range []string{"avl", "rbt", "bt", "ll", "ss"} {
		w, err := workload.New(name)
		if err != nil {
			t.Fatal(err)
		}
		env := workload.NewEnv(trace.Discard{}, workload.Params{
			NumPMOs: 8, Ops: 200, InitialElems: 64, Seed: 3,
		})
		if err := w.Setup(env); err != nil {
			t.Fatalf("%s setup: %v", name, err)
		}
		if err := w.Run(env); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
	}
}

// TestDeterminism: the same seed must produce the identical event stream
// — the property that makes cross-scheme comparisons a paired experiment.
func TestDeterminism(t *testing.T) {
	run := func() trace.Counter {
		var c trace.Counter
		env := workload.NewEnv(&c, workload.Params{NumPMOs: 16, Ops: 300, InitialElems: 64, Seed: 9})
		w, _ := workload.New("avl")
		if err := w.Setup(env); err != nil {
			t.Fatal(err)
		}
		if err := w.Run(env); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("event streams diverge: %+v vs %+v", a, b)
	}
}

func TestWriteWindowDiscipline(t *testing.T) {
	// Every op must close its window: after End, pools are back to R.
	var c trace.Counter
	env := workload.NewEnv(&c, workload.Params{NumPMOs: 8, Ops: 50, InitialElems: 32, Seed: 2})
	w, _ := workload.New("avl")
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(env); err != nil {
		t.Fatal(err)
	}
	if c.SetPerms%2 != 0 {
		t.Errorf("unbalanced SETPERM count %d: a window stayed open", c.SetPerms)
	}
}

// TestPerPoolPlacement runs every micro benchmark in the per-pool
// placement ablation and validates the per-pool structures afterwards.
func TestPerPoolPlacement(t *testing.T) {
	for _, name := range []string{"avl", "rbt", "bt", "ll", "ss"} {
		w, err := workload.New(name)
		if err != nil {
			t.Fatal(err)
		}
		env := workload.NewEnv(trace.Discard{}, workload.Params{
			NumPMOs: 8, Ops: 300, InitialElems: 48, Seed: 17, Placement: "perpool",
		})
		if err := w.Setup(env); err != nil {
			t.Fatalf("%s setup: %v", name, err)
		}
		if err := w.Run(env); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
	}
	// Validate one structure family in depth.
	env := workload.NewEnv(trace.Discard{}, workload.Params{
		NumPMOs: 4, Ops: 500, InitialElems: 48, Seed: 18, Placement: "perpool",
	})
	w, _ := workload.New("avl")
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(env); err != nil {
		t.Fatal(err)
	}
	aw := w.(*avlWorkload)
	ctx := NewOpCtx(env, aw.mp)
	for i, tr := range aw.trees {
		if err := tr.Validate(ctx); err != nil {
			t.Errorf("per-pool tree %d invalid: %v", i, err)
		}
	}
}

// TestPerPoolTouchesOneDomain: a per-pool op's write window covers
// exactly one pool (plus none others) — the property the placement
// ablation is about.
func TestPerPoolTouchesOneDomain(t *testing.T) {
	var counter trace.Counter
	a := trace.NewAuditor(&counter)
	env := workload.NewEnv(a, workload.Params{
		NumPMOs: 8, Ops: 200, InitialElems: 32, Seed: 19, Placement: "perpool",
	})
	w, _ := workload.New("avl")
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(env); err != nil {
		t.Fatal(err)
	}
	if a.MaxWritable != 1 {
		t.Errorf("per-pool placement peak write-enabled domains = %d, want 1", a.MaxWritable)
	}
	if got := a.Finish(); len(got) != 0 {
		t.Errorf("window discipline: %v", got)
	}
}

// TestOpCtxAccessesDoNotAllocate pins the per-op heap allocations of the
// node accessors at zero once an OpCtx is warmed: the pool lookup is a
// slice index, the write window a bool slice, and value and leaf-shift
// buffers are scratch owned by the context and the tree.
func TestOpCtxAccessesDoNotAllocate(t *testing.T) {
	env := testEnv(t, 8)
	mp, err := SetupPools(env, "alloc-test")
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewOpCtx(env, mp)
	tree, err := NewBPTree(mp, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.root()
	node, err := ctx.Alloc(64 + uint64(env.P.ValueSize))
	if err != nil {
		t.Fatal(err)
	}
	op := func() {
		ctx.W8(node, 0, ctx.R8(node, 0)+1)
		ctx.WriteValue(node, 64, 7)
		ctx.ReadValue(node, 64)
		tree.shiftLeaf(ctx, leaf, 0, 8)
		ctx.End()
	}
	op() // warm: sizes the write-window table
	if n := testing.AllocsPerRun(100, op); n != 0 {
		t.Fatalf("R8/W8/WriteValue/ReadValue/shiftLeaf allocate %.1f times per op, want 0", n)
	}
}
