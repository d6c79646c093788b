package domainvirt

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"domainvirt/internal/core"
	"domainvirt/internal/pmo"
	"domainvirt/internal/sim"
	"domainvirt/internal/workload"
)

// faultsProtected is a test-only workload that faults under every
// protected scheme but not under baseline: once, halfway through the
// run, it revokes its own access and reads anyway. A denied read returns
// zero, and the workload then takes a different path (extra stores), so
// under a shared pass the baseline machine would see events its solo run
// never emits unless the pass is discarded.
type faultsProtected struct {
	pool *pmo.Pool
	off  uint32
}

func (w *faultsProtected) Name() string { return "test-faults-protected" }

func (w *faultsProtected) Setup(env *workload.Env) error {
	p, err := env.Store.Create("faults", env.P.PoolSize, pmo.ModeDefault, "test")
	if err != nil {
		return err
	}
	if _, err := env.Space.Attach(p, core.PermRW, ""); err != nil {
		return err
	}
	if err := env.Space.SetPerm(p, core.PermRW, workload.SiteSetupGrant); err != nil {
		return err
	}
	oid, err := p.Alloc(64)
	if err != nil {
		return err
	}
	w.pool, w.off = p, oid.Offset()
	p.WriteU64(w.off, 1)
	return nil
}

func (w *faultsProtected) Run(env *workload.Env) error {
	for i := 0; i < env.P.Ops; i++ {
		revoke := i == env.P.Ops/2
		if revoke {
			_ = env.Space.SetPerm(w.pool, core.PermNone, workload.SiteOpDisable)
		}
		v := w.pool.ReadU64(w.off)
		if revoke {
			_ = env.Space.SetPerm(w.pool, core.PermRW, workload.SiteOpEnable)
		}
		if v == 0 {
			for k := uint32(0); k < 8; k++ {
				w.pool.WriteU64(w.off+8*k, uint64(k))
			}
		}
		w.pool.WriteU64(w.off, v+1)
		env.Space.Instr(10)
		env.OpDone(i)
	}
	return nil
}

// attachOverflow is a test-only workload whose measured phase attaches
// 17 pools and ignores attach errors. Default MPK has 16 keys, so its
// 17th attach fails and that pool stays unattached (its stores emit
// nothing); the other schemes attach all 17. In a shared
// pass the Tee detaches the failed attach from the machines that took
// it, which their solo runs never do, so the pass must be discarded
// although nothing faults.
type attachOverflow struct{}

func (attachOverflow) Name() string                  { return "test-attach-overflow" }
func (attachOverflow) Setup(env *workload.Env) error { return nil }

func (attachOverflow) Run(env *workload.Env) error {
	for i := 0; i < 17; i++ {
		p, err := env.Store.Create(fmt.Sprintf("overflow-%02d", i), env.P.PoolSize, pmo.ModeDefault, "test")
		if err != nil {
			return err
		}
		if _, err := env.Space.Attach(p, core.PermRW, ""); err == nil {
			_ = env.Space.SetPerm(p, core.PermRW, workload.SiteOpEnable)
		}
		oid, err := p.Alloc(64)
		if err != nil {
			return err
		}
		p.WriteU64(oid.Offset(), uint64(i))
		env.OpDone(i)
	}
	return nil
}

func tinyGroupOptions() ExpOptions {
	opt := DefaultExpOptions()
	opt.WhisperOps = 300
	opt.WhisperInit = 100
	opt.MicroOps = 200
	opt.MicroInit = 64
	opt.PMOCounts = []int{16}
	return opt
}

// readTree returns every file under dir keyed by its relative path.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGroupedGridMatchesPerCell is the referee of grouped execution: a
// snapshot-served grid runs the schemes of each (workload, params) group
// from one workload pass teed into one restored machine per scheme, and
// must give the same rows and byte-identical observability exports as
// the per-cell grid without a snapshot cache — sequentially and on a
// 4-worker pool, observed and not, from a fresh memory cache (whose
// warmup builds hand their machine to the building cell), and
// (observed) from a primed on-disk store (whose loads hand their
// validated machine to the loading cell).
func TestGroupedGridMatchesPerCell(t *testing.T) {
	// The epochs give every cell's series several lines; WHISPER runs
	// retire far more instructions per op than the micro benchmarks.
	exps := []struct {
		name  string
		epoch uint64
		run   func(ExpOptions) (any, error)
	}{
		{"table5", 200000, func(o ExpOptions) (any, error) { return Table5(o) }},
		{"table6", 10000, func(o ExpOptions) (any, error) { return Table6(o) }},
		{"fig6", 10000, func(o ExpOptions) (any, error) { return Fig6(o) }},
	}
	for _, exp := range exps {
		for _, observed := range []bool{false, true} {
			name := exp.name + "/unobserved"
			if observed {
				name = exp.name + "/observed"
			}
			t.Run(name, func(t *testing.T) {
				run := func(label string, workers int, cache *SnapshotCache) (any, map[string]string) {
					t.Helper()
					opt := tinyGroupOptions()
					opt.Workers = workers
					opt.Snapshots = cache
					if observed {
						opt.Obs = ExpObs{Dir: filepath.Join(t.TempDir(), "obs"), Epoch: exp.epoch}
					}
					rows, err := exp.run(opt)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !observed {
						return rows, nil
					}
					return rows, readTree(t, opt.Obs.Dir)
				}
				wantRows, wantObs := run("per-cell", 1, nil)
				check := func(label string, rows any, files map[string]string) {
					t.Helper()
					if !reflect.DeepEqual(rows, wantRows) {
						t.Errorf("%s: rows differ from the per-cell grid:\n got %v\nwant %v", label, rows, wantRows)
					}
					if !reflect.DeepEqual(files, wantObs) {
						t.Errorf("%s: obs exports differ from the per-cell grid", label)
					}
				}
				for _, workers := range []int{1, 4} {
					rows, files := run("grouped", workers, NewSnapshotCache())
					check(fmt.Sprintf("grouped, %d workers", workers), rows, files)
				}
				if !observed {
					return
				}
				dir := t.TempDir()
				for _, pass := range []string{"disk-prime", "disk-warm"} {
					cache, err := NewSnapshotCacheDir(dir)
					if err != nil {
						t.Fatal(err)
					}
					rows, files := run(pass, 4, cache)
					check(pass, rows, files)
					if st := cache.Stats(); pass == "disk-warm" && (st.Warmups != 0 || st.DiskHits == 0) {
						t.Errorf("%s: %+v, want every warmup served from disk", pass, st)
					}
				}
			})
		}
	}
}

// TestGroupedFallbackMatchesPerCell: when a machine of a shared pass
// faults or rejects an attach, the pass is discarded and every cell
// reruns alone, so the grouped grid returns what the per-cell grid
// returns (rows or the lowest-index error) and every cell gets its solo
// result or error.
func TestGroupedFallbackMatchesPerCell(t *testing.T) {
	cases := []struct {
		newW   func() workload.Workload
		faults bool // the protected schemes fault
	}{
		{func() workload.Workload { return &faultsProtected{} }, true},
		{func() workload.Workload { return attachOverflow{} }, false},
	}
	p := Params{NumPMOs: 1, Ops: 50, InitialElems: 1, PoolSize: 1 << 20, Seed: 7}
	schemes := []Scheme{SchemeBaseline, SchemeMPK, SchemeDomainVirt}
	cfg := DefaultConfig()
	for _, tc := range cases {
		name := tc.newW().Name()
		t.Run(name, func(t *testing.T) {
			// A factory per call: workloads keep Go-side state.
			workload.Register(name, tc.newW)
			t.Cleanup(func() { workload.Unregister(name) })

			opt := DefaultExpOptions()
			opt.Workers = 1
			want, wantErr := RunSchemesOpt(name, p, opt, schemes...)
			if (wantErr != nil) != tc.faults {
				t.Fatalf("per-cell grid error = %v, want an error: %v", wantErr, tc.faults)
			}
			opt.Snapshots = NewSnapshotCache()
			got, err := RunSchemesOpt(name, p, opt, schemes...)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("grouped grid = %v, %v; want the per-cell %v, %v", got, err, want, wantErr)
			}

			runs := runGroup(name, p, schemes, cfg, NewSnapshotCache(), nil)
			for k, s := range schemes {
				solo, soloErr := Run(name, p, s, cfg)
				if runs[k].res != solo || fmt.Sprint(runs[k].err) != fmt.Sprint(soloErr) {
					t.Errorf("%s in the group: %+v, %v; want its solo Run %+v, %v",
						s, runs[k].res, runs[k].err, solo, soloErr)
				}
			}
			if tc.faults && runs[0].err != nil {
				t.Errorf("baseline faulted: %v", runs[0].err)
			}
		})
	}
}

// TestWarmupHandsOwnMachine: the cell whose call builds a warmup
// checkpoint, or loads it from the store, runs on the machine that took
// or validated it instead of restoring a second one. That machine must
// match a fresh Restore of the same snapshot, before and after the
// measured pass, and only that call gets it.
func TestWarmupHandsOwnMachine(t *testing.T) {
	p := Params{NumPMOs: 16, Ops: 200, InitialElems: 64, Seed: 42}
	cfg := DefaultConfig()
	dir := t.TempDir()
	prime, err := NewSnapshotCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{SchemeBaseline, SchemeLowerbound, SchemeMPK, SchemeLibmpk, SchemeMPKVirt, SchemeDomainVirt} {
		want, err := Run("avl", p, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		disk, err := NewSnapshotCacheDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		// prime builds the checkpoint and writes it through; disk, opened
		// afterwards on the same directory, loads it.
		for _, c := range []struct {
			cache *SnapshotCache
			src   warmupSource
		}{{prime, warmupBuilt}, {disk, warmupDisk}} {
			snap, own, src := c.cache.warmup("avl", p, s, cfg)
			if src != c.src || snap == nil || own == nil {
				t.Fatalf("%s: warmup gave source %d (want %d), snapshot %v, machine %v",
					s, src, c.src, snap != nil, own != nil)
			}
			fresh := sim.NewMachine(cfg, s)
			fresh.Restore(snap)
			if own.Result() != fresh.Result() {
				t.Errorf("%s (source %d): handed machine's Result differs from a fresh Restore", s, src)
			}
			if _, again, src := c.cache.warmup("avl", p, s, cfg); again != nil || src != warmupMem {
				t.Errorf("%s: a memory hit was handed a machine (source %d)", s, src)
			}
			for _, f := range []fork{{scheme: s, snap: snap, m: own}, {scheme: s, snap: snap}} {
				run := runForks("avl", p, cfg, []fork{f}, nil)[0]
				if run.err != nil {
					t.Fatalf("%s: %v", s, run.err)
				}
				if run.res != want {
					t.Errorf("%s (source %d, handed machine %v): measured Result differs from Run",
						s, src, f.m != nil)
				}
			}
		}
	}
}
