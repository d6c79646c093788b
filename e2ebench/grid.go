package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	dv "domainvirt"
	"domainvirt/internal/sim"
	"domainvirt/internal/snapstore"
	"domainvirt/internal/stats"
	"domainvirt/internal/trace"
	"domainvirt/internal/workload"
)

const gridPMOs = 1024

var (
	fig6Schemes   = []dv.Scheme{dv.SchemeLowerbound, dv.SchemeLibmpk, dv.SchemeMPKVirt, dv.SchemeDomainVirt}
	table6Schemes = []dv.Scheme{dv.SchemeBaseline, dv.SchemeLowerbound}
)

// gridOptions is the experiment configuration both grid workloads use:
// the default scale, one worker (so wall time is one core's work), and
// only the 1024-PMO column of Fig. 6, where the libmpk comparator's
// shootdowns and PTE-key rewrites dominate.
func gridOptions(seed int64) dv.ExpOptions {
	o := dv.DefaultExpOptions()
	o.Workers = 1
	o.Seed = seed
	o.PMOCounts = []int{gridPMOs}
	return o
}

// cellParams mirrors the parameters the experiment API gives one
// multi-PMO cell, so that the traced pipeline runs the same cells.
func cellParams(o dv.ExpOptions) dv.Params {
	return dv.Params{NumPMOs: gridPMOs, Ops: o.MicroOps, InitialElems: o.MicroInit, Seed: o.Seed}
}

// cellClock is an ExpOptions.Progress sink that turns the "[i/n] label"
// line written as each cell completes into per-cell wall times.
type cellClock struct {
	mu    sync.Mutex
	last  time.Time
	cells []time.Duration
}

func newCellClock() *cellClock { return &cellClock{last: time.Now()} }

func (c *cellClock) Write(p []byte) (int, error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if bytes.HasPrefix(p, []byte("[")) {
		c.cells = append(c.cells, now.Sub(c.last))
		fmt.Fprintf(os.Stderr, "e2ebench: cell %s %.3fs\n", bytes.TrimSpace(p), now.Sub(c.last).Seconds())
		c.last = now
	}
	return len(p), nil
}

// pass is one measured execution of a whole grid.
type pass struct {
	wall, cpu time.Duration
	cells     []time.Duration
}

// timePass runs fn once and records its wall and process CPU time and
// the per-cell times of clock.
func timePass(clock *cellClock, fn func() error) (pass, error) {
	c0 := processCPU()
	t0 := time.Now()
	clock.mu.Lock()
	clock.last = t0
	clock.mu.Unlock()
	err := fn()
	p := pass{wall: time.Since(t0), cpu: processCPU() - c0}
	clock.mu.Lock()
	p.cells = append(p.cells, clock.cells...)
	clock.mu.Unlock()
	return p, err
}

// gridMetrics fills the end-to-end metric of a grid workload from its
// passes, the median process CPU time of a pass, and logs the passes'
// wall figures, which are not gated (see NOTES.md).
func gridMetrics(r *report, passes []pass) {
	var walls, cpus []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
	}
	r.e2e("cpu_s", median(cpus), "s")
	fmt.Fprintf(os.Stderr, "e2ebench: %d passes of %d cells: median CPU %.3fs, median wall %.3fs; CPU per pass %.3f\n",
		len(passes), len(passes[0].cells), median(cpus), median(walls), cpus)
}

// --- fig6-cold

func fig6Cold(cfg runConfig) (*report, error) {
	r := newReport()
	o := gridOptions(cfg.seed)
	want := goldenFig6(cfg.seed)

	// Set-up is a small warm-up grid (16 PMOs, short runs) over the same
	// code paths, so the heap has grown before timing.
	warm := o
	warm.PMOCounts = []int{16}
	warm.MicroOps, warm.MicroInit = 200, 64
	var setups []float64
	for i := 0; i < setupReps; i++ {
		d, err := cpuOf(func() error { _, err := dv.Fig6(warm); return err })
		if err != nil {
			return nil, fmt.Errorf("fig6 warm-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	r.e2e("setup_s", median(setups), "s")
	releaseMemory()

	var first []dv.Fig6Result
	var passes []pass
	runPass := func() (pass, []dv.Fig6Result) {
		clock := newCellClock()
		po := o
		po.Progress = clock
		var res []dv.Fig6Result
		p, err := timePass(clock, func() (err error) { res, err = dv.Fig6(po); return err })
		cells := int64(len(dv.MicroBenchmarks) * len(fig6Schemes))
		r.attempted += cells
		if err != nil {
			r.fail(cells, "fig6 pass: %v", err)
			return p, nil
		}
		if first == nil {
			first = res
		}
		r.checkFig6(res, want, first)
		return p, res
	}
	if !cfg.trace {
		deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
		for len(passes) == 0 || time.Now().Before(deadline) {
			p, _ := runPass()
			passes = append(passes, p)
		}
		gridMetrics(r, passes)
		logResults(cfg, fig6Rows(first))
		return r, nil
	}

	// Traced run: one untraced reference pass through the public API,
	// then the same cells through an instrumented pipeline under the CPU
	// profiler.
	ref, res := runPass()
	gridLayer(r, ref)
	sp := newSpans()
	var sum stats.Result
	var traced time.Duration
	r.attempted += int64(len(dv.MicroBenchmarks) * len(fig6Schemes))
	prof, err := profiled(func() error {
		t0 := time.Now()
		got, err := tracedFig6(o, sp, &sum)
		traced = time.Since(t0)
		if err != nil {
			return err
		}
		if res != nil {
			r.checkFig6(got, nil, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.layer("trace.overhead_pct", overheadPct(traced, ref.wall), "%")
	r.layer("sim_minstr_per_s", float64(sum.Counters.Instructions)/1e6/ref.wall.Seconds(), "Minstr/s")
	simLayer(r, sum)
	sp.report(r)
	r.profile(prof)
	return r, nil
}

// tracedFig6 runs the Fig. 6 cells through the same steps the experiment
// API takes (workload.New, sim.NewMachine, Setup, ResetStats, Run) with
// a span around Setup and Run, and returns the same overhead table.
func tracedFig6(o dv.ExpOptions, sp *spans, sum *stats.Result) ([]dv.Fig6Result, error) {
	p := cellParams(o)
	var out []dv.Fig6Result
	for _, name := range dv.MicroBenchmarks {
		res := map[dv.Scheme]dv.Result{}
		for _, s := range fig6Schemes {
			w, err := workload.New(name)
			if err != nil {
				return nil, err
			}
			m := sim.NewMachine(o.Cfg, s)
			env := workload.NewEnv(m, p)
			if err := sp.time("cell.setup_s", func() error { return w.Setup(env) }); err != nil {
				return nil, fmt.Errorf("%s/%s setup: %w", name, s, err)
			}
			m.ResetStats()
			if err := sp.time("cell.measure_s", func() error { return w.Run(env) }); err != nil {
				return nil, fmt.Errorf("%s/%s run: %w", name, s, err)
			}
			if res[s], err = faultFree(m, name, s); err != nil {
				return nil, err
			}
			addResult(sum, res[s])
		}
		lb := res[dv.SchemeLowerbound]
		out = append(out, dv.Fig6Result{
			Benchmark:  name,
			X:          []int{gridPMOs},
			Libmpk:     []float64{res[dv.SchemeLibmpk].OverheadPct(lb)},
			MPKVirt:    []float64{res[dv.SchemeMPKVirt].OverheadPct(lb)},
			DomainVirt: []float64{res[dv.SchemeDomainVirt].OverheadPct(lb)},
		})
	}
	return out, nil
}

// --- table6-warm

func table6Warm(cfg runConfig) (*report, error) {
	r := newReport()
	o := gridOptions(cfg.seed)
	want := goldenTable6(cfg.seed)
	root := filepath.Join(cfg.work, "snapstore")
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Set-up primes a fresh store with a cold Table VI run, several
	// times; the last store is the one measured. Every priming is also
	// the cold reference the warm results must equal.
	var dir string
	var cold []dv.Table6Row
	var setups []float64
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		dir = filepath.Join(root, fmt.Sprintf("prime%d", i))
		cache, err := dv.NewSnapshotCacheDir(dir)
		if err != nil {
			return nil, err
		}
		po := o
		po.Snapshots = cache
		var rows []dv.Table6Row
		d, err := cpuOf(func() (err error) { rows, err = dv.Table6(po); return err })
		setups = append(setups, d.Seconds())
		if err != nil {
			return nil, fmt.Errorf("table6 priming: %w", err)
		}
		if st := cache.Stats(); st.Warmups != len(dv.MicroBenchmarks)*len(table6Schemes) {
			r.fail(0, "priming built %d warmups, want %d", st.Warmups, len(dv.MicroBenchmarks)*len(table6Schemes))
		}
		if cold == nil {
			cold = rows
			r.checkTable6(rows, want, nil)
		} else {
			r.checkTable6(rows, nil, cold)
		}
	}
	r.e2e("setup_s", median(setups), "s")
	releaseMemory()

	runPass := func() (pass, []dv.Table6Row, dv.SnapshotCacheStats) {
		cache, err := dv.NewSnapshotCacheDir(dir)
		cells := int64(len(dv.MicroBenchmarks) * len(table6Schemes))
		r.attempted += cells
		if err != nil {
			r.fail(cells, "open snapshot store: %v", err)
			return pass{}, nil, dv.SnapshotCacheStats{}
		}
		clock := newCellClock()
		po := o
		po.Snapshots = cache
		po.Progress = clock
		var rows []dv.Table6Row
		p, err := timePass(clock, func() (err error) { rows, err = dv.Table6(po); return err })
		st := cache.Stats()
		if err != nil {
			r.fail(cells, "table6 warm pass: %v", err)
			return p, nil, st
		}
		if st.Warmups != 0 || st.DiskHits != int(cells) || st.DiskRejects != 0 {
			r.fail(cells-int64(st.DiskHits), "warm pass: %d warmups, %d/%d disk hits, %d rejects",
				st.Warmups, st.DiskHits, cells, st.DiskRejects)
		}
		r.checkTable6(rows, nil, cold)
		return p, rows, st
	}
	if !cfg.trace {
		var passes []pass
		deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
		for len(passes) == 0 || time.Now().Before(deadline) {
			p, _, _ := runPass()
			passes = append(passes, p)
		}
		gridMetrics(r, passes)
		logResults(cfg, cold)
		return r, nil
	}

	// Traced run: prime a second store through an instrumented pipeline
	// (encode and put spans), take the untraced reference pass through
	// the public API on that store, then replay the warm pass through
	// the instrumented pipeline.
	sp := newSpans()
	tdir := filepath.Join(root, "traced")
	store, err := snapstore.Open(tdir)
	if err != nil {
		return nil, err
	}
	prof, err := profiled(func() error { return tracedPrime(o, store, sp) })
	if err != nil {
		return nil, err
	}
	dir = tdir
	ref, _, st := runPass()
	gridLayer(r, ref)
	r.counted("snapshot.warmups", uint64(st.Warmups), "count")
	r.counted("snapshot.disk_hits", uint64(st.DiskHits), "count")
	r.counted("snapshot.disk_rejects", uint64(st.DiskRejects), "count")

	var sum stats.Result
	var traced time.Duration
	var nbytes int
	r.attempted += int64(len(dv.MicroBenchmarks) * len(table6Schemes))
	prof2, err := profiled(func() error {
		t0 := time.Now()
		rows, n, err := tracedTable6(o, store, sp, &sum)
		traced, nbytes = time.Since(t0), n
		if err != nil {
			return err
		}
		r.checkTable6(rows, nil, cold)
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.counted("snapshot.bytes", uint64(nbytes), "bytes")
	r.layer("trace.overhead_pct", overheadPct(traced, ref.wall), "%")
	r.layer("sim_minstr_per_s", float64(sum.Counters.Instructions)/1e6/ref.wall.Seconds(), "Minstr/s")
	simLayer(r, sum)
	sp.report(r)
	r.profile(append(prof, prof2...))
	return r, nil
}

// tracedPrime builds each Table VI cell's warmup checkpoint the way a
// cold cached cell does (Setup, ResetStats, Snapshot) and writes it
// through to store, with spans around encode and put.
func tracedPrime(o dv.ExpOptions, store *snapstore.Store, sp *spans) error {
	p := cellParams(o)
	for _, name := range dv.MicroBenchmarks {
		for _, s := range table6Schemes {
			w, err := workload.New(name)
			if err != nil {
				return err
			}
			m := sim.NewMachine(o.Cfg, s)
			if err := w.Setup(workload.NewEnv(m, p)); err != nil {
				return fmt.Errorf("%s/%s setup: %w", name, s, err)
			}
			if _, err := faultFree(m, name, s); err != nil {
				return err
			}
			m.ResetStats()
			snap := m.Snapshot()
			var data []byte
			if err := sp.time("snapshot.encode_s", func() (err error) {
				data, err = sim.EncodeSnapshot(snap)
				return err
			}); err != nil {
				return err
			}
			key := dv.SnapshotKeyFor(name, p, s, o.Cfg)
			if err := sp.time("snapshot.put_s", func() error { return store.Put(key, data) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// sinkSwitch forwards instrumentation events to a swappable sink: a warm
// cell rebuilds its Go-side state against trace.Discard and then swaps
// in the machine restored from the checkpoint.
type sinkSwitch struct{ trace.Sink }

// tracedTable6 replays the warm Table VI pass the way the disk-backed
// snapshot cache serves it (Get, DecodeSnapshot, RestoreSafe into a
// probe machine, Setup against Discard, Restore, Run), with a span
// around each step, and returns the rows and the bytes read.
func tracedTable6(o dv.ExpOptions, store *snapstore.Store, sp *spans, sum *stats.Result) ([]dv.Table6Row, int, error) {
	p := cellParams(o)
	var rows []dv.Table6Row
	nbytes := 0
	for _, name := range dv.MicroBenchmarks {
		res := map[dv.Scheme]dv.Result{}
		for _, s := range table6Schemes {
			key := dv.SnapshotKeyFor(name, p, s, o.Cfg)
			var data []byte
			if err := sp.time("snapshot.get_s", func() (err error) { data, err = store.Get(key); return err }); err != nil {
				return nil, 0, fmt.Errorf("%s/%s: %w", name, s, err)
			}
			nbytes += len(data)
			var snap *sim.Snapshot
			if err := sp.time("snapshot.decode_s", func() (err error) { snap, err = sim.DecodeSnapshot(data); return err }); err != nil {
				return nil, 0, fmt.Errorf("%s/%s: %w", name, s, err)
			}
			probe := sim.NewMachine(o.Cfg, s)
			if err := sp.time("snapshot.restore_s", func() error { return probe.RestoreSafe(snap) }); err != nil {
				return nil, 0, fmt.Errorf("%s/%s: %w", name, s, err)
			}
			w, err := workload.New(name)
			if err != nil {
				return nil, 0, err
			}
			sw := &sinkSwitch{Sink: trace.Discard{}}
			env := workload.NewEnv(sw, p)
			if err := sp.time("cell.setup_s", func() error { return w.Setup(env) }); err != nil {
				return nil, 0, fmt.Errorf("%s/%s setup: %w", name, s, err)
			}
			m := sim.NewMachine(o.Cfg, s)
			_ = sp.time("snapshot.restore_s", func() error { m.Restore(snap); return nil })
			sw.Sink = m
			if err := sp.time("cell.measure_s", func() error { return w.Run(env) }); err != nil {
				return nil, 0, fmt.Errorf("%s/%s run: %w", name, s, err)
			}
			if res[s], err = faultFree(m, name, s); err != nil {
				return nil, 0, err
			}
			addResult(sum, res[s])
		}
		base, lb := res[dv.SchemeBaseline], res[dv.SchemeLowerbound]
		rows = append(rows, dv.Table6Row{
			Benchmark:      name,
			SwitchesPerSec: lb.SwitchesPerSec(o.Cfg.ClockHz),
			LowerboundPct:  lb.OverheadPct(base),
		})
	}
	return rows, nbytes, nil
}

// faultFree returns the machine's result, or an error when the cell
// raised a domain or page fault, as the experiment API does.
func faultFree(m *sim.Machine, name string, s dv.Scheme) (dv.Result, error) {
	res := m.Result()
	if res.Counters.DomainFaults > 0 || res.Counters.PageFaults > 0 {
		return res, fmt.Errorf("%s/%s raised %d domain / %d page faults",
			name, s, res.Counters.DomainFaults, res.Counters.PageFaults)
	}
	return res, nil
}

// addResult sums one cell's measured-pass counters into sum.
func addResult(sum *stats.Result, r dv.Result) {
	sum.Cycles += r.Cycles
	sum.Counters.Merge(&r.Counters)
	sum.Breakdown.Merge(&r.Breakdown)
}

// gridLayer reports the per-cell wall times of the untraced reference
// pass, as its Progress stream timed them, and the pass's wall figures.
func gridLayer(r *report, p pass) {
	cells := append([]time.Duration(nil), p.cells...)
	r.counted("grid.cells", uint64(len(cells)), "count")
	p50 := percentile(cells, 50)
	r.layer("grid.cell_p50_s", p50.Value.Seconds(), "s")
	r.layer("grid.cell_max_s", percentile(cells, 100).Value.Seconds(), "s")
	r.layer("wall.unit_s", p.wall.Seconds(), "s")
	r.layer("wall.ops_per_s", float64(len(cells))/p.wall.Seconds(), "1/s")
	r.layer("wall.op_p50_us", float64(p50.Value.Nanoseconds())/1e3, "us")
}

// simLayer reports the simulated event counts of the measured passes.
// They are functions of the seed alone and must repeat exactly.
func simLayer(r *report, s stats.Result) {
	c := s.Counters
	counts := []struct {
		name string
		v    uint64
	}{
		{"sim.instructions", c.Instructions},
		{"sim.cycles", s.Cycles},
		{"sim.loads", c.Loads},
		{"sim.stores", c.Stores},
		{"tlb.l1_hits", c.TLBL1Hits},
		{"tlb.l2_hits", c.TLBL2Hits},
		{"tlb.walks", c.TLBMisses},
		{"tlb.flushed_entries", c.TLBFlushed},
		{"core.perm_switches", c.PermSwitches},
		{"core.evictions", c.Evictions},
		{"core.shootdowns", s.Breakdown.Counts[stats.CatShootdown]},
		{"core.pte_writes", s.Breakdown.Counts[stats.CatPTEWrite]},
		{"core.traps", s.Breakdown.Counts[stats.CatTrap]},
		{"core.syscalls", s.Breakdown.Counts[stats.CatSyscall]},
		{"core.dtt_misses", c.DTTLBMisses},
		{"core.ptlb_misses", c.PTLBMisses},
		{"cache.nvm_reads", c.NVMReads},
		{"cache.nvm_writes", c.NVMWrites},
	}
	for _, k := range counts {
		r.counted(k.name, k.v, "count")
	}
	if lookups := c.TLBL1Hits + c.TLBL2Hits + c.TLBMisses; lookups > 0 {
		r.layer("tlb.hit_ratio", float64(c.TLBL1Hits+c.TLBL2Hits)/float64(lookups), "ratio")
	}
}
