package domainvirt

import (
	"errors"
	"fmt"
	"time"

	"domainvirt/internal/obs"
	"domainvirt/internal/sim"
	"domainvirt/internal/trace"
	"domainvirt/internal/workload"
)

// Run executes one workload under one protection scheme: build a machine,
// set up the workload (warming caches and tables), reset statistics, and
// run the measured operations. The same Params.Seed yields the identical
// event stream under every scheme, as the paper's trace-replay
// methodology requires.
func Run(name string, p Params, scheme Scheme, cfg Config) (Result, error) {
	return runMachine(name, p, scheme, cfg, nil)
}

// RunObserved is Run with an observability recorder attached for the
// measured phase: the returned Recorder holds the epoch time series,
// the per-access and per-SETPERM latency histograms, and a stamped run
// manifest (including the wall-clock duration of the measured phase,
// stamped here — never inside the simulator). The recorder is passive:
// the Result is identical to what Run returns for the same arguments.
func RunObserved(name string, p Params, scheme Scheme, cfg Config, o ObsOptions) (Result, *Recorder, error) {
	rec := obs.NewRecorder(o)
	res, err := runMachine(name, p, scheme, cfg, rec)
	return res, rec, err
}

func runMachine(name string, p Params, scheme Scheme, cfg Config, rec *obs.Recorder) (Result, error) {
	w, err := workload.New(name)
	if err != nil {
		return Result{}, err
	}
	m := sim.NewMachine(cfg, scheme)
	env := workload.NewEnv(m, p)
	if err := w.Setup(env); err != nil {
		return Result{}, fmt.Errorf("domainvirt: %s setup under %s: %w", name, scheme, err)
	}
	m.ResetStats()
	observe(rec, m, name, scheme, env.P, cfg)
	if err := measure(w, env, []*sim.Machine{m}, []*obs.Recorder{rec}); err != nil {
		return Result{}, fmt.Errorf("domainvirt: %s run under %s: %w", name, scheme, err)
	}
	return faultCheck(m, name, scheme)
}

// observe attaches rec to m for the measured phase and stamps the run
// manifest with the resolved (default-filled) parameters p. A nil rec
// leaves m unobserved. For a machine restored from a checkpoint it runs
// after Restore, so observation starts fresh at the measured phase.
func observe(rec *obs.Recorder, m *sim.Machine, name string, scheme Scheme, p Params, cfg Config) {
	if rec == nil {
		return
	}
	rec.SetManifest(obs.Manifest{
		Scheme:      string(scheme),
		Workload:    name,
		Seed:        p.Seed,
		Ops:         p.Ops,
		Threads:     p.Threads,
		Cores:       m.NumCores(),
		PMOs:        p.NumPMOs,
		Epoch:       rec.EpochLen(),
		ConfigHash:  obs.ConfigHash(cfg),
		ToolVersion: obs.ToolVersion,
	})
	m.SetRecorder(rec)
}

// measure runs w's measured phase through env, whose sink feeds the
// machines ms, then stamps the pass's wall time into every recorder
// (recs[i] observes ms[i]; nil entries are unobserved) and flushes its
// machine's final epoch.
func measure(w workload.Workload, env *workload.Env, ms []*sim.Machine, recs []*obs.Recorder) error {
	start := time.Now()
	err := w.Run(env)
	wall := time.Since(start)
	for i, rec := range recs {
		if rec != nil {
			rec.StampWall(wall)
			ms[i].FlushObs()
		}
	}
	return err
}

// faultCheck returns m's measured-phase Result, with an error when the
// phase raised any domain or page fault.
func faultCheck(m *sim.Machine, name string, scheme Scheme) (Result, error) {
	res := m.Result()
	if res.Counters.DomainFaults > 0 || res.Counters.PageFaults > 0 {
		return res, fmt.Errorf("domainvirt: %s under %s raised %d domain / %d page faults (first: %v)",
			name, scheme, res.Counters.DomainFaults, res.Counters.PageFaults, m.Faults())
	}
	return res, nil
}

// cellRun is one cell's outcome from the cell pipeline.
type cellRun struct {
	res Result
	rec *obs.Recorder // the measured phase's recorder; nil when unobserved
	hit bool          // warmup served from a checkpoint an earlier cell built
	err error
}

// fork is one cell of a group whose warmup a checkpoint serves.
type fork struct {
	scheme Scheme
	snap   *sim.Snapshot
	m      *sim.Machine // the machine that built or loaded snap for this cell, else nil
	hit    bool
}

// runGroup runs the cells (name, p, schemes[i]) and returns their
// outcomes in schemes order. Cells whose warmup cache serves a
// checkpoint (cache may be nil) share one workload pass: Setup replays
// once against Discard to rebuild the Go-side state, then a single Run
// feeds every restored machine through a trace.Tee, each machine with
// its own recorder when o is non-nil. Cells without a forkable warmup
// run alone on the uncached path. A group of one is the plain cached
// cell.
//
// The shared pass is exact while every machine permits every event: the
// Tee's verdict is then true wherever each machine's own verdict is, so
// each machine receives its solo event stream. A denied access is a
// fault, so a pass in which any machine faulted, any Attach failed, or
// Setup or Run returned an error is discarded and the forks rerun one at
// a time, which yields the solo results and errors.
func runGroup(name string, p Params, schemes []Scheme, cfg Config, cache *SnapshotCache, o *ObsOptions) []cellRun {
	out := make([]cellRun, len(schemes))
	var forks []fork
	var at []int
	for i, s := range schemes {
		snap, m, src := cache.warmup(name, p, s, cfg)
		if snap == nil {
			out[i].rec = newRecorder(o)
			out[i].res, out[i].err = runMachine(name, p, s, cfg, out[i].rec)
			continue
		}
		forks = append(forks, fork{scheme: s, snap: snap, m: m, hit: src != warmupBuilt})
		at = append(at, i)
	}
	if len(forks) == 0 {
		return out
	}
	runs := runForks(name, p, cfg, forks, o)
	if len(forks) > 1 && anyErr(runs) {
		for k, f := range forks {
			f.m = nil // consumed by the discarded pass; restore afresh
			runs[k] = runForks(name, p, cfg, []fork{f}, o)[0]
		}
	}
	for k, i := range at {
		out[i] = runs[k]
	}
	return out
}

// runForks runs one workload pass over the restored machines of forks
// (see runGroup). An error of the pass itself — Setup, Run, or (when
// shared) a failed Attach — is every fork's error.
func runForks(name string, p Params, cfg Config, forks []fork, o *ObsOptions) []cellRun {
	out := make([]cellRun, len(forks))
	for k, f := range forks {
		out[k].rec = newRecorder(o)
		out[k].hit = f.hit
	}
	fail := func(phase string, err error) []cellRun {
		for k, f := range forks {
			out[k].err = fmt.Errorf("domainvirt: %s %s under %s: %w", name, phase, f.scheme, err)
		}
		return out
	}
	w, err := workload.New(name)
	if err != nil {
		for k := range out {
			out[k].err = err
		}
		return out
	}
	sw := &sinkSwitch{inner: trace.Discard{}}
	env := workload.NewEnv(sw, p)
	if err := w.Setup(env); err != nil {
		return fail("setup", err)
	}
	ms := make([]*sim.Machine, len(forks))
	recs := make([]*obs.Recorder, len(forks))
	sinks := make([]trace.Sink, len(forks))
	for k, f := range forks {
		m := f.m
		if m == nil {
			m = sim.NewMachine(cfg, f.scheme)
			m.Restore(f.snap)
		}
		observe(out[k].rec, m, name, f.scheme, env.P, cfg)
		ms[k], recs[k], sinks[k] = m, out[k].rec, m
	}
	sw.inner = ms[0]
	if len(ms) > 1 {
		sw.inner = trace.NewTee(sinks...)
	}
	if err := measure(w, env, ms, recs); err != nil {
		return fail("run", err)
	}
	if sw.attachFailed && len(ms) > 1 {
		return fail("run", errSharedAttach)
	}
	for k, f := range forks {
		out[k].res, out[k].err = faultCheck(ms[k], name, f.scheme)
	}
	return out
}

// errSharedAttach discards a shared pass in which some machine rejected
// an Attach: the Tee detached the others again, an event their solo
// streams do not contain.
var errSharedAttach = errors.New("an attach failed in a shared pass")

// anyErr reports whether any outcome carries an error.
func anyErr(runs []cellRun) bool {
	for _, r := range runs {
		if r.err != nil {
			return true
		}
	}
	return false
}

// newRecorder returns a fresh recorder for one measured phase, or nil
// for an unobserved one (o == nil).
func newRecorder(o *ObsOptions) *obs.Recorder {
	if o == nil {
		return nil
	}
	return obs.NewRecorder(*o)
}

// RunSchemes executes the workload once per scheme with identical
// parameters and returns the results keyed by scheme.
func RunSchemes(name string, p Params, cfg Config, schemes ...Scheme) (map[Scheme]Result, error) {
	out := make(map[Scheme]Result, len(schemes))
	for _, s := range schemes {
		r, err := Run(name, p, s, cfg)
		if err != nil {
			return nil, err
		}
		out[s] = r
	}
	return out, nil
}

// RunSchemesOpt is RunSchemes on the experiment machinery: the per-scheme
// cells run on opt's bounded worker pool (opt.Workers) with warmup
// snapshot reuse through opt.Snapshots, using opt.Cfg as the machine
// configuration. Results are identical to RunSchemes — only wall-clock
// time changes.
func RunSchemesOpt(name string, p Params, opt ExpOptions, schemes ...Scheme) (map[Scheme]Result, error) {
	cells := make([]expCell, 0, len(schemes))
	for _, s := range schemes {
		cells = append(cells, expCell{name, p, s})
	}
	grid, err := runGrid(opt, cells)
	if err != nil {
		return nil, err
	}
	return grid.at(name, p), nil
}

// OverheadPct returns the percent execution-time overhead of r over base.
func OverheadPct(r, base Result) float64 { return r.OverheadPct(base) }
