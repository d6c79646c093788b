package domainvirt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"domainvirt/internal/obs"
)

// expCell is one independent cell of the experiment grid: a (workload,
// parameters, scheme) triple. Params is a plain value type, so cells are
// comparable and double as result keys.
type expCell struct {
	name   string
	p      Params
	scheme Scheme
}

// label is the cell's file- and log-friendly identity. Within one grid
// the cells differ only by workload, scheme, and PMO count, so those
// three fields are enough to keep labels unique.
func (c expCell) label() string {
	return fmt.Sprintf("%s-%s-p%d", c.name, c.scheme, c.p.NumPMOs)
}

// runGrid evaluates every cell with a bounded worker pool and returns
// the results keyed by cell. With opt.Snapshots set, the cells that
// share a workload and parameters form one group, run from a single
// workload pass over one restored machine per scheme (runGroup);
// otherwise every cell is its own group. The pool schedules groups. Each
// group builds its own machines and workload, so groups share no mutable
// state and the outcome is independent of scheduling and of grouping;
// callers aggregate in their own fixed order, which keeps reports
// byte-identical to the sequential path. Workers <= 0 selects
// GOMAXPROCS; Workers == 1 runs inline. On failure the error of the
// lowest-indexed failing cell is returned — the same one the sequential
// path would have hit first.
//
// When opt.Progress is set, each completed cell prints one
// "[done/total] label" line (ordering follows completion, content does
// not); a group's lines print together when the group completes. When
// opt.Obs.Dir is set, every cell runs observed and the grid's
// observability data is exported there after all cells finish; the
// export loop runs in fixed cell order, so the files are deterministic.
func runGrid(opt ExpOptions, cells []expCell) (gridResults, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	uniq := make([]expCell, 0, len(cells))
	seen := make(map[expCell]bool, len(cells))
	for _, c := range cells {
		if !seen[c] {
			seen[c] = true
			uniq = append(uniq, c)
		}
	}
	observed := opt.Obs.Dir != ""

	if len(opt.SweepAddrs) > 0 {
		// Distributed path: fan the cells out to pmoworker daemons.
		// Results and artifacts come back per cell and merge in the
		// same fixed order as the local path below.
		results, artifacts, err := runGridRemote(opt, uniq)
		if err != nil {
			return nil, err
		}
		if observed {
			if err := exportGridObs(opt, uniq, artifacts); err != nil {
				return nil, err
			}
		}
		out := make(gridResults, len(uniq))
		for i, c := range uniq {
			out[c] = results[i]
		}
		return out, nil
	}

	groups := groupCells(uniq, opt.Snapshots != nil)
	if workers > len(groups) {
		workers = len(groups)
	}
	var o *ObsOptions
	if observed {
		o = &ObsOptions{Epoch: opt.Obs.Epoch}
	}
	prog := obs.NewProgress(opt.Progress, len(uniq))
	results := make([]Result, len(uniq))
	recs := make([]*obs.Recorder, len(uniq))
	errs := make([]error, len(uniq))
	runGroupAt := func(g int) {
		idx := groups[g]
		c0 := uniq[idx[0]]
		schemes := make([]Scheme, len(idx))
		for k, i := range idx {
			schemes[k] = uniq[i].scheme
		}
		runs := runGroup(c0.name, c0.p, schemes, opt.Cfg, opt.Snapshots, o)
		for k, i := range idx {
			results[i], recs[i], errs[i] = runs[k].res, runs[k].rec, runs[k].err
			c := uniq[i]
			if errs[i] != nil {
				prog.Logf("FAIL %s: %v", c.label(), errs[i])
				continue
			}
			label := c.label()
			if opt.Snapshots != nil {
				if runs[k].hit {
					label += " (snapshot)"
				} else {
					label += " (warmup)"
				}
			}
			prog.Done(label)
		}
	}
	if workers <= 1 {
		for g := range groups {
			runGroupAt(g)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for g := range jobs {
					runGroupAt(g)
				}
			}()
		}
		for g := range groups {
			jobs <- g
		}
		close(jobs)
		wg.Wait()
	}

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if observed {
		artifacts := make([]cellObs, len(uniq))
		for i, rec := range recs {
			artifacts[i] = recorderObs(rec, opt.Obs.Epoch)
		}
		if err := exportGridObs(opt, uniq, artifacts); err != nil {
			return nil, err
		}
	}
	out := make(gridResults, len(uniq))
	for i, c := range uniq {
		out[c] = results[i]
	}
	return out, nil
}

// groupCells partitions the indices of cells into execution groups in
// first-appearance order. With shared, cells with the same workload and
// parameters form one group; otherwise each cell is its own group, since
// cells that simulate their own setup share no pass and a group would
// only keep more machines live.
func groupCells(cells []expCell, shared bool) [][]int {
	type key struct {
		name string
		p    Params
	}
	var groups [][]int
	at := make(map[key]int)
	for i, c := range cells {
		k := key{c.name, c.p}
		if g, ok := at[k]; ok && shared {
			groups[g] = append(groups[g], i)
			continue
		}
		at[k] = len(groups)
		groups = append(groups, []int{i})
	}
	return groups
}

// cellObs is one cell's observability artifact set in rendered form:
// the manifest and epoch-series bytes exactly as the recorder writes
// them, plus the two latency histograms (mergeable values). Local cells
// render theirs via recorderObs; distributed cells ship theirs back
// pre-rendered, so both paths export identical files.
type cellObs struct {
	ok       bool
	manifest []byte
	series   []byte
	access   obs.Histogram
	setperm  obs.Histogram
}

// recorderObs renders a local recorder's artifacts.
func recorderObs(rec *obs.Recorder, epoch uint64) cellObs {
	if rec == nil {
		return cellObs{}
	}
	var man bytes.Buffer
	if err := rec.Manifest().WriteJSON(&man); err != nil {
		return cellObs{}
	}
	co := cellObs{ok: true, manifest: man.Bytes()}
	if epoch > 0 {
		var series bytes.Buffer
		if err := rec.WriteJSONL(&series); err != nil {
			return cellObs{}
		}
		co.series = series.Bytes()
	}
	co.access = *rec.AccessHist()
	co.setperm = *rec.SetPermHist()
	return co
}

// exportGridObs writes the grid's observability artifacts into
// opt.Obs.Dir: one manifest-<label>.json per cell, one
// series-<label>.jsonl per cell when epoch sampling was on, and one
// hist-<scheme>.prom per scheme holding the access and SETPERM latency
// histograms merged across that scheme's cells. It runs after the worker
// pool (local or distributed) has drained, iterating cells in their
// fixed grid order; histogram merging is commutative. The output is
// byte-deterministic for a given seed regardless of scheduling or of
// which worker ran which cell.
func exportGridObs(opt ExpOptions, cells []expCell, artifacts []cellObs) error {
	dir := opt.Obs.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writeFile := func(path string, fn func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	type histPair struct{ access, setperm obs.Histogram }
	merged := make(map[Scheme]*histPair)
	var order []Scheme
	for i, c := range cells {
		co := artifacts[i]
		if !co.ok {
			continue
		}
		err := writeFile(filepath.Join(dir, "manifest-"+c.label()+".json"), func(f *os.File) error {
			_, err := f.Write(co.manifest)
			return err
		})
		if err != nil {
			return err
		}
		if opt.Obs.Epoch > 0 {
			err := writeFile(filepath.Join(dir, "series-"+c.label()+".jsonl"), func(f *os.File) error {
				_, err := f.Write(co.series)
				return err
			})
			if err != nil {
				return err
			}
		}
		hp, ok := merged[c.scheme]
		if !ok {
			hp = &histPair{}
			merged[c.scheme] = hp
			order = append(order, c.scheme)
		}
		hp.access.Merge(&co.access)
		hp.setperm.Merge(&co.setperm)
	}
	for _, s := range order {
		hp := merged[s]
		labels := fmt.Sprintf("scheme=%q", s)
		err := writeFile(filepath.Join(dir, "hist-"+string(s)+".prom"), func(f *os.File) error {
			if err := obs.PromHistogram(f, "pmo_access_cycles",
				"Per-access total latency in cycles, merged across the grid.", labels, &hp.access); err != nil {
				return err
			}
			return obs.PromHistogram(f, "pmo_setperm_cycles",
				"Per-SETPERM total cost in cycles, merged across the grid.", labels, &hp.setperm)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// gridResults holds every evaluated cell, keyed by the cell itself.
type gridResults map[expCell]Result

// at regroups one (name, params) slice of the grid into the per-scheme
// map the table aggregations consume.
func (g gridResults) at(name string, p Params) map[Scheme]Result {
	out := make(map[Scheme]Result)
	for c, r := range g {
		if c.name == name && c.p == p {
			out[c.scheme] = r
		}
	}
	return out
}
