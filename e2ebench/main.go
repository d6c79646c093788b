// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload for one seed and prints every metric by name with its unit,
// then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A timed run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics. Build and run it from the
// repository root with
//
//	bash e2ebench/run.sh --workload fig6-cold --seed 42 --seconds 15 --trace 0
//
// NOTES.md describes the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a timed run performs its workload's
// set-up; setup_s is the median.
const setupReps = 3

type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	work    string // scratch directory for stores and the counts record
}

var workloads = map[string]func(runConfig) (*report, error){
	"fig6-cold":    fig6Cold,
	"table6-warm":  table6Warm,
	"serve-direct": func(c runConfig) (*report, error) { return serveBench(c, false) },
	"serve-routed": func(c runConfig) (*report, error) { return serveBench(c, true) },
}

func main() {
	name := flag.String("workload", "", "workload to run: fig6-cold, table6-warm, serve-direct or serve-routed")
	seed := flag.Int64("seed", 42, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traced == 1, work: *work}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.trace {
		if err := r.checkCounts(filepath.Join(cfg.work, "counts", fmt.Sprintf("%s-seed%d.json", *name, cfg.seed))); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
	} else {
		r.e2e("peak_rss_mb", peakRSSMB(), "MB")
	}
	if err := r.print(os.Stdout, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome.
type report struct {
	attempted, failed int64
	failures          []string
	e2eM, layerM      map[string]metric
	// counts are the run's deterministic counts: a function of the
	// workload and seed alone, compared exactly across runs.
	counts map[string]uint64
}

func newReport() *report {
	return &report{e2eM: map[string]metric{}, layerM: map[string]metric{}, counts: map[string]uint64{}}
}

func (r *report) e2e(name string, v float64, unit string)   { r.e2eM[name] = metric{v, unit} }
func (r *report) layer(name string, v float64, unit string) { r.layerM[name] = metric{v, unit} }

// counted reports a per-layer count that must repeat exactly across runs.
func (r *report) counted(name string, v uint64, unit string) {
	r.layer(name, float64(v), unit)
	r.counts[name] = v
}

// fail records a failed check that cost n ops.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Fprintln(os.Stderr, "e2ebench: FAIL:", msg)
}

// perLayer lists every per-layer metric a traced run prints, with its
// unit; metrics a workload does not exercise read 0.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, m := range modules {
		add("s", "self."+m+"_s")
	}
	add("s", "self.total_s")
	add("s", "wall.unit_s")
	add("1/s", "wall.ops_per_s")
	add("us", "wall.op_p50_us")
	add("count", "grid.cells")
	add("s", "grid.cell_p50_s", "grid.cell_max_s", "cell.setup_s", "cell.measure_s")
	add("count", "snapshot.warmups", "snapshot.disk_hits", "snapshot.disk_rejects")
	add("bytes", "snapshot.bytes")
	add("s", "snapshot.get_s", "snapshot.decode_s", "snapshot.restore_s", "snapshot.encode_s", "snapshot.put_s")
	add("Minstr/s", "sim_minstr_per_s")
	add("count", "sim.instructions", "sim.cycles", "sim.loads", "sim.stores",
		"tlb.l1_hits", "tlb.l2_hits", "tlb.walks", "tlb.flushed_entries")
	add("ratio", "tlb.hit_ratio")
	add("count", "core.perm_switches", "core.evictions", "core.shootdowns", "core.pte_writes",
		"core.traps", "core.syscalls", "core.dtt_misses", "core.ptlb_misses",
		"cache.nvm_reads", "cache.nvm_writes")
	add("us", "client.read_p50_us", "client.write_p50_us", "client.tx_p50_us", "client.p99_us",
		"pmod.read_decode_us", "pmod.queue_us", "pmod.lock_us", "pmod.engine_us",
		"pmod.persist_us", "pmod.write_us", "pmod.total_us", "outside_pmod_us")
	add("count", "serve.requests", "serve.retries", "serve.errors", "serve.verify_failures",
		"router.relayed", "router.sessions", "router.backend_sessions_max")
	add("%", "trace.overhead_pct")
	return out
}()

// endToEnd lists the end-to-end metrics a timed run prints. Times are
// process CPU time, which leaves out what the hypervisor of a shared host
// steals; NOTES.md explains why wall times are reported but not gated.
var endToEnd = []struct{ name, unit string }{
	{"cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
}

// print writes one "name value unit" line per metric, then the JSON
// result line.
func (r *report) print(f io.Writer, traced bool) error {
	list, have := endToEnd, r.e2eM
	if traced {
		list, have = perLayer, r.layerM
	}
	out := map[string]metric{}
	for _, m := range list {
		v := have[m.name]
		v.Unit = m.unit
		out[m.name] = v
		fmt.Fprintf(f, "%-28s %16.6f %s\n", m.name, v.Value, m.unit)
	}
	for name := range have {
		if _, ok := out[name]; !ok {
			return fmt.Errorf("metric %q is not declared", name)
		}
	}
	if r.attempted < 1 {
		r.attempted = 1
		r.failed = 1
		r.failures = append(r.failures, "no op was attempted")
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.failures) == 0 && r.failed == 0, r.attempted, r.failed, out}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", b)
	return err
}

// checkCounts compares the run's deterministic counts with the record a
// previous run of the same workload and seed left at path, and writes
// the record when there is none. A difference is nondeterminism in the
// program, not noise, and fails the run.
func (r *report) checkCounts(path string) error {
	if prev, err := os.ReadFile(path); err == nil {
		var want map[string]uint64
		if err := json.Unmarshal(prev, &want); err != nil {
			return fmt.Errorf("counts record %s: %w", path, err)
		}
		var diffs []string
		for k, v := range r.counts {
			if w, ok := want[k]; !ok || w != v {
				diffs = append(diffs, fmt.Sprintf("%s=%d (recorded %d)", k, v, w))
			}
		}
		for k := range want {
			if _, ok := r.counts[k]; !ok {
				diffs = append(diffs, k+" missing")
			}
		}
		if len(diffs) > 0 {
			sort.Strings(diffs)
			r.fail(1, "nondeterminism: counts differ from an earlier run of this seed: %s", strings.Join(diffs, ", "))
		}
		return nil
	}
	b, err := json.MarshalIndent(r.counts, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuOf runs fn and returns the process CPU time it used.
func cpuOf(fn func() error) (time.Duration, error) {
	c0 := processCPU()
	err := fn()
	return processCPU() - c0, err
}

// releaseMemory collects garbage and returns it to the OS, so that what
// one round or set-up left behind does not raise the next one's peak.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func overheadPct(traced, untraced time.Duration) float64 {
	return 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
}

// spans accumulates the wall time spent in named calls.
type spans struct{ d map[string]time.Duration }

func newSpans() *spans { return &spans{d: map[string]time.Duration{}} }

func (s *spans) time(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	s.d[name] += time.Since(t0)
	return err
}

func (s *spans) report(r *report) {
	for name, d := range s.d {
		r.layer(name, d.Seconds(), "s")
	}
}

// logResults writes a run's result table to stderr as one JSON line, the
// form golden.json stores.
func logResults(cfg runConfig, v any) {
	b, err := json.Marshal(v)
	if err == nil {
		fmt.Fprintf(os.Stderr, "e2ebench: results for seed %d: %s\n", cfg.seed, b)
	}
}
