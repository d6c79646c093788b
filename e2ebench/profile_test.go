package main

import (
	"testing"
	"time"
)

func TestAttributionModules(t *testing.T) {
	f := func(fn, file string) frame { return frame{Func: fn, File: file} }
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{f("sort.Slice", "sort.go"), f("domainvirt/internal/sim.(*Machine).rebuildSpans", "machine.go")}, "sim"},
		{[]frame{f("domainvirt/internal/tlb.(*TLB).FlushRange", "tlb.go")}, "tlb"},
		{[]frame{f("domainvirt/internal/tlb.(*TLB).restore", "snapshot.go")}, "snapshot"},
		{[]frame{f("domainvirt/internal/snapstore.(*Store).Get", "snapstore.go")}, "snapshot"},
		{[]frame{f("domainvirt.Fig6", "experiments.go")}, "root"},
		{[]frame{f("domainvirt/internal/stats.(*Counters).Merge", "stats.go")}, "other"},
		{[]frame{f("main.(*client).run", "serve.go")}, "bench"},
		{[]frame{
			f("internal/runtime/syscall.Syscall6", "asm.s"),
			f("syscall.write", "zsyscall.go"),
			f("internal/poll.(*FD).Write", "fd_unix.go"),
			f("net.(*conn).Write", "net.go"),
			f("domainvirt/internal/serve.(*conn).send", "server.go"),
		}, "syscall"},
		{[]frame{f("runtime.gcBgMarkWorker", "mgc.go")}, "runtime"},
	}
	var samples []sample
	for i, c := range cases {
		samples = append(samples, sample{Stack: c.stack, CPU: time.Duration(i+1) * time.Millisecond})
	}
	by, total := attribute(samples)
	for i, c := range cases {
		got, _ := attribute(samples[i : i+1])
		if got[c.want] != samples[i].CPU {
			t.Errorf("stack %v charged %v, want %s", c.stack, got, c.want)
		}
	}
	var sum time.Duration
	for _, d := range by {
		sum += d
	}
	if sum != total {
		t.Errorf("modules sum to %v, total %v", sum, total)
	}
}

// burn keeps the CPU busy for d so the profiler takes samples.
func burn(d time.Duration) uint64 {
	var x uint64 = 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestProfileAttributionSumsToTotal(t *testing.T) {
	samples, err := profiled(func() error { burn(300 * time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	by, total := attribute(samples)
	if total <= 0 {
		t.Fatalf("profile total %v from %d samples", total, len(samples))
	}
	var sum time.Duration
	for m, d := range by {
		sum += d
		known := false
		for _, k := range modules {
			known = known || k == m
		}
		if !known {
			t.Errorf("sample charged to undeclared module %q", m)
		}
	}
	if sum != total {
		t.Errorf("modules sum to %v, profile total %v", sum, total)
	}
	if by["bench"] <= 0 {
		t.Errorf("the burn loop's own frames were not found: %v", by)
	}
	r := newReport()
	r.profile(samples)
	var secs float64
	for _, m := range modules {
		secs += r.layerM["self."+m+"_s"].Value
	}
	if got := r.layerM["self.total_s"].Value; secs < got*(1-1e-9) || secs > got*(1+1e-9) {
		t.Errorf("self.*_s sum to %v s, self.total_s is %v s", secs, got)
	}
}
