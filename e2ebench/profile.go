package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"runtime/pprof"
	"strings"
	"time"
)

// modules are the layers host CPU time is charged to, in report order.
// Each sample goes to the innermost stack frame that lies inside this
// repository; "syscall" takes samples that were in net/poll I/O below
// that frame, and "runtime" takes samples with no repository frame at
// all (GC workers, the scheduler, the network poller).
var modules = []string{
	"root", "workload", "pmo", "sim", "cache", "tlb", "pagetable", "core",
	"mpk", "memlayout", "snapshot", "txn", "serve", "cluster", "reqtrace",
	"bench", "other", "syscall", "runtime",
}

// repoModule is this repository's module path. The benchmark's own
// frames are package main, or domainvirt/e2ebench in its tests.
const repoModule = "domainvirt"

// internalModules maps domainvirt/internal/<pkg> to its module name;
// repository packages not listed here are charged to "other".
var internalModules = map[string]string{
	"workload": "workload", "pmo": "pmo", "sim": "sim", "cache": "cache",
	"tlb": "tlb", "pagetable": "pagetable", "core": "core", "mpk": "mpk",
	"memlayout": "memlayout", "txn": "txn", "serve": "serve",
	"cluster": "cluster", "reqtrace": "reqtrace",
	"snapstore": "snapshot", "bincodec": "snapshot",
}

// frame is one (possibly inlined) function on a sampled stack.
type frame struct {
	Func string // fully qualified, e.g. domainvirt/internal/tlb.(*TLB).FlushRange
	File string
}

// sample is one CPU-profile sample: its stack, leaf first, and the CPU
// time it stands for.
type sample struct {
	Stack []frame
	CPU   time.Duration
}

// funcPackage returns the import path of a fully qualified function name.
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// repoModuleOf returns the module a repository frame belongs to, or ""
// when the frame is outside the repository.
func repoModuleOf(f frame) string {
	pkg := funcPackage(f.Func)
	if pkg != repoModule && pkg != "main" && !strings.HasPrefix(pkg, repoModule+"/") {
		return ""
	}
	if base := path.Base(f.File); base == "codec.go" || base == "snapshot.go" {
		return "snapshot"
	}
	switch {
	case pkg == repoModule:
		return "root"
	case pkg == "main", pkg == repoModule+"/e2ebench":
		return "bench"
	case strings.HasPrefix(pkg, repoModule+"/internal/"):
		rest := strings.TrimPrefix(pkg, repoModule+"/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		if m, ok := internalModules[rest]; ok {
			return m
		}
	}
	return "other"
}

// isPollIO reports whether a non-repository frame is network or file
// descriptor I/O.
func isPollIO(f frame) bool {
	switch funcPackage(f.Func) {
	case "syscall", "internal/poll", "net", "internal/syscall/unix",
		"internal/runtime/syscall", "runtime/internal/syscall":
		return true
	}
	return false
}

// attribute charges every sample to one module and returns the CPU time
// per module plus the total; the per-module times always sum to the
// total.
func attribute(samples []sample) (map[string]time.Duration, time.Duration) {
	out := make(map[string]time.Duration, len(modules))
	var total time.Duration
	for _, s := range samples {
		mod := "runtime"
		pollIO := false
		for _, f := range s.Stack {
			if m := repoModuleOf(f); m != "" {
				mod = m
				break
			}
			if isPollIO(f) {
				pollIO = true
			}
		}
		if pollIO {
			mod = "syscall"
		}
		out[mod] += s.CPU
		total += s.CPU
	}
	return out, total
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof.StartCPUProfile writes into samples with symbolized
// stacks. Only the fields attribution needs are read.
func parseCPUProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type rawFunc struct{ name, file int64 }
	var (
		samples    []rawSample
		locLines   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs      = map[uint64]rawFunc{}
		strs       []string
		valueIndex = -1
		types      [][2]int64
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var vt [2]int64
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbUints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbUints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := pbFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fids
			return err
		case 5: // function
			var id uint64
			var fn rawFunc
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			funcs[id] = fn
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	for i, t := range types {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			valueIndex = i
		}
	}
	if valueIndex < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		if valueIndex >= len(rs.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{CPU: time.Duration(rs.values[valueIndex])}
		for _, loc := range rs.locs {
			for _, fid := range locLines[loc] {
				fn := funcs[fid]
				s.Stack = append(s.Stack, frame{Func: str(fn.name), File: str(fn.file)})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// pbFields walks the top-level fields of one protobuf message, handing
// each to fn with its varint value (wire type 0) or payload (wire type 2).
func pbFields(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// pbUints reads a repeated integer field in either its packed (wire type
// 2) or unpacked (wire type 0) encoding.
func pbUints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// profiled runs fn under the CPU profiler and returns the samples taken.
func profiled(fn func() error) ([]sample, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return parseCPUProfile(buf.Bytes())
}

// profile reports the host CPU self time per module.
func (r *report) profile(samples []sample) {
	by, total := attribute(samples)
	for _, m := range modules {
		r.layer("self."+m+"_s", by[m].Seconds(), "s")
	}
	r.layer("self.total_s", total.Seconds(), "s")
}
