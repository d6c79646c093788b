package pmo

import (
	"fmt"
	"testing"

	"domainvirt/internal/core"
)

// BenchmarkPoolReadU64 measures one 8-byte pool load through an attached
// pool with 1024 pools live — the per-access host cost a micro workload
// pays before the simulator sees the load. The space has no sink, so
// only the pool layer is timed.
func BenchmarkPoolReadU64(b *testing.B) {
	store := NewStore()
	sp := NewSpace(nil)
	pools := make([]*Pool, 1024)
	for i := range pools {
		p, err := store.Create(fmt.Sprintf("p%04d", i), 8<<20, ModeDefault, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sp.Attach(p, core.PermRW, ""); err != nil {
			b.Fatal(err)
		}
		o, err := p.Alloc(64)
		if err != nil {
			b.Fatal(err)
		}
		p.WriteU64(o.Offset(), uint64(i))
		p.SetRoot(o)
		pools[i] = p
	}
	offs := make([]uint32, len(pools))
	for i, p := range pools {
		offs[i] = p.Root().Offset()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		j := i & 1023
		sum += pools[j].ReadU64(offs[j])
	}
	benchSink = sum
}

var benchSink uint64
