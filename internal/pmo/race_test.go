package pmo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"domainvirt/internal/core"
)

// These tests are meaningful under -race (scripts/ci.sh runs them that
// way): they drive the shared-state paths a concurrent PMO service
// exercises — parallel attach/detach of one pool from many spaces,
// parallel allocation, parallel byte access, and store maintenance
// racing mutators.

func TestRaceParallelReadAttachDetach(t *testing.T) {
	store := NewStore()
	p, err := store.Create("shared", 8<<20, ModeDefault, "srv")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := NewSpace(nil)
			for i := 0; i < 200; i++ {
				att, err := sp.Attach(p, core.PermR, "")
				if err != nil {
					t.Errorf("read attach: %v", err)
					return
				}
				att.ReadU64(4096)
				if err := sp.Detach(p); err != nil {
					t.Errorf("detach: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p.Attached() {
		t.Error("pool still attached after all detaches")
	}
}

// TestRaceExclusiveWriterInvariant hammers writable attaches from many
// spaces; at most one may hold the pool at a time, and every loser must
// get an error rather than a second writer slot.
func TestRaceExclusiveWriterInvariant(t *testing.T) {
	store := NewStore()
	p, err := store.Create("excl", 8<<20, ModeDefault, "srv")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	var holds [workers]int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := NewSpace(nil)
			for i := 0; i < 200; i++ {
				if _, err := sp.Attach(p, core.PermRW, ""); err != nil {
					continue // someone else holds it
				}
				holds[w]++
				p.WriteU64(4096, uint64(w))
				if err := sp.Detach(p); err != nil {
					t.Errorf("detach: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, h := range holds {
		total += h
	}
	if total == 0 {
		t.Error("no goroutine ever won the writable attachment")
	}
	if p.Attached() {
		t.Error("writer leaked")
	}
}

func TestRaceParallelAllocFree(t *testing.T) {
	store := NewStore()
	p, err := store.Create("heap", 8<<20, ModeDefault, "srv")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	oids := make([][]OID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				o, err := p.Alloc(64)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				p.WriteU64(o.Offset(), uint64(w)<<32|uint64(i))
				oids[w] = append(oids[w], o)
			}
		}(w)
	}
	wg.Wait()
	// Every allocation must be distinct and hold its writer's value.
	seen := make(map[OID]bool)
	for w, os := range oids {
		for i, o := range os {
			if seen[o] {
				t.Fatalf("OID %v handed out twice", o)
			}
			seen[o] = true
			if got := p.ReadU64(o.Offset()); got != uint64(w)<<32|uint64(i) {
				t.Fatalf("allocation %v corrupted: %#x", o, got)
			}
		}
	}
	for _, os := range oids {
		for _, o := range os {
			if err := p.Free(o); err != nil {
				t.Fatalf("free: %v", err)
			}
		}
	}
}

// TestRaceStoreMaintenance runs List/Sync/Snapshot concurrently with
// writers and attach churn across many pools — the daemon's janitor and
// STATS paths against live sessions.
func TestRaceStoreMaintenance(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const pools = 4
	for i := 0; i < pools; i++ {
		if _, err := store.Create(fmt.Sprintf("p%d", i), 1<<20, ModeDefault, "srv"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < pools; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _ := store.Get(fmt.Sprintf("p%d", i))
			sp := NewSpace(nil)
			for n := 0; n < 100; n++ {
				if _, err := sp.Attach(p, core.PermRW, ""); err != nil {
					t.Errorf("attach: %v", err)
					return
				}
				p.WriteU64(uint32(8192+8*(n%64)), uint64(n))
				if err := sp.Detach(p); err != nil {
					t.Errorf("detach: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 50; n++ {
			store.List()
			if err := store.Sync(); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 20; n++ {
			name := fmt.Sprintf("snap%d", n)
			// Snapshot legitimately fails while a writer is attached;
			// only unexpected errors count.
			if _, err := store.Snapshot("p0", name, "srv"); err == nil {
				if err := store.Remove(name); err != nil {
					t.Errorf("remove: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestRaceParallelByteAccessDisjointPages(t *testing.T) {
	store := NewStore()
	p, err := store.Create("bytes", 8<<20, ModeDefault, "srv")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint32(1<<20 + w*1<<16)
			buf := make([]byte, 256)
			for i := range buf {
				buf[i] = byte(w)
			}
			for n := 0; n < 200; n++ {
				p.Write(base, buf)
				got := make([]byte, len(buf))
				p.Read(base, got)
				for i := range got {
					if got[i] != byte(w) {
						t.Errorf("worker %d read back %d at %d", w, got[i], i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRaceLockFreeReaders reads one pool through two read-only
// attachments in two spaces, each on its own goroutine, while a third
// goroutine stores whole words through the pool and a fourth runs
// Store.Sync and CopyImage. Loads take no lock, so every value a reader
// sees must be one a store wrote whole: words are never torn.
func TestRaceLockFreeReaders(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := store.Create("shared", 1<<20, ModeDefault, "srv")
	if err != nil {
		t.Fatal(err)
	}
	const (
		base  = 64 << 10
		words = 1024 // two pages
		iters = 200
	)
	pattern := func(n int) uint64 { return uint64(n) * 0x0101010101010101 }
	for i := 0; i < words; i++ {
		p.WriteU64(uint32(base+8*i), pattern(0))
	}
	var atts []*Attachment
	for i := 0; i < 2; i++ {
		att, err := NewSpace(nil).Attach(p, core.PermR, "")
		if err != nil {
			t.Fatal(err)
		}
		atts = append(atts, att)
	}
	var wg sync.WaitGroup
	for _, att := range atts {
		wg.Add(1)
		go func(att *Attachment) {
			defer wg.Done()
			buf := make([]byte, 8*words)
			for n := 0; n < iters; n++ {
				att.Read(base, buf)
				for i := 0; i < words; i++ {
					if v := binary.LittleEndian.Uint64(buf[8*i:]); v%pattern(1) != 0 || v/pattern(1) > 255 {
						t.Errorf("Read saw a torn word %#x", v)
						return
					}
				}
				if v := att.ReadU64(uint32(base + 8*(n%words))); v%pattern(1) != 0 {
					t.Errorf("ReadU64 saw a torn word %#x", v)
					return
				}
			}
		}(att)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for n := 1; n <= iters; n++ {
			for i := 0; i < words; i += 7 {
				p.WriteU64(uint32(base+8*i), pattern(n%256))
			}
		}
	}()
	go func() {
		defer wg.Done()
		for n := 0; n < 20; n++ {
			if err := store.Sync(); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
			if img := p.CopyImage(); uint64(len(img)) != p.Size() {
				t.Errorf("CopyImage returned %d bytes", len(img))
				return
			}
		}
	}()
	wg.Wait()
}

// TestRaceWriteAttachedSync stores through a write attachment while
// Store.Sync and CopyImage run; the synced file must then reload to the
// pool's final image.
func TestRaceWriteAttachedSync(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := store.Create("rw", 1<<20, ModeDefault, "srv")
	if err != nil {
		t.Fatal(err)
	}
	att, err := NewSpace(nil).Attach(p, core.PermRW, "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]byte, 200)
		for n := 0; n < 300; n++ {
			for i := range buf {
				buf[i] = byte(n + i)
			}
			att.Write(uint32(70<<10+n*97), buf)
			att.WriteU64(uint32(300<<10+8*n), uint64(n))
		}
	}()
	go func() {
		defer wg.Done()
		for n := 0; n < 20; n++ {
			if err := store.Sync(); err != nil {
				t.Errorf("sync: %v", err)
				return
			}
			p.CopyImage()
		}
	}()
	wg.Wait()
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	q, ok := back.Get("rw")
	if !ok {
		t.Fatal("pool missing after reload")
	}
	if !bytes.Equal(q.CopyImage(), p.CopyImage()) {
		t.Fatal("reloaded pool differs from the synced one")
	}
}
