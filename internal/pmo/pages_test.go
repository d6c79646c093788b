package pmo

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"domainvirt/internal/memlayout"
)

// refFrames is the byte store pools used before the lock-free page
// directory — a map from page index to a lazily allocated 4 KiB frame —
// kept as the reference the directory must match byte for byte.
type refFrames map[uint64]*[memlayout.PageSize]byte

func (r refFrames) read(off uint64, dst []byte) {
	for len(dst) > 0 {
		pageOff := off & (memlayout.PageSize - 1)
		n := memlayout.PageSize - pageOff
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		if f := r[off>>memlayout.PageShift]; f != nil {
			copy(dst[:n], f[pageOff:pageOff+n])
		} else {
			for i := uint64(0); i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		off += n
	}
}

func (r refFrames) write(off uint64, src []byte) {
	for len(src) > 0 {
		pageOff := off & (memlayout.PageSize - 1)
		n := memlayout.PageSize - pageOff
		if n > uint64(len(src)) {
			n = uint64(len(src))
		}
		f := r[off>>memlayout.PageShift]
		if f == nil {
			f = new([memlayout.PageSize]byte)
			r[off>>memlayout.PageShift] = f
		}
		copy(f[pageOff:pageOff+n], src[:n])
		src = src[n:]
		off += n
	}
}

func (r refFrames) loadImage(img []byte) {
	for off := uint64(0); off < uint64(len(img)); off += memlayout.PageSize {
		n := min(memlayout.PageSize, uint64(len(img))-off)
		r.write(off, img[off:off+n])
	}
}

// writeRefPool is the old pool file writer over the reference frames.
func writeRefPool(w io.Writer, p *Pool, frames refFrames) error {
	if _, err := w.Write(poolFileMagic[:]); err != nil {
		return err
	}
	for _, v := range []any{p.id, p.size, uint16(p.mode)} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, s := range []string{p.owner, p.attachKey, p.name} {
		if err := writeString(w, s); err != nil {
			return err
		}
	}
	idxs := make([]uint64, 0, len(frames))
	for idx := range frames {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	if err := binary.Write(w, binary.LittleEndian, uint64(len(idxs))); err != nil {
		return err
	}
	for _, idx := range idxs {
		if err := binary.Write(w, binary.LittleEndian, idx); err != nil {
			return err
		}
		if _, err := w.Write(frames[idx][:]); err != nil {
			return err
		}
	}
	return nil
}

// checkAgainstRef compares every observable of p's byte store with ref:
// the full image, the populated page count, and the pool file bytes.
func checkAgainstRef(t *testing.T, step string, p *Pool, ref refFrames) {
	t.Helper()
	want := make([]byte, p.size)
	ref.read(0, want)
	if got := p.CopyImage(); !bytes.Equal(got, want) {
		t.Fatalf("%s: CopyImage differs from the reference", step)
	}
	if got := p.PopulatedPages(); got != len(ref) {
		t.Fatalf("%s: PopulatedPages = %d, reference %d", step, got, len(ref))
	}
	var got, wantFile bytes.Buffer
	p.mu.Lock()
	err := writePool(&got, p)
	p.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRefPool(&wantFile, p, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantFile.Bytes()) {
		t.Fatalf("%s: pool file bytes differ from the reference writer's", step)
	}
}

// TestPageDirMatchesMapReference is the differential referee for the
// lock-free page directory: random loads and stores at unaligned and
// page-straddling offsets, then CopyImage, LoadImage, a pool file round
// trip, a Store snapshot clone and PopulatedPages must all agree with
// the map-of-frames store it replaced.
func TestPageDirMatchesMapReference(t *testing.T) {
	// One pool fits a single directory node; the other needs two levels
	// and has a partial last page.
	sizes := []uint64{16 * memlayout.PageSize, 130*memlayout.PageSize + 1000}
	for seed := int64(1); seed <= 8; seed++ {
		for _, size := range sizes {
			rng := rand.New(rand.NewSource(seed))
			store := NewStore()
			p, err := store.Create("diff", size, ModeDefault, "u")
			if err != nil {
				t.Fatal(err)
			}
			ref := refFrames{}
			ref.write(0, p.CopyImage()[:memlayout.PageSize]) // the header page
			randOff := func(n uint64) uint64 {
				switch rng.Intn(3) {
				case 0: // straddle a page boundary
					pg := 1 + uint64(rng.Int63n(int64(size/memlayout.PageSize)))
					return min(pg*memlayout.PageSize-uint64(rng.Intn(int(min(n, 9))+1)), size-n)
				default:
					return uint64(rng.Int63n(int64(size - n + 1)))
				}
			}
			for step := 0; step < 300; step++ {
				switch rng.Intn(6) {
				case 0:
					off := randOff(8)
					v := rng.Uint64()
					p.WriteU64(uint32(off), v)
					var b [8]byte
					binary.LittleEndian.PutUint64(b[:], v)
					ref.write(off, b[:])
				case 1:
					off := randOff(8)
					var b [8]byte
					ref.read(off, b[:])
					if got, want := p.ReadU64(uint32(off)), binary.LittleEndian.Uint64(b[:]); got != want {
						t.Fatalf("seed %d step %d: ReadU64(%#x) = %#x, want %#x", seed, step, off, got, want)
					}
				case 2, 3:
					n := uint64(rng.Intn(3 * memlayout.PageSize))
					off := randOff(n)
					src := make([]byte, n)
					rng.Read(src)
					p.Write(uint32(off), src)
					ref.write(off, src)
				default:
					n := uint64(rng.Intn(3 * memlayout.PageSize))
					off := randOff(n)
					got, want := make([]byte, n), make([]byte, n)
					p.Read(uint32(off), got)
					ref.read(off, want)
					if !bytes.Equal(got, want) {
						t.Fatalf("seed %d step %d: Read(%#x, %d) differs from the reference", seed, step, off, n)
					}
				}
			}
			checkAgainstRef(t, "after random access", p, ref)

			// Pool file round trip.
			var file bytes.Buffer
			p.mu.Lock()
			err = writePool(&file, p)
			p.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			back, err := readPool(bufio.NewReader(&file))
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstRef(t, "pool file round trip", back, ref)

			// Store snapshot clone: the copy's header names its own ID.
			cp, err := store.Snapshot("diff", "diff-copy", "u")
			if err != nil {
				t.Fatal(err)
			}
			cpRef := refFrames{}
			for idx, f := range ref {
				nf := *f
				cpRef[idx] = &nf
			}
			var id [8]byte
			binary.LittleEndian.PutUint64(id[:], uint64(cp.ID()))
			cpRef.write(hdrPoolID, id[:])
			checkAgainstRef(t, "snapshot clone", cp, cpRef)

			// LoadImage populates every page.
			img := make([]byte, size)
			rng.Read(img)
			if err := p.LoadImage(img); err != nil {
				t.Fatal(err)
			}
			ref.loadImage(img)
			checkAgainstRef(t, "LoadImage", p, ref)
		}
	}
}

// TestCreateHugePoolAllocatesConstant pins that a pool's memory follows
// the pages it touches, not its size: creating 2^50-byte pools costs
// about as much as creating small ones.
func TestCreateHugePoolAllocatesConstant(t *testing.T) {
	perCreate := func(size uint64) uint64 {
		store := NewStore()
		const n = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if _, err := store.Create(fmt.Sprintf("p%d", i), size, ModeDefault, "u"); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	small, huge := perCreate(1<<20), perCreate(1<<50)
	if huge > 32<<10 || huge > 4*small {
		t.Fatalf("creating a 2^50-byte pool allocates %d bytes (a 1 MiB pool: %d)", huge, small)
	}
}
