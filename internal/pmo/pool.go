package pmo

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"domainvirt/internal/memlayout"
)

// Pool header layout (page 0 of every pool, persistent):
//
//	off   0: magic (8 bytes)
//	off   8: pool ID
//	off  16: pool size in bytes
//	off  24: root OID
//	off  32: bump allocator next-free offset
//	off  40: reserved log area offset
//	off  48: reserved log area size
//	off  56: free-list heads, one u64 offset per size class
const (
	poolMagic      = 0x504d4f504f4f4c31 // "PMOPOOL1"
	hdrMagic       = 0
	hdrPoolID      = 8
	hdrSize        = 16
	hdrRoot        = 24
	hdrBump        = 32
	hdrLogOff      = 40
	hdrLogSize     = 48
	hdrFreeHeads   = 56
	numSizeClasses = 16
	headerEnd      = hdrFreeHeads + 8*numSizeClasses

	// DefaultLogSize is the redo-log area reserved in each pool for
	// durable transactions.
	DefaultLogSize = 64 << 10
)

// Mode is a pool permission mode, Unix-style (owner/other, read/write).
type Mode uint16

// Mode bits.
const (
	ModeOwnerRead Mode = 1 << iota
	ModeOwnerWrite
	ModeOtherRead
	ModeOtherWrite
)

// ModeDefault grants the owner read/write and others read.
const ModeDefault = ModeOwnerRead | ModeOwnerWrite | ModeOtherRead

// Pool is one persistent memory object: a named, sized, permissioned
// container of persistent data reachable from a root object.
type Pool struct {
	name  string
	id    uint32
	size  uint64
	mode  Mode
	owner string
	// attachKey, when non-empty, must be presented at attach time —
	// the paper's finer-grain attach-key permission scheme.
	attachKey string

	// mu serializes every store to the pool's bytes (and so the order
	// the persist hook sees them in) and guards dirty, atts, writer and
	// the hooks. Loads take no lock: they go through the lock-free page
	// directory and observe concurrent stores at 8-byte granularity.
	// Whole-pool readers (CopyImage, the pool file writer, Store.Snapshot
	// and Store.List) hold mu so they never see half of a store.
	mu sync.Mutex
	// allocMu serializes allocator read-modify-write sequences (bump
	// cursor, free-list heads), which span several byte accesses.
	allocMu sync.Mutex

	pages pageDir
	// primary is atts[0] (nil when unattached), republished under mu on
	// every attach and detach so the per-access emit reads it lock-free.
	primary atomic.Pointer[Attachment]
	// hookStore/hookFence observe the pool's durable-media traffic for
	// fault-injection testing (see internal/persist). hookStore is called
	// under p.mu with the raw bytes of every store that reaches the
	// backing frames; it must not touch the pool and must copy src if it
	// retains it. hookFence is called outside p.mu on every persist
	// barrier issued through Fence.
	hookStore func(off uint64, src []byte)
	hookFence func()
	// atts are the current attachments. The paper's sharing policy is
	// enforced at attach time: a writable attachment is exclusive; any
	// number of read-only attachments may coexist.
	atts   []*Attachment
	writer *Attachment // the exclusive RW attachment, if any
	store  *Store
	dirty  bool
}

func newPool(name string, id uint32, size uint64, mode Mode, owner string) *Pool {
	p := &Pool{
		name:  name,
		id:    id,
		size:  size,
		mode:  mode,
		owner: owner,
		pages: newPageDir(size),
	}
	p.initHeader()
	return p
}

func (p *Pool) initHeader() {
	p.writeU64Raw(hdrMagic, poolMagic)
	p.writeU64Raw(hdrPoolID, uint64(p.id))
	p.writeU64Raw(hdrSize, p.size)
	p.writeU64Raw(hdrRoot, 0)
	logOff := uint64(memlayout.PageSize)
	logSize := uint64(DefaultLogSize)
	if logOff+logSize > p.size {
		logSize = 0
	}
	p.writeU64Raw(hdrLogOff, logOff)
	p.writeU64Raw(hdrLogSize, logSize)
	p.writeU64Raw(hdrBump, memlayout.AlignUp(logOff+logSize, 16))
}

// Name returns the pool's namespace name.
func (p *Pool) Name() string { return p.name }

// ID returns the pool ID, which doubles as the domain ID when attached.
func (p *Pool) ID() uint32 { return p.id }

// Size returns the pool capacity in bytes.
func (p *Pool) Size() uint64 { return p.size }

// Mode returns the pool permission mode.
func (p *Pool) Mode() Mode { return p.mode }

// Owner returns the owning user.
func (p *Pool) Owner() string { return p.owner }

// SetAttachKey installs the secret an attacher must present.
func (p *Pool) SetAttachKey(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attachKey = key
}

// Attached reports whether the pool is currently attached anywhere.
func (p *Pool) Attached() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.atts) > 0
}

// Attachment returns the primary (first) attachment, or nil. Under
// read-only sharing, per-attachment accessors on Attachment route
// accesses through a specific space.
func (p *Pool) Attachment() *Attachment {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.atts) == 0 {
		return nil
	}
	return p.atts[0]
}

// Attachments returns all current attachments.
func (p *Pool) Attachments() []*Attachment {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Attachment, len(p.atts))
	copy(out, p.atts)
	return out
}

// reserveAttachment atomically checks the sharing policy and registers
// att, so two concurrent attaches cannot both pass the exclusivity
// check. The caller rolls back with releaseAttachment if the sink
// rejects the mapping.
func (p *Pool) reserveAttachment(att *Attachment, attachKey string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Inter-process sharing policy (Section IV-A): "a PMO may be
	// attached exclusively to only one process for writing, but may be
	// attached to multiple processes for reading."
	if att.Perm.CanWrite() && len(p.atts) > 0 {
		return fmt.Errorf("pmo: pool %q already attached; writable attachment must be exclusive", p.name)
	}
	if p.writer != nil {
		return fmt.Errorf("pmo: pool %q is attached for writing elsewhere", p.name)
	}
	if p.attachKey != "" && p.attachKey != attachKey {
		return fmt.Errorf("pmo: pool %q: attach key mismatch", p.name)
	}
	p.atts = append(p.atts, att)
	if att.Perm.CanWrite() {
		p.writer = att
	}
	p.primary.Store(p.atts[0])
	return nil
}

// releaseAttachment unregisters att.
func (p *Pool) releaseAttachment(att *Attachment) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, a := range p.atts {
		if a == att {
			p.atts = append(p.atts[:i], p.atts[i+1:]...)
			break
		}
	}
	if p.writer == att {
		p.writer = nil
	}
	if len(p.atts) > 0 {
		p.primary.Store(p.atts[0])
	} else {
		p.primary.Store(nil)
	}
}

// PopulatedPages returns the number of lazily-allocated backing frames.
func (p *Pool) PopulatedPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pages.count
}

// --- Raw (event-free) byte access, used before attach and by the store.
//
// Loads take no lock. A multi-word load racing a store from another
// goroutine may observe that store at 8-byte granularity: some words
// old, some new, each word whole. The exclusive-writer attach policy
// rules this out for loads through attachments, because a pool with a
// writable attachment has no other attachment to read through.

func (p *Pool) readU64Raw(off uint64) uint64 {
	if off&7 == 0 {
		f := p.pages.lookup(off >> memlayout.PageShift)
		if f == nil {
			return 0
		}
		return f[off&(memlayout.PageSize-1)>>3].Load()
	}
	var buf [8]byte
	p.readRaw(off, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

func (p *Pool) writeU64Raw(off uint64, v uint64) {
	if off&7 != 0 {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		p.writeRaw(off, buf[:])
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dirty = true
	if p.hookStore != nil {
		var buf [8]byte // escapes into the hook, so allocated only here
		binary.LittleEndian.PutUint64(buf[:], v)
		p.hookStore(off, buf[:])
	}
	p.pages.get(off >> memlayout.PageShift)[off&(memlayout.PageSize-1)>>3].Store(v)
}

func (p *Pool) readRaw(off uint64, dst []byte) {
	for len(dst) > 0 {
		pageOff := off & (memlayout.PageSize - 1)
		n := min(memlayout.PageSize-pageOff, uint64(len(dst)))
		if f := p.pages.lookup(off >> memlayout.PageShift); f != nil {
			f.read(pageOff, dst[:n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += n
	}
}

func (p *Pool) writeRaw(off uint64, src []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dirty = true
	if p.hookStore != nil {
		p.hookStore(off, src)
	}
	for len(src) > 0 {
		pageOff := off & (memlayout.PageSize - 1)
		n := min(memlayout.PageSize-pageOff, uint64(len(src)))
		p.pages.get(off>>memlayout.PageShift).write(pageOff, src[:n])
		src = src[n:]
		off += n
	}
}

// --- Instrumented access: emits load/store events when attached to a
// simulated address space, then touches the backing bytes.

func (p *Pool) checkRange(off uint64, n uint64) error {
	if off+n > p.size || off+n < off {
		return fmt.Errorf("pmo: access [%#x,%#x) outside pool %q of size %#x", off, off+n, p.name, p.size)
	}
	return nil
}

// mustRange panics on out-of-pool accesses: unlike a protection fault
// (a policy decision), indexing past the pool is a caller bug, like
// indexing past a slice.
func (p *Pool) mustRange(off uint64, n uint64) {
	if err := p.checkRange(off, n); err != nil {
		panic(err)
	}
}

// ReadU64 loads a u64 at off, emitting a load event when attached. A
// load denied by the protection machinery never discloses the data: it
// returns zero.
func (p *Pool) ReadU64(off uint32) uint64 {
	p.mustRange(uint64(off), 8)
	if !p.emit(uint64(off), 8, false) {
		return 0
	}
	return p.readU64Raw(uint64(off))
}

// WriteU64 stores v at off, emitting a store event when attached. A
// denied store never reaches persistent memory.
func (p *Pool) WriteU64(off uint32, v uint64) {
	p.mustRange(uint64(off), 8)
	if !p.emit(uint64(off), 8, true) {
		return
	}
	p.writeU64Raw(uint64(off), v)
}

// ReadOID loads a persistent pointer at off.
func (p *Pool) ReadOID(off uint32) OID { return OID(p.ReadU64(off)) }

// WriteOID stores a persistent pointer at off.
func (p *Pool) WriteOID(off uint32, o OID) { p.WriteU64(off, uint64(o)) }

// Read copies len(dst) bytes from off, emitting load events. A denied
// load fills dst with zeros instead of the data.
func (p *Pool) Read(off uint32, dst []byte) {
	p.mustRange(uint64(off), uint64(len(dst)))
	if !p.emit(uint64(off), uint32(len(dst)), false) {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	p.readRaw(uint64(off), dst)
}

// Write copies src to off, emitting store events. A denied store never
// reaches persistent memory.
func (p *Pool) Write(off uint32, src []byte) {
	p.mustRange(uint64(off), uint64(len(src)))
	if !p.emit(uint64(off), uint32(len(src)), true) {
		return
	}
	p.writeRaw(uint64(off), src)
}

// emit forwards one access to the primary attachment's event sink, if
// any, and reports whether the access was permitted. It takes no lock:
// sinks are either nil or externally serialized (the simulator is
// single-threaded per machine), and the primary attachment is an atomic
// pointer that attach and detach republish.
func (p *Pool) emit(off uint64, size uint32, write bool) bool {
	if att := p.primary.Load(); att != nil {
		return att.emit(off, size, write)
	}
	return true
}

// Root returns the root object OID (Table I pool_root); a null OID means
// the root has not been set.
func (p *Pool) Root() OID {
	if !p.emit(hdrRoot, 8, false) {
		return NullOID
	}
	return OID(p.readU64Raw(hdrRoot))
}

// SetRoot installs the root object.
func (p *Pool) SetRoot(o OID) {
	if !p.emit(hdrRoot, 8, true) {
		return
	}
	p.writeU64Raw(hdrRoot, uint64(o))
}

// LogArea returns the reserved redo-log region (offset, size).
func (p *Pool) LogArea() (uint64, uint64) {
	return p.readU64Raw(hdrLogOff), p.readU64Raw(hdrLogSize)
}

// SetPersistHooks installs (or, with nils, removes) observers of the
// pool's durable-media traffic: store fires for every byte range that
// reaches the backing frames, fence for every persist barrier issued via
// Fence. Used by the fault-injection layer in internal/persist.
func (p *Pool) SetPersistHooks(store func(off uint64, src []byte), fence func()) {
	p.mu.Lock()
	p.hookStore = store
	p.hookFence = fence
	p.mu.Unlock()
}

// Fence issues a persist barrier on behalf of this pool: it notifies a
// persist hook if installed and forwards to the primary attachment's
// space (unattached pools in pure library mode still notify the hook, so
// fault-injection sees the program's ordering intent).
func (p *Pool) Fence() {
	p.mu.Lock()
	hf := p.hookFence
	p.mu.Unlock()
	if hf != nil {
		hf()
	}
	if att := p.primary.Load(); att != nil {
		att.Fence()
	}
}

// CopyImage returns the pool's full byte image — the simulated NVM
// contents, including header, log area, and data. Crash-injection
// testing snapshots images and rebuilds pools from faulted variants.
func (p *Pool) CopyImage() []byte {
	img := make([]byte, p.size)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.readRaw(0, img)
	return img
}

// LoadImage overwrites the pool's entire byte contents with img (which
// must be exactly Size() bytes), bypassing persist hooks and access
// instrumentation: it models restoring an NVM image after power loss.
func (p *Pool) LoadImage(img []byte) error {
	if uint64(len(img)) != p.size {
		return fmt.Errorf("pmo: image size %d != pool %q size %d", len(img), p.name, p.size)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dirty = true
	for off := uint64(0); off < p.size; off += memlayout.PageSize {
		n := min(memlayout.PageSize, p.size-off)
		p.pages.get(off>>memlayout.PageShift).write(0, img[off:off+n])
	}
	return nil
}
