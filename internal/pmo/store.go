package pmo

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store is the OS-side PMO namespace: it owns pool names, IDs, permission
// metadata, and (optionally) file persistence in a directory where each
// pool is one file. The paper assumes "PMOs are managed by the OS similar
// to a file (namespace and permission) but accessed like data structures".
type Store struct {
	mu     sync.Mutex
	dir    string // "" for in-memory stores
	pools  map[string]*Pool
	byID   map[uint32]*Pool
	nextID uint32
}

// PoolInfo summarizes one pool for listings.
type PoolInfo struct {
	Name      string
	ID        uint32
	Size      uint64
	Mode      Mode
	Owner     string
	Populated int
	Attached  bool
}

// NewStore returns an in-memory store (no file persistence).
func NewStore() *Store {
	return &Store{
		pools:  make(map[string]*Pool),
		byID:   make(map[uint32]*Pool),
		nextID: 1,
	}
}

// OpenStore opens (creating if needed) a file-backed store rooted at dir.
// Existing pool files are loaded.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pmo: opening store: %w", err)
	}
	s := NewStore()
	s.dir = dir
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("pmo: reading store dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), poolFileExt) {
			continue
		}
		p, err := loadPoolFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("pmo: loading %s: %w", e.Name(), err)
		}
		s.pools[p.name] = p
		s.byID[p.id] = p
		p.store = s
		if p.id >= s.nextID {
			s.nextID = p.id + 1
		}
	}
	return s, nil
}

// Dir returns the backing directory ("" for in-memory stores).
func (s *Store) Dir() string { return s.dir }

// Create creates a pool (Table I pool_create); the calling user becomes
// the owner.
func (s *Store) Create(name string, size uint64, mode Mode, owner string) (*Pool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		return nil, fmt.Errorf("pmo: pool name must be non-empty")
	}
	if strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("pmo: pool name %q must not contain path separators", name)
	}
	if _, exists := s.pools[name]; exists {
		return nil, fmt.Errorf("pmo: pool %q already exists", name)
	}
	if size < 2*4096 {
		return nil, fmt.Errorf("pmo: pool size %d too small (min 8 KB)", size)
	}
	id := s.nextID
	s.nextID++
	p := newPool(name, id, size, mode, owner)
	p.store = s
	s.pools[name] = p
	s.byID[id] = p
	return p, nil
}

// Open reopens an existing pool by name (Table I pool_open), enforcing
// the permission mode against the requesting user.
func (s *Store) Open(name, user string, wantWrite bool) (*Pool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pools[name]
	if !ok {
		return nil, fmt.Errorf("pmo: pool %q not found", name)
	}
	isOwner := p.owner == user
	switch {
	case wantWrite && isOwner && p.mode&ModeOwnerWrite == 0,
		wantWrite && !isOwner && p.mode&ModeOtherWrite == 0:
		return nil, fmt.Errorf("pmo: user %q denied write access to pool %q", user, name)
	case !wantWrite && isOwner && p.mode&ModeOwnerRead == 0,
		!wantWrite && !isOwner && p.mode&ModeOtherRead == 0:
		return nil, fmt.Errorf("pmo: user %q denied read access to pool %q", user, name)
	}
	return p, nil
}

// Get returns a pool by name without permission checks (tools, tests).
func (s *Store) Get(name string) (*Pool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pools[name]
	return p, ok
}

// ByID returns a pool by its ID.
func (s *Store) ByID(id uint32) (*Pool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.byID[id]
	return p, ok
}

// Remove deletes a pool from the namespace (and its file, if persisted).
// Attached pools cannot be removed.
func (s *Store) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pools[name]
	if !ok {
		return fmt.Errorf("pmo: pool %q not found", name)
	}
	if p.Attached() {
		return fmt.Errorf("pmo: pool %q is attached", name)
	}
	delete(s.pools, name)
	delete(s.byID, p.id)
	if s.dir != "" {
		path := s.poolPath(name)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// List returns pool summaries sorted by name.
func (s *Store) List() []PoolInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	infos := make([]PoolInfo, 0, len(s.pools))
	for _, p := range s.pools {
		p.mu.Lock()
		infos = append(infos, PoolInfo{
			Name:      p.name,
			ID:        p.id,
			Size:      p.size,
			Mode:      p.mode,
			Owner:     p.owner,
			Populated: p.pages.count,
			Attached:  len(p.atts) > 0,
		})
		p.mu.Unlock()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Sync persists every dirty pool to its backing file (no-op for
// in-memory stores).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" {
		return nil
	}
	for _, p := range s.pools {
		// Hold the pool lock across the save so a concurrent writer
		// cannot mutate frames mid-serialization (lock order is always
		// store.mu then pool.mu).
		p.mu.Lock()
		if !p.dirty {
			p.mu.Unlock()
			continue
		}
		err := savePoolFile(s.poolPath(p.name), p)
		if err == nil {
			p.dirty = false
		}
		p.mu.Unlock()
		if err != nil {
			return fmt.Errorf("pmo: persisting pool %q: %w", p.name, err)
		}
	}
	return nil
}

func (s *Store) poolPath(name string) string {
	return filepath.Join(s.dir, name+poolFileExt)
}

// Snapshot deep-copies pool src into a new pool named dst (backup /
// copy-on-demand provisioning). The source must not be write-attached;
// the snapshot gets a fresh pool ID and rewrites its header accordingly.
func (s *Store) Snapshot(src, dst, owner string) (*Pool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	from, ok := s.pools[src]
	if !ok {
		return nil, fmt.Errorf("pmo: pool %q not found", src)
	}
	if _, exists := s.pools[dst]; exists {
		return nil, fmt.Errorf("pmo: pool %q already exists", dst)
	}
	if dst == "" || strings.ContainsAny(dst, "/\\") {
		return nil, fmt.Errorf("pmo: invalid snapshot name %q", dst)
	}
	from.mu.Lock()
	if from.writer != nil {
		from.mu.Unlock()
		return nil, fmt.Errorf("pmo: pool %q is write-attached; detach before snapshotting", src)
	}
	id := s.nextID
	s.nextID++
	cp := &Pool{
		name:      dst,
		id:        id,
		size:      from.size,
		mode:      from.mode,
		owner:     owner,
		attachKey: from.attachKey,
		pages:     newPageDir(from.size),
		store:     s,
		dirty:     true,
	}
	_ = from.pages.each(func(idx uint64, f *frame) error { // never fails
		cp.pages.get(idx).copyFrom(f)
		return nil
	})
	from.mu.Unlock()
	cp.writeU64Raw(hdrPoolID, uint64(id)) // the copy has its own identity
	s.pools[dst] = cp
	s.byID[id] = cp
	return cp, nil
}
