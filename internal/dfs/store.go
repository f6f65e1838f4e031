package dfs

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// BlockStore is the pluggable byte store underneath the FS: the file
// system keeps block metadata (size, replica placement, accounting)
// while the store holds the payload. MemStore keeps blocks in process
// memory (the historical behaviour); DiskStore writes each block under
// a private temp dir so DFS contents leave the heap — the disk-backed
// sibling of the shuffle's spill store. Placement and replication
// accounting are identical across stores because the FS computes them
// from block sizes, never from store internals.
//
// Blocks are immutable once stored. Put takes ownership of data and may
// keep it as the block itself (MemStore does), so the caller must not
// modify it afterwards; Get may return the stored block itself, so its
// caller must treat the result as read-only.
type BlockStore interface {
	// Put stores one block's payload under a FS-chosen key; file names the
	// file the block belongs to, for diagnostics.
	Put(key, file string, data []byte) error
	// Get returns a block's payload, read-only: a MemStore returns the
	// slice Put was given, a DiskStore a fresh one.
	Get(key string) ([]byte, error)
	// Delete removes a block (unknown keys are ignored).
	Delete(key string)
	// Close releases the store and everything in it.
	Close() error
}

// MemStore is the in-memory block store.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemStore creates an empty in-memory block store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string][]byte)}
}

// Put implements BlockStore, keeping data itself as the block.
func (s *MemStore) Put(key, _ string, data []byte) error {
	s.mu.Lock()
	s.m[key] = data
	s.mu.Unlock()
	return nil
}

// Get implements BlockStore.
func (s *MemStore) Get(key string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dfs: block %q missing from store", key)
	}
	return data, nil
}

// Delete implements BlockStore.
func (s *MemStore) Delete(key string) {
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
}

// Close implements BlockStore.
func (s *MemStore) Close() error {
	s.mu.Lock()
	s.m = make(map[string][]byte)
	s.mu.Unlock()
	return nil
}

// DiskStore writes each block as one file under a private directory,
// removed by Close.
type DiskStore struct {
	root string
}

// NewDiskStore creates a block store rooted at a fresh private
// directory under dir (the OS temp dir when dir is empty). dir is
// created if it does not exist yet.
func NewDiskStore(dir string) (*DiskStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("dfs: create disk store: %w", err)
		}
	}
	root, err := os.MkdirTemp(dir, "ffmr-dfs-*")
	if err != nil {
		return nil, fmt.Errorf("dfs: create disk store: %w", err)
	}
	return &DiskStore{root: root}, nil
}

// Root returns the store's private directory.
func (s *DiskStore) Root() string { return s.root }

func (s *DiskStore) path(key string) string { return filepath.Join(s.root, key) }

// Put implements BlockStore.
func (s *DiskStore) Put(key, _ string, data []byte) error {
	if err := os.WriteFile(s.path(key), data, 0o644); err != nil {
		return fmt.Errorf("dfs: write block %q: %w", key, err)
	}
	return nil
}

// Get implements BlockStore.
func (s *DiskStore) Get(key string) ([]byte, error) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, fmt.Errorf("dfs: read block %q: %w", key, err)
	}
	return data, nil
}

// Delete implements BlockStore.
func (s *DiskStore) Delete(key string) {
	os.Remove(s.path(key))
}

// Close implements BlockStore, removing the store directory.
func (s *DiskStore) Close() error {
	return os.RemoveAll(s.root)
}
