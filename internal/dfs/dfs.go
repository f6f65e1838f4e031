// Package dfs emulates the distributed file system underneath the
// MapReduce engine (HDFS in the paper's Hadoop deployment, GFS in
// Google's). Files are split into fixed-size blocks placed on simulated
// cluster nodes with a configurable replication factor, and the store
// keeps byte-level accounting of everything written and read so the
// experiment harness can report graph sizes ("Size" / "Max Size" columns
// of the paper's graph table) and model I/O cost per MapReduce round.
//
// Block payloads live in a pluggable BlockStore: MemStore (the default)
// keeps them in process memory for faithful accounting at test speed;
// DiskStore writes each block under a private temp dir so graph state
// larger than RAM can flow through the same placement and accounting
// machinery.
//
// Stored bytes move by ownership, not by copy, so a MapReduce round does
// not copy the graph state on its way through the file system. WriteFile
// takes ownership of the buffer it is given: a MemStore's blocks are
// sub-slices of it, and the caller must not modify it afterwards.
// ReadFile returns a read-only view: for a one-block file the stored
// block itself, which the caller must not modify. Only a file of several
// blocks is stitched into a fresh copy. Package dfstest checks both rules
// in tests.
package dfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// DefaultBlockSize mirrors the common HDFS configuration (64 MiB); tests
// use much smaller blocks to exercise multi-block paths.
const DefaultBlockSize = 64 << 20

// Config parameterizes a file system instance.
type Config struct {
	// Nodes is the number of storage nodes (the paper's slave nodes).
	Nodes int
	// BlockSize is the maximum block payload size in bytes.
	BlockSize int
	// Replication is the number of nodes holding a copy of each block
	// (the paper sets DFS replication to 2).
	Replication int
}

func (c *Config) applyDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if c.Replication > c.Nodes {
		c.Replication = c.Nodes
	}
}

// Block is the replica placement of one block of a file, as returned by
// Blocks.
type Block struct {
	// Nodes lists the node IDs that hold a replica, primary first.
	Nodes []int
}

// blockRef is the stored representation of one block: metadata plus the
// store key of its payload.
type blockRef struct {
	key   string
	size  int
	nodes []int
}

// fileData is the stored representation of a file.
type fileData struct {
	blocks []blockRef
	size   int64
}

// Stats is a snapshot of cumulative I/O counters.
type Stats struct {
	BytesWritten int64 // payload bytes written (before replication)
	BytesRead    int64
	BytesStored  int64 // current payload bytes across all live files
	FilesCreated int64
	FilesDeleted int64
}

// FS is a distributed file system emulation over a pluggable block
// store. The zero value is not usable; create instances with New or
// NewWithStore.
type FS struct {
	cfg   Config
	store BlockStore

	mu        sync.RWMutex
	files     map[string]*fileData
	nextNode  int
	nextBlock int64
	stats     Stats
	nodeBytes []int64 // replica bytes per node
}

// New creates a file system with the given configuration, backed by an
// in-memory block store.
func New(cfg Config) *FS {
	return NewWithStore(cfg, NewMemStore())
}

// NewWithStore creates a file system over the given block store. The FS
// owns the store: Close releases it.
func NewWithStore(cfg Config, store BlockStore) *FS {
	cfg.applyDefaults()
	return &FS{
		cfg:       cfg,
		store:     store,
		files:     make(map[string]*fileData),
		nodeBytes: make([]int64, cfg.Nodes),
	}
}

// Config returns the configuration the file system was created with
// (after defaulting).
func (fs *FS) Config() Config { return fs.cfg }

// Close releases the backing block store (removing its directory for a
// DiskStore). The FS is unusable afterwards.
func (fs *FS) Close() error {
	return fs.store.Close()
}

// placement chooses replica nodes for the next block, round-robin over
// nodes the way HDFS spreads blocks across a quiet cluster.
func (fs *FS) placement() []int {
	nodes := make([]int, fs.cfg.Replication)
	for i := range nodes {
		nodes[i] = (fs.nextNode + i) % fs.cfg.Nodes
	}
	fs.nextNode = (fs.nextNode + 1) % fs.cfg.Nodes
	return nodes
}

// WriteFile stores data as a new file, replacing any existing file with
// the same name (MapReduce output paths are overwritten between rounds).
// It takes ownership of data: the blocks are data[off:end:end], not
// copies, so the caller must not modify data after the call. (This is
// the converse of TaskContext.Emit, which copies what it is given.)
func (fs *FS) WriteFile(name string, data []byte) error {
	if name == "" {
		return fmt.Errorf("dfs: empty file name")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.deleteLocked(name)

	fd := &fileData{size: int64(len(data))}
	for off := 0; off < len(data) || off == 0; off += fs.cfg.BlockSize {
		end := off + fs.cfg.BlockSize
		if end > len(data) {
			end = len(data)
		}
		fs.nextBlock++
		ref := blockRef{
			key:   fmt.Sprintf("b%010d", fs.nextBlock),
			size:  end - off,
			nodes: fs.placement(),
		}
		if err := fs.store.Put(ref.key, name, data[off:end:end]); err != nil {
			// Roll back blocks already stored so a failed write leaves
			// no orphans.
			for _, b := range fd.blocks {
				fs.store.Delete(b.key)
			}
			return err
		}
		fd.blocks = append(fd.blocks, ref)
		for _, n := range ref.nodes {
			fs.nodeBytes[n] += int64(ref.size)
		}
		if len(data) == 0 {
			break
		}
	}
	fs.files[name] = fd
	fs.stats.FilesCreated++
	fs.stats.BytesWritten += int64(len(data))
	fs.stats.BytesStored += int64(len(data))
	return nil
}

// ReadFile returns the full contents of a file as a read-only view: the
// caller must not modify it. A one-block file is returned as the stored
// block itself (its capacity clipped, so an append copies); a file of
// several blocks is stitched into a fresh copy.
func (fs *FS) ReadFile(name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fd, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: file %q does not exist", name)
	}
	if len(fd.blocks) == 1 {
		data, err := fs.store.Get(fd.blocks[0].key)
		if err != nil {
			return nil, fmt.Errorf("dfs: file %q: %w", name, err)
		}
		fs.stats.BytesRead += fd.size
		return data[:len(data):len(data)], nil
	}
	out := make([]byte, 0, fd.size)
	for _, ref := range fd.blocks {
		data, err := fs.store.Get(ref.key)
		if err != nil {
			return nil, fmt.Errorf("dfs: file %q: %w", name, err)
		}
		out = append(out, data...)
	}
	fs.stats.BytesRead += fd.size
	return out, nil
}

// Blocks returns the replica placement of each block of a file, without
// reading any payload. The MapReduce engine uses it for locality-aware
// scheduling.
func (fs *FS) Blocks(name string) ([]Block, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	fd, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: file %q does not exist", name)
	}
	out := make([]Block, 0, len(fd.blocks))
	for _, ref := range fd.blocks {
		out = append(out, Block{Nodes: ref.nodes})
	}
	return out, nil
}

// Size returns the payload size of a file in bytes.
func (fs *FS) Size(name string) (int64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	fd, ok := fs.files[name]
	if !ok {
		return 0, fmt.Errorf("dfs: file %q does not exist", name)
	}
	return fd.size, nil
}

// Exists reports whether a file exists.
func (fs *FS) Exists(name string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[name]
	return ok
}

// Delete removes a file if it exists.
func (fs *FS) Delete(name string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.deleteLocked(name)
}

func (fs *FS) deleteLocked(name string) {
	fd, ok := fs.files[name]
	if !ok {
		return
	}
	for _, ref := range fd.blocks {
		for _, n := range ref.nodes {
			fs.nodeBytes[n] -= int64(ref.size)
		}
		fs.store.Delete(ref.key)
	}
	fs.stats.BytesStored -= fd.size
	fs.stats.FilesDeleted++
	delete(fs.files, name)
}

// DeletePrefix removes every file whose name starts with prefix and
// returns the number removed (used to clean up a round's output dir).
func (fs *FS) DeletePrefix(prefix string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var victims []string
	for name := range fs.files {
		if strings.HasPrefix(name, prefix) {
			victims = append(victims, name)
		}
	}
	for _, name := range victims {
		fs.deleteLocked(name)
	}
	return len(victims)
}

// List returns the names of files with the given prefix, sorted.
func (fs *FS) List(prefix string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var names []string
	for name := range fs.files {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// TotalSize returns the combined payload size of all files with the given
// prefix. The experiment harness uses it for the paper's "Size" and
// "Max Size" graph-table columns.
func (fs *FS) TotalSize(prefix string) int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var total int64
	for name, fd := range fs.files {
		if strings.HasPrefix(name, prefix) {
			total += fd.size
		}
	}
	return total
}

// Stats returns a snapshot of the cumulative I/O counters.
func (fs *FS) Stats() Stats {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.stats
}

// NodeBytes returns the replica bytes currently stored on each node.
func (fs *FS) NodeBytes() []int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]int64, len(fs.nodeBytes))
	copy(out, fs.nodeBytes)
	return out
}
