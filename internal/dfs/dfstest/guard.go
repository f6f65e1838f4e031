// Package dfstest checks the DFS ownership contract in tests. The FS
// stores the buffers WriteFile is given and hands out the stored blocks
// from ReadFile, so a caller that reuses a buffer after writing it, or
// writes into a view it read, silently changes a stored file. NewFS makes
// that a test failure that names the file.
package dfstest

import (
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"testing"

	"ffmr/internal/dfs"
)

// guard is a dfs.BlockStore that records a CRC32 of every block at Put and
// checks it again at Get, Delete and Close, reporting a changed block with
// the name of its file.
type guard struct {
	inner  dfs.BlockStore
	report func(error)

	mu     sync.Mutex
	blocks map[string]guarded
}

type guarded struct {
	file string
	crc  uint32
}

// newGuard wraps inner; report receives one error per changed block found.
func newGuard(inner dfs.BlockStore, report func(error)) *guard {
	return &guard{inner: inner, report: report, blocks: make(map[string]guarded)}
}

// NewFS returns a file system over a MemStore that records a CRC32 of
// every block at Put and checks it again at Get, Delete and Close; a
// changed block fails tb with the name of its file. The file system is
// closed when the test ends, which checks every block still stored.
func NewFS(tb testing.TB, cfg dfs.Config) *dfs.FS {
	tb.Helper()
	fs := dfs.NewWithStore(cfg, newGuard(dfs.NewMemStore(), func(err error) { tb.Error(err) }))
	tb.Cleanup(func() { fs.Close() })
	return fs
}

// Put implements dfs.BlockStore.
func (g *guard) Put(key, file string, data []byte) error {
	if err := g.inner.Put(key, file, data); err != nil {
		return err
	}
	g.mu.Lock()
	g.blocks[key] = guarded{file: file, crc: crc32.ChecksumIEEE(data)}
	g.mu.Unlock()
	return nil
}

// Get implements dfs.BlockStore.
func (g *guard) Get(key string) ([]byte, error) {
	data, err := g.inner.Get(key)
	if err == nil {
		g.check("Get", key, data)
	}
	return data, err
}

// Delete implements dfs.BlockStore.
func (g *guard) Delete(key string) {
	if data, err := g.inner.Get(key); err == nil {
		g.check("Delete", key, data)
	}
	g.mu.Lock()
	delete(g.blocks, key)
	g.mu.Unlock()
	g.inner.Delete(key)
}

// Close implements dfs.BlockStore, checking every block still stored.
func (g *guard) Close() error {
	g.mu.Lock()
	keys := make([]string, 0, len(g.blocks))
	for key := range g.blocks {
		keys = append(keys, key)
	}
	g.mu.Unlock()
	sort.Strings(keys)
	for _, key := range keys {
		if data, err := g.inner.Get(key); err == nil {
			g.check("Close", key, data)
		}
	}
	return g.inner.Close()
}

// check compares data with the checksum recorded at Put. A changed block
// is reported once: its checksum is then re-recorded.
func (g *guard) check(op, key string, data []byte) {
	crc := crc32.ChecksumIEEE(data)
	g.mu.Lock()
	b, ok := g.blocks[key]
	if ok && crc != b.crc {
		g.blocks[key] = guarded{file: b.file, crc: crc}
	}
	g.mu.Unlock()
	if ok && crc != b.crc {
		g.report(fmt.Errorf("dfstest: file %q (block %s) changed after it was stored, found at %s", b.file, key, op))
	}
}
