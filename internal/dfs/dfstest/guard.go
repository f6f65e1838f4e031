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
	"strings"
	"sync"
	"testing"

	"ffmr/internal/dfs"
	"ffmr/internal/spill"
)

// guard is a spill.RunStore that records a CRC32 of every object at Put and
// checks it again at Open, Remove and Close, reporting a changed block with
// the name of its file.
type guard struct {
	spill.RunStore
	report func(error)

	mu   sync.Mutex
	crcs map[string]uint32
}

// newGuard wraps inner; report receives one error per changed block found.
func newGuard(inner spill.RunStore, report func(error)) *guard {
	return &guard{RunStore: inner, report: report, crcs: make(map[string]uint32)}
}

// NewFS returns a file system over a MemRunStore that records a CRC32 of
// every block at Put and checks it again at Open, Remove and Close; a
// changed block fails tb with the name of its file. The file system is
// closed when the test ends, which checks every block still stored.
func NewFS(tb testing.TB, cfg dfs.Config) *dfs.FS {
	tb.Helper()
	fs := dfs.NewWithStore(cfg, newGuard(spill.NewMemRunStore(), func(err error) { tb.Error(err) }))
	tb.Cleanup(func() { fs.Close() })
	return fs
}

// Put implements spill.RunStore.
func (g *guard) Put(name string, data []byte) error {
	if err := g.RunStore.Put(name, data); err != nil {
		return err
	}
	g.mu.Lock()
	g.crcs[name] = crc32.ChecksumIEEE(data)
	g.mu.Unlock()
	return nil
}

// Open implements spill.RunStore; spill.ReadObject reads through it.
func (g *guard) Open(name string) (spill.Object, error) {
	g.check("Open", name)
	return g.RunStore.Open(name)
}

// Remove implements spill.RunStore.
func (g *guard) Remove(name string) error {
	g.check("Remove", name)
	g.mu.Lock()
	delete(g.crcs, name)
	g.mu.Unlock()
	return g.RunStore.Remove(name)
}

// Close implements spill.RunStore, checking every block still stored.
func (g *guard) Close() error {
	g.mu.Lock()
	names := make([]string, 0, len(g.crcs))
	for name := range g.crcs {
		names = append(names, name)
	}
	g.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		g.check("Close", name)
	}
	return g.RunStore.Close()
}

// check compares a stored block with the checksum recorded at Put. A
// changed block is reported once: its checksum is then re-recorded. The
// block of file f is the object "f#i", so the file is the name up to its
// last '#'.
func (g *guard) check(op, name string) {
	data, err := spill.ReadObject(g.RunStore, name)
	if err != nil {
		return
	}
	crc := crc32.ChecksumIEEE(data)
	g.mu.Lock()
	want, ok := g.crcs[name]
	if ok && crc != want {
		g.crcs[name] = crc
	}
	g.mu.Unlock()
	if ok && crc != want {
		file := name[:strings.LastIndexByte(name, '#')]
		g.report(fmt.Errorf("dfstest: file %q (block %s) changed after it was stored, found at %s", file, name, op))
	}
}
