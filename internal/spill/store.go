package spill

import (
	"bytes"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// RunStore is where spill runs and intermediate merge segments live. In
// a real Hadoop deployment this is the tasktracker's local disk (not
// HDFS); here it is pluggable so tests can run the full spill/merge
// machinery against memory while production runs write real files under
// a temp dir.
//
// Names are slash-separated paths, unique per task attempt, so a failed
// attempt's partial state can be discarded with RemovePrefix. The
// namespace is flat: a slash is part of the name, not a directory. All
// methods are safe for concurrent use; Create/Open of distinct names
// may proceed in parallel (map tasks spill concurrently).
type RunStore interface {
	// Create opens a named object for writing. The object becomes
	// readable once the returned writer is closed. size is the number of
	// bytes the caller will write when it knows, 0 when it does not; a
	// store that holds objects in memory allocates them once from it.
	Create(name string, size int64) (io.WriteCloser, error)
	// Open opens a previously created object. Any number of readers may
	// have one object open, each at its own ranges.
	Open(name string) (Object, error)
	// Has reports whether a named object exists (created and committed).
	// The distributed shuffle uses it to skip refetching segments that a
	// prefetch already landed.
	Has(name string) bool
	// Remove deletes one object (missing names are not an error).
	Remove(name string) error
	// RemovePrefix deletes every object whose name starts with prefix
	// and returns the number removed (failed-attempt cleanup).
	RemovePrefix(prefix string) int
	// Bytes returns the total stored (on-disk, post-compression) bytes.
	Bytes() int64
	// Objects returns the number of live objects.
	Objects() int
	// Close releases the store, deleting everything it holds.
	Close() error
}

// Object is an open store object: readable front to back, and at any
// range (a spill object holds one segment per partition, back to back,
// and every reader wants only its own).
type Object interface {
	io.ReadCloser
	io.ReaderAt
	// Size is the object's length in bytes.
	Size() int64
}

// openRange opens a stored object after checking that [off, off+n) lies
// inside it. Both numbers may come off the wire.
func openRange(store RunStore, name string, off, n int64) (Object, error) {
	obj, err := store.Open(name)
	if err != nil {
		return nil, err
	}
	if off < 0 || n < 0 || off > obj.Size()-n {
		obj.Close()
		return nil, fmt.Errorf("spill: range [%d,+%d) lies outside run %q of %d bytes", off, n, name, obj.Size())
	}
	return obj, nil
}

// ReadRange returns bytes [off, off+n) of a stored object: for a
// MemRunStore the stored bytes themselves, which the caller must not
// write to, otherwise a copy of exactly n bytes.
func ReadRange(store RunStore, name string, off, n int64) ([]byte, error) {
	obj, err := openRange(store, name, off, n)
	if err != nil {
		return nil, err
	}
	defer obj.Close()
	if m, ok := obj.(*memObject); ok {
		return m.data[off : off+n : off+n], nil
	}
	buf := make([]byte, n)
	if got, err := obj.ReadAt(buf, off); got < len(buf) {
		return nil, fmt.Errorf("spill: read run %q: %w", name, err)
	}
	return buf, nil
}

// MemRunStore is an in-memory RunStore for tests and for exercising the
// spill path without touching the host file system.
type MemRunStore struct {
	mu   sync.Mutex
	objs map[string][]byte
}

// NewMemRunStore creates an empty in-memory run store.
func NewMemRunStore() *MemRunStore {
	return &MemRunStore{objs: make(map[string][]byte)}
}

// memWriter gathers an object's bytes and hands its slice to the store
// on Close, uncopied.
type memWriter struct {
	data  []byte
	store *MemRunStore
	name  string
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

func (w *memWriter) Close() error {
	w.store.mu.Lock()
	w.store.objs[w.name] = w.data
	w.store.mu.Unlock()
	return nil
}

// Create implements RunStore.
func (s *MemRunStore) Create(name string, size int64) (io.WriteCloser, error) {
	if name == "" {
		return nil, fmt.Errorf("spill: empty run name")
	}
	return &memWriter{store: s, name: name, data: make([]byte, 0, max(size, 0))}, nil
}

// memObject is an open MemRunStore object. Inside the package its bytes
// are read where they lie (openSegStream, ReadRange); stored objects are
// immutable.
type memObject struct {
	bytes.Reader
	data []byte
}

func (*memObject) Close() error { return nil }

// Open implements RunStore.
func (s *MemRunStore) Open(name string) (Object, error) {
	s.mu.Lock()
	data, ok := s.objs[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("spill: run %q does not exist", name)
	}
	o := &memObject{data: data}
	o.Reset(data)
	return o, nil
}

// Has implements RunStore.
func (s *MemRunStore) Has(name string) bool {
	s.mu.Lock()
	_, ok := s.objs[name]
	s.mu.Unlock()
	return ok
}

// Remove implements RunStore.
func (s *MemRunStore) Remove(name string) error {
	s.mu.Lock()
	delete(s.objs, name)
	s.mu.Unlock()
	return nil
}

// RemovePrefix implements RunStore.
func (s *MemRunStore) RemovePrefix(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for name := range s.objs {
		if strings.HasPrefix(name, prefix) {
			delete(s.objs, name)
			n++
		}
	}
	return n
}

// Bytes implements RunStore.
func (s *MemRunStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, data := range s.objs {
		total += int64(len(data))
	}
	return total
}

// Objects implements RunStore.
func (s *MemRunStore) Objects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objs)
}

// Names returns the live object names, sorted (test helper).
func (s *MemRunStore) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.objs))
	for name := range s.objs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Close implements RunStore.
func (s *MemRunStore) Close() error {
	s.mu.Lock()
	s.objs = make(map[string][]byte)
	s.mu.Unlock()
	return nil
}

// DiskRunStore writes runs as real files in a private directory, which
// Close removes. It is the production store: spilled bytes leave process
// memory. Every object is one file directly under the root, its name
// escaped, so creating one costs a single openat and removing the last
// leaves the root empty.
type DiskRunStore struct {
	root string

	mu    sync.Mutex
	sizes map[string]int64
}

// NewDiskRunStore creates a store rooted at a fresh private directory
// under dir (the OS temp dir when dir is empty). dir is created if it
// does not exist yet.
func NewDiskRunStore(dir string) (*DiskRunStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("spill: create store dir: %w", err)
		}
	}
	root, err := os.MkdirTemp(dir, "ffmr-spill-*")
	if err != nil {
		return nil, fmt.Errorf("spill: create store dir: %w", err)
	}
	return &DiskRunStore{root: root, sizes: make(map[string]int64)}, nil
}

// Root returns the store's private directory.
func (s *DiskRunStore) Root() string { return s.root }

func (s *DiskRunStore) path(name string) string {
	return filepath.Join(s.root, url.PathEscape(name))
}

// diskWriter counts bytes and registers the object's size on Close.
type diskWriter struct {
	f     *os.File
	store *DiskRunStore
	name  string
	n     int64
}

func (w *diskWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *diskWriter) Close() error {
	err := w.f.Close()
	w.store.mu.Lock()
	w.store.sizes[w.name] = w.n
	w.store.mu.Unlock()
	return err
}

// Create implements RunStore. A file grows as it is written, so the size
// is not needed.
func (s *DiskRunStore) Create(name string, _ int64) (io.WriteCloser, error) {
	if name == "" {
		return nil, fmt.Errorf("spill: empty run name")
	}
	f, err := os.Create(s.path(name))
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	return &diskWriter{f: f, store: s, name: name}, nil
}

// diskObject is an open DiskRunStore file with its committed size.
type diskObject struct {
	*os.File
	size int64
}

func (o *diskObject) Size() int64 { return o.size }

// Open implements RunStore. Only committed names reach the file system,
// so a name off the wire cannot address a file the store did not write.
func (s *DiskRunStore) Open(name string) (Object, error) {
	s.mu.Lock()
	size, ok := s.sizes[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("spill: run %q does not exist", name)
	}
	f, err := os.Open(s.path(name))
	if err != nil {
		return nil, fmt.Errorf("spill: run %q: %w", name, err)
	}
	return &diskObject{File: f, size: size}, nil
}

// Has implements RunStore. The sizes index is authoritative: a file
// still being written has no entry yet, so Has only reports committed
// objects, matching MemRunStore's close-to-commit semantics.
func (s *DiskRunStore) Has(name string) bool {
	s.mu.Lock()
	_, ok := s.sizes[name]
	s.mu.Unlock()
	return ok
}

// Remove implements RunStore.
func (s *DiskRunStore) Remove(name string) error {
	s.mu.Lock()
	delete(s.sizes, name)
	s.mu.Unlock()
	if err := os.Remove(s.path(name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("spill: %w", err)
	}
	return nil
}

// RemovePrefix implements RunStore.
func (s *DiskRunStore) RemovePrefix(prefix string) int {
	s.mu.Lock()
	var victims []string
	for name := range s.sizes {
		if strings.HasPrefix(name, prefix) {
			victims = append(victims, name)
			delete(s.sizes, name)
		}
	}
	s.mu.Unlock()
	for _, name := range victims {
		os.Remove(s.path(name))
	}
	return len(victims)
}

// Bytes implements RunStore.
func (s *DiskRunStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, sz := range s.sizes {
		total += sz
	}
	return total
}

// Objects implements RunStore.
func (s *DiskRunStore) Objects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sizes)
}

// Close implements RunStore, removing the store directory and all runs.
func (s *DiskRunStore) Close() error {
	s.mu.Lock()
	s.sizes = make(map[string]int64)
	s.mu.Unlock()
	return os.RemoveAll(s.root)
}
