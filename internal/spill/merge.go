package spill

import (
	"bytes"
	"cmp"
	"container/heap"
	"fmt"
	"io"
	"slices"
	"sync"

	"ffmr/internal/trace"
)

// segFlushBytes is how many framed bytes an objectWriter gathers before
// it writes them to the store object. The bound is fixed, not the
// segment's size, so a merged segment larger than any memory budget
// still streams out in pieces.
const segFlushBytes = 64 << 10

// frameBufPool recycles objectWriter frame buffers across objects, tasks
// and merge passes.
var frameBufPool = sync.Pool{New: func() any { return new([]byte) }}

// objectWriter frames records into one store object as a run of
// segments laid back to back, so a reader needs nothing but its segment's
// range. Frames gather in a pooled buffer and reach the object in writes
// of about segFlushBytes, so a small object is written exactly once.
type objectWriter struct {
	store RunStore
	obj   io.WriteCloser
	n     int64 // framed bytes appended to the object so far
	buf   *[]byte
	seg   Segment // the segment being written
}

// createObject starts a store object that will hold size framed bytes.
func createObject(store RunStore, name string, size int64) (*objectWriter, error) {
	obj, err := store.Create(name, size)
	if err != nil {
		return nil, err
	}
	return &objectWriter{
		store: store,
		obj:   obj,
		buf:   frameBufPool.Get().(*[]byte),
		seg:   Segment{Name: name},
	}, nil
}

// begin starts a segment where the previous one ended.
func (ow *objectWriter) begin(partition, node int) {
	ow.seg = Segment{Name: ow.seg.Name, Offset: ow.n, Partition: partition, Node: node}
}

// append frames one record onto the current segment.
func (ow *objectWriter) append(key, value []byte) error {
	before := len(*ow.buf)
	*ow.buf = AppendFrame(*ow.buf, key, value)
	ow.seg.Records++
	ow.n += int64(len(*ow.buf) - before)
	if len(*ow.buf) >= segFlushBytes {
		return ow.flush()
	}
	return nil
}

// flush writes the gathered frames to the object.
func (ow *objectWriter) flush() error {
	_, err := ow.obj.Write(*ow.buf)
	*ow.buf = (*ow.buf)[:0]
	if err != nil {
		return fmt.Errorf("spill: write segment %q: %w", ow.seg.Name, err)
	}
	return nil
}

// end finishes the current segment and returns its metadata, which is
// also its index entry: the range [Offset, Offset+Bytes).
func (ow *objectWriter) end() (Segment, error) {
	if err := ow.flush(); err != nil {
		return Segment{}, err
	}
	ow.seg.Bytes = ow.n - ow.seg.Offset
	return ow.seg, nil
}

// release returns the frame buffer to the pool, unless one oversize
// record grew it far past the flush threshold.
func (ow *objectWriter) release() {
	if ow.buf != nil && cap(*ow.buf) <= 4*segFlushBytes {
		*ow.buf = (*ow.buf)[:0]
		frameBufPool.Put(ow.buf)
	}
	ow.buf = nil
}

// close commits the object: its segments become readable.
func (ow *objectWriter) close() error {
	ow.release()
	if err := ow.obj.Close(); err != nil {
		ow.store.Remove(ow.seg.Name)
		return fmt.Errorf("spill: close run %q: %w", ow.seg.Name, err)
	}
	return nil
}

// abort closes the object and removes it from the store.
func (ow *objectWriter) abort() {
	ow.release()
	ow.obj.Close()
	ow.store.Remove(ow.seg.Name)
}

// windowBytes is the most of a segment a stream holds at a time, unless
// a single frame is longer.
const windowBytes = 64 << 10

// poisonRecycled makes the iterator overwrite a window the moment it
// recycles it, so a test sees at once a record used past its lifetime.
// Only tests set it.
var poisonRecycled bool

// segStream reads one segment's sorted records, holding the head record
// for the merge heap. It has one form: frames are parsed in place out of
// a window onto the segment's framed bytes, and the head's key and value
// alias that window. For a segment in a MemRunStore the window is the
// stored range itself, once and for good. Any other segment is loaded a
// window at a time from the object's range, and a frame the end of a
// window cuts is carried over to the head of the next.
type segStream struct {
	obj  Object
	src  io.Reader // what fills windows; nil when the window is the stored range
	left int64     // framed bytes of the segment no window has held yet
	win  []byte
	off  int  // win[off:] is unparsed
	held bool // some record was parsed out of win, so a caller may hold it

	key   []byte
	value []byte
	order int // stream index, tie-break for determinism
}

func openSegStream(store RunStore, seg Segment, order int) (*segStream, error) {
	obj, err := openRange(store, seg.Name, seg.Offset, seg.Bytes)
	if err != nil {
		return nil, err
	}
	st := &segStream{obj: obj, order: order}
	if m, inMemory := obj.(*memObject); inMemory {
		st.win = m.data[seg.Offset : seg.Offset+seg.Bytes]
		return st, nil
	}
	st.src, st.left = io.NewSectionReader(obj, seg.Offset, seg.Bytes), seg.Bytes
	return st, nil
}

// advance loads the next record into the stream head. ok is false at
// end of segment.
func (st *segStream) advance(it *Iterator) (ok bool, err error) {
	for {
		key, value, size := parseFrame(st.win[st.off:])
		have := len(st.win) - st.off
		switch {
		case size == 0:
			return false, fmt.Errorf("spill: read segment: corrupt record length")
		case size <= have:
			st.key, st.value, st.off, st.held = key, value, st.off+size, true
			return true, nil
		case int64(size-have) > st.left:
			if have == 0 {
				return false, nil
			}
			return false, fmt.Errorf("spill: read segment: record of at least %d bytes with %d left in its segment",
				size, int64(have)+st.left)
		}
		if err := st.slide(it, size); err != nil {
			return false, err
		}
	}
}

// slide moves the stream to a fresh window that starts with the frame
// the current one cuts and holds at least need bytes. A frame is never
// longer than what is left of its segment (advance checked), so neither
// is a window.
func (st *segStream) slide(it *Iterator, need int) error {
	tail := st.win[st.off:]
	size := int(min(int64(max(need, it.win)), int64(len(tail))+st.left))
	next := it.window(size)
	copy(next, tail)
	if _, err := io.ReadFull(st.src, next[len(tail):]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("spill: read segment: %w", err)
	}
	st.left -= int64(size - len(tail))
	st.retire(it)
	st.win, st.off = next, 0
	return nil
}

// retire hands the stream's window back to the iterator: to wait for the
// merge to move past its last key if a record came out of it, else
// straight to reuse.
func (st *segStream) retire(it *Iterator) {
	switch {
	case st.src == nil || st.win == nil:
	case st.held:
		it.retired = append(it.retired, window{buf: st.win, lastKey: st.key})
	default:
		it.recycle(st.win)
	}
	st.win, st.off, st.held = nil, 0, false
}

func (st *segStream) close() error { return st.obj.Close() }

// mergeHeap orders streams by their head record (key, value), ties by
// stream index.
type mergeHeap []*segStream

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if cmp := bytes.Compare(h[i].key, h[j].key); cmp != 0 {
		return cmp < 0
	}
	if cmp := bytes.Compare(h[i].value, h[j].value); cmp != 0 {
		return cmp < 0
	}
	return h[i].order < h[j].order
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*segStream)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	st := old[n-1]
	*h = old[:n-1]
	return st
}

// MergeOptions parameterizes a reduce-side merge.
type MergeOptions struct {
	// FanIn bounds how many segments one pass reads (default
	// DefaultMergeFanIn). When more segments exist, intermediate passes
	// merge the smallest FanIn segments into one until the remainder
	// fits a single streaming pass, as Hadoop's reduce merger does.
	FanIn int
	// TmpPrefix namespaces intermediate segments in the store, unique
	// per reduce task attempt. Iterator.Close removes them.
	TmpPrefix string
	// Tracer and Parent, if set, record one span per merge pass under
	// the reduce task attempt's span.
	Tracer *trace.Tracer
	Parent *trace.Span

	// window is windowBytes unless a test of this package shrinks it.
	window int
}

// MergeStats describes the work a merge performed.
type MergeStats struct {
	// Passes counts merge passes, including the final streaming pass.
	Passes int64
	// Segments is the number of input segments merged across passes.
	Segments int64
	// MaxFanIn is the largest number of segments any single pass read.
	MaxFanIn int64
}

// Iterator streams the merged, sorted record sequence of one partition.
// It owns the windows its streams read through, and reuses one as soon
// as the rule on Next says no caller can still hold a record in it.
type Iterator struct {
	store RunStore
	h     mergeHeap
	tmp   []string

	win     int      // window size
	last    []byte   // key of the record Next returned last
	retired []window // used-up windows in the order their streams left them
	free    [][]byte
}

// window is a buffer some stream has finished with. Every record in it
// has been returned, the last of them with lastKey; since the merge
// returns keys in order, retired windows are in lastKey order too.
type window struct {
	buf     []byte
	lastKey []byte
}

// window returns a buffer of n bytes, a reused one if any is big enough.
func (it *Iterator) window(n int) []byte {
	for i, buf := range it.free {
		if cap(buf) >= n {
			last := len(it.free) - 1
			it.free[i] = it.free[last]
			it.free = it.free[:last]
			return buf[:n]
		}
	}
	return make([]byte, n)
}

func (it *Iterator) recycle(buf []byte) {
	if poisonRecycled {
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	it.free = append(it.free, buf)
}

// Merge prepares a sorted stream over segs (each internally sorted).
// Intermediate passes run eagerly here; the returned Iterator performs
// the final streaming pass. Callers must Close the Iterator.
func Merge(store RunStore, segs []Segment, opts MergeOptions) (*Iterator, MergeStats, error) {
	fanIn := opts.FanIn
	if fanIn <= 0 {
		fanIn = DefaultMergeFanIn
	}
	if fanIn < 2 {
		fanIn = 2
	}
	var stats MergeStats
	it := &Iterator{store: store, win: opts.window}
	if it.win <= 0 {
		it.win = windowBytes
	}

	// Intermediate passes: repeatedly merge the FanIn smallest segments
	// into one until a single streaming pass can take the rest.
	work := append([]Segment(nil), segs...)
	tmpIdx := 0
	for len(work) > fanIn {
		slices.SortFunc(work, func(a, b Segment) int { return cmp.Compare(a.Bytes, b.Bytes) })
		batch := work[:fanIn]
		rest := append([]Segment(nil), work[fanIn:]...)
		name := fmt.Sprintf("%smerge-%04d", opts.TmpPrefix, tmpIdx)
		tmpIdx++
		merged, err := mergePass(store, batch, name, opts)
		if err != nil {
			it.Close()
			return nil, stats, err
		}
		it.tmp = append(it.tmp, merged.Name)
		stats.Passes++
		stats.Segments += int64(len(batch))
		if int64(len(batch)) > stats.MaxFanIn {
			stats.MaxFanIn = int64(len(batch))
		}
		work = append(rest, merged)
	}

	// Final streaming pass feeds the reducer directly.
	if len(work) > 0 {
		stats.Passes++
		stats.Segments += int64(len(work))
		if int64(len(work)) > stats.MaxFanIn {
			stats.MaxFanIn = int64(len(work))
		}
	}
	for i, seg := range work {
		st, err := openSegStream(store, seg, i)
		if err != nil {
			it.Close()
			return nil, stats, err
		}
		ok, err := st.advance(it)
		if err != nil {
			st.close()
			it.Close()
			return nil, stats, err
		}
		if !ok {
			st.close()
			continue
		}
		it.h = append(it.h, st)
	}
	heap.Init(&it.h)
	return it, stats, nil
}

// mergePass merges a batch of segments into one new segment, an object
// of its own.
func mergePass(store RunStore, batch []Segment, name string, opts MergeOptions) (Segment, error) {
	sp := opts.Tracer.Start(trace.CatMerge, fmt.Sprintf("merge-pass-%d", len(batch)), opts.Parent)
	defer sp.End()
	part := -1
	var size int64
	if len(batch) > 0 {
		part = batch[0].Partition
	}
	for i := range batch {
		size += batch[i].Bytes
	}
	sub, _, err := Merge(store, batch, MergeOptions{FanIn: len(batch), window: opts.window})
	if err != nil {
		return Segment{}, err
	}
	defer sub.Close()
	ow, err := createObject(store, name, size)
	if err != nil {
		return Segment{}, err
	}
	ow.begin(part, -1)
	for {
		key, value, ok, err := sub.Next()
		if err != nil {
			ow.abort()
			return Segment{}, err
		}
		if !ok {
			break
		}
		if err := ow.append(key, value); err != nil {
			ow.abort()
			return Segment{}, err
		}
	}
	seg, err := ow.end()
	if err != nil {
		ow.abort()
		return Segment{}, err
	}
	if err := ow.close(); err != nil {
		return Segment{}, err
	}
	sp.SetInt("segments", int64(len(batch)))
	sp.SetInt("records", seg.Records)
	sp.SetInt("raw_bytes", seg.Bytes)
	return seg, nil
}

// Next returns the next record in (key, value) order; ok is false when
// the stream is exhausted. The returned slices are read-only — they
// alias a stored object or a window on one — and stay valid until the
// call to Next that follows the first record with a greater key: a
// caller may hold a whole key group and the record that ends it, which
// is what grouping by key needs, and nothing older. Copy what must live
// longer.
func (it *Iterator) Next() (key, value []byte, ok bool, err error) {
	// Nobody may still hold a record whose key the merge has moved past.
	n := 0
	for n < len(it.retired) && bytes.Compare(it.retired[n].lastKey, it.last) < 0 {
		it.recycle(it.retired[n].buf)
		n++
	}
	if n > 0 {
		it.retired = it.retired[:copy(it.retired, it.retired[n:])]
	}
	if len(it.h) == 0 {
		return nil, nil, false, nil
	}
	st := it.h[0]
	key, value = st.key, st.value
	more, err := st.advance(it)
	if err != nil {
		return nil, nil, false, err
	}
	if more {
		heap.Fix(&it.h, 0)
	} else {
		heap.Pop(&it.h)
		st.retire(it)
		if err := st.close(); err != nil {
			return nil, nil, false, err
		}
	}
	it.last = key
	return key, value, true, nil
}

// Close releases open streams and removes intermediate merge segments.
func (it *Iterator) Close() error {
	var firstErr error
	for _, st := range it.h {
		if err := st.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	it.h, it.retired, it.free = nil, nil, nil
	for _, name := range it.tmp {
		if err := it.store.Remove(name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	it.tmp = nil
	return firstErr
}
