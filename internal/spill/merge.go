package spill

import (
	"bufio"
	"bytes"
	"cmp"
	"compress/flate"
	"container/heap"
	"fmt"
	"io"
	"slices"
	"sync"

	"ffmr/internal/trace"
)

// segFlushBytes is how many framed bytes a segmentWriter gathers before
// it writes them to the store object. The bound is fixed, not the
// segment's size, so a merged segment larger than any memory budget
// still streams out in pieces.
const segFlushBytes = 64 << 10

// frameBufPool recycles segmentWriter frame buffers across segments,
// tasks and merge passes.
var frameBufPool = sync.Pool{New: func() any { return new([]byte) }}

// segmentWriter frames records into one store object through an
// optional DEFLATE stage, tracking raw and stored byte counts. Frames
// gather in a pooled buffer and reach the object in writes of about
// segFlushBytes, so a small segment is written exactly once.
type segmentWriter struct {
	store RunStore
	obj   io.WriteCloser
	top   io.Writer // fw when compressing, else cw
	cw    countWriter
	fw    *flate.Writer
	buf   *[]byte
	seg   Segment
}

// countWriter counts the bytes reaching the store object.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func newSegmentWriter(store RunStore, name string, partition, node int, compress bool) (*segmentWriter, error) {
	obj, err := store.Create(name)
	if err != nil {
		return nil, err
	}
	sw := &segmentWriter{
		store: store,
		obj:   obj,
		cw:    countWriter{w: obj},
		seg:   Segment{Name: name, Partition: partition, Node: node, Compressed: compress},
	}
	sw.top = &sw.cw
	if compress {
		fw, err := flate.NewWriter(&sw.cw, flate.BestSpeed)
		if err != nil {
			obj.Close()
			return nil, fmt.Errorf("spill: %w", err)
		}
		sw.fw = fw
		sw.top = fw
	}
	sw.buf = frameBufPool.Get().(*[]byte)
	return sw, nil
}

// append frames one record onto the segment.
func (sw *segmentWriter) append(key, value []byte) error {
	before := len(*sw.buf)
	*sw.buf = AppendFrame(*sw.buf, key, value)
	sw.seg.Records++
	sw.seg.RawBytes += int64(len(*sw.buf) - before)
	if len(*sw.buf) >= segFlushBytes {
		return sw.flush()
	}
	return nil
}

// flush writes the gathered frames to the object.
func (sw *segmentWriter) flush() error {
	_, err := sw.top.Write(*sw.buf)
	*sw.buf = (*sw.buf)[:0]
	if err != nil {
		return fmt.Errorf("spill: write segment %q: %w", sw.seg.Name, err)
	}
	return nil
}

// release returns the frame buffer to the pool, unless one oversize
// record grew it far past the flush threshold.
func (sw *segmentWriter) release() {
	if cap(*sw.buf) <= 4*segFlushBytes {
		*sw.buf = (*sw.buf)[:0]
		frameBufPool.Put(sw.buf)
	}
	sw.buf = nil
}

// close flushes all stages and returns the finished segment metadata.
func (sw *segmentWriter) close() (Segment, error) {
	err := sw.flush()
	sw.release()
	if err != nil {
		sw.obj.Close()
		return Segment{}, err
	}
	if sw.fw != nil {
		if err := sw.fw.Close(); err != nil {
			sw.obj.Close()
			return Segment{}, fmt.Errorf("spill: compress segment %q: %w", sw.seg.Name, err)
		}
	}
	if err := sw.obj.Close(); err != nil {
		return Segment{}, fmt.Errorf("spill: close segment %q: %w", sw.seg.Name, err)
	}
	sw.seg.StoredBytes = sw.cw.n
	return sw.seg, nil
}

// abort closes the underlying object without finishing the segment.
func (sw *segmentWriter) abort() {
	sw.release()
	sw.obj.Close()
	sw.store.Remove(sw.seg.Name)
}

// segStream reads one segment's sorted records, holding the head record
// for the merge heap. A segment whose opened object can hand over its
// bytes (MemRunStore's) and is not compressed is parsed in place: keys
// and values alias the stored bytes and nothing is allocated per record.
// Any other segment streams through bufio and copies each record out.
type segStream struct {
	rc    io.ReadCloser
	data  []byte        // in-place form: the whole stored object
	off   int           // in-place form: offset of the next frame
	fr    io.ReadCloser // streamed form: flate stage, nil when uncompressed
	br    *bufio.Reader // streamed form; nil selects the in-place form
	key   []byte
	value []byte
	order int // stream index, tie-break for determinism
}

func openSegStream(store RunStore, seg Segment, order int) (*segStream, error) {
	rc, err := store.Open(seg.Name)
	if err != nil {
		return nil, err
	}
	st := &segStream{rc: rc, order: order}
	switch b, inPlace := rc.(interface{ Bytes() []byte }); {
	case seg.Compressed:
		st.fr = flate.NewReader(bufio.NewReader(rc))
		st.br = bufio.NewReader(st.fr)
	case inPlace:
		st.data = b.Bytes()
	default:
		st.br = bufio.NewReader(rc)
	}
	return st, nil
}

// advance loads the next record into the stream head. ok is false at
// end of segment.
func (st *segStream) advance() (ok bool, err error) {
	if st.br == nil {
		if st.off >= len(st.data) {
			return false, nil
		}
		st.key, st.value, st.off, err = ReadFrame(st.data, st.off)
		if err != nil {
			return false, fmt.Errorf("spill: read segment: %w", err)
		}
		return true, nil
	}
	key, value, err := ReadStreamFrame(st.br)
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("spill: read segment: %w", err)
	}
	st.key, st.value = key, value
	return true, nil
}

func (st *segStream) close() error {
	if st.fr != nil {
		st.fr.Close()
	}
	return st.rc.Close()
}

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
	// Compress DEFLATE-compresses intermediate merged segments.
	Compress bool
	// TmpPrefix namespaces intermediate segments in the store, unique
	// per reduce task attempt. Iterator.Close removes them.
	TmpPrefix string
	// Tracer and Parent, if set, record one span per merge pass under
	// the reduce task attempt's span.
	Tracer *trace.Tracer
	Parent *trace.Span
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
type Iterator struct {
	store RunStore
	h     mergeHeap
	tmp   []string
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
	it := &Iterator{store: store}

	// Intermediate passes: repeatedly merge the FanIn smallest segments
	// into one until a single streaming pass can take the rest.
	work := append([]Segment(nil), segs...)
	tmpIdx := 0
	for len(work) > fanIn {
		slices.SortFunc(work, func(a, b Segment) int { return cmp.Compare(a.RawBytes, b.RawBytes) })
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
		ok, err := st.advance()
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

// mergePass merges a batch of segments into one new segment.
func mergePass(store RunStore, batch []Segment, name string, opts MergeOptions) (Segment, error) {
	sp := opts.Tracer.Start(trace.CatMerge, fmt.Sprintf("merge-pass-%d", len(batch)), opts.Parent)
	defer sp.End()
	part, node := -1, -1
	if len(batch) > 0 {
		part = batch[0].Partition
	}
	sub, _, err := Merge(store, batch, MergeOptions{FanIn: len(batch)})
	if err != nil {
		return Segment{}, err
	}
	defer sub.Close()
	sw, err := newSegmentWriter(store, name, part, node, opts.Compress)
	if err != nil {
		return Segment{}, err
	}
	for {
		key, value, ok, err := sub.Next()
		if err != nil {
			sw.abort()
			return Segment{}, err
		}
		if !ok {
			break
		}
		if err := sw.append(key, value); err != nil {
			sw.abort()
			return Segment{}, err
		}
	}
	seg, err := sw.close()
	if err != nil {
		return Segment{}, err
	}
	sp.SetInt("segments", int64(len(batch)))
	sp.SetInt("records", seg.Records)
	sp.SetInt("raw_bytes", seg.RawBytes)
	return seg, nil
}

// Next returns the next record in (key, value) order. The returned
// slices remain valid after subsequent calls and are read-only: they may
// alias a stored object. ok is false when the stream is exhausted.
func (it *Iterator) Next() (key, value []byte, ok bool, err error) {
	if len(it.h) == 0 {
		return nil, nil, false, nil
	}
	st := it.h[0]
	key, value = st.key, st.value
	more, err := st.advance()
	if err != nil {
		return nil, nil, false, err
	}
	if more {
		heap.Fix(&it.h, 0)
	} else {
		heap.Pop(&it.h)
		if err := st.close(); err != nil {
			return nil, nil, false, err
		}
	}
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
	it.h = nil
	for _, name := range it.tmp {
		if err := it.store.Remove(name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	it.tmp = nil
	return firstErr
}
