// Package spill is the shuffle subsystem: Hadoop's external sort/merge,
// scaled down to this repo's emulated MapReduce runtime. Every job's
// records cross from map to reduce through it; a job without a memory
// budget is the case where each buffer is written once, to a MemRunStore.
//
// A map task emits into a Writer with a bounded memory budget. When the
// buffered framed bytes reach the budget, the buffer is sorted per
// partition, the job's combiner (if any) is applied, and the spill is
// written as one object to a RunStore — the tasktracker's local disk in
// Hadoop, a temp dir (DiskRunStore) or memory (MemRunStore) here. The
// object is Hadoop's spill file: each partition's records are one framed
// segment, stored as framed, the segments lie back to back, and a
// Segment's Offset and Bytes are its entry in the spill's index. Reducers
// stream their partition through a k-way merge Iterator over all tasks'
// segments, a window of each at a time, instead of materializing the
// partition in memory; when the segment count exceeds the merge fan-in,
// intermediate merge passes combine segments first, exactly as Hadoop's
// reduce-side merger bounds its open-file count.
//
// Record framing (format.go) is the canonical implementation shared
// with the DFS SequenceFile emulation, so on-disk bytes and shuffle
// counter accounting cannot diverge.
package spill

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"ffmr/internal/trace"
)

// DefaultMergeFanIn bounds how many segments one merge pass reads
// (Hadoop's io.sort.factor, default 10 there).
const DefaultMergeFanIn = 16

// Segment is one sorted run of framed records for a single partition,
// stored in a RunStore as the range [Offset, Offset+Bytes) of an object.
type Segment struct {
	// Name is the store object holding the segment. The segments of one
	// spill, a partition each, share an object.
	Name string
	// Offset is where the segment starts in the object.
	Offset int64
	// Partition is the reduce partition the records hash to.
	Partition int
	// Records is the number of framed records in the segment.
	Records int64
	// Bytes is the length of the segment's range in the object: its
	// framed records, the bytes the shuffle accounts for.
	Bytes int64
	// Node is the simulated cluster node of the producing map task, used
	// for inter-node shuffle accounting (-1 for merged segments, which
	// mix producers; accounting happens before merging).
	Node int
}

// Output is the result of one map task attempt's spilled output.
type Output struct {
	// Node is the producing task's simulated node.
	Node int
	// Parts holds each partition's segments in spill order.
	Parts [][]Segment
	// Spills is the number of spill events (sort+write cycles).
	Spills int64
	// Bytes totals the segments' sizes.
	Bytes int64
	// Records is the number of records written (post-combine).
	Records int64
	// MaxFrame is the largest single framed record written.
	MaxFrame int64
}

// Config parameterizes a Writer.
type Config struct {
	// Partitions is the number of reduce partitions (required).
	Partitions int
	// MemoryBudget is the framed-byte threshold that triggers a spill
	// (required, > 0).
	MemoryBudget int64
	// Store receives the spill segments (required).
	Store RunStore
	// NamePrefix namespaces this task attempt's segments in the store,
	// e.g. "job/map-00003/a0/". Abort removes everything under it.
	NamePrefix string
	// Node is the producing task's simulated node.
	Node int
	// Combine, if non-nil, is applied per spill to each key's values
	// (Hadoop runs the combiner on every spill, so a multi-spill task
	// combines each buffer independently). The key and value slices alias
	// the writer's internal buffer and are recycled after the spill:
	// combiners must not retain them past the call.
	Combine func(key []byte, values [][]byte) ([][]byte, error)
	// OnCombine, if non-nil, observes each combine application's input
	// and output record counts (for the engine's combine counters).
	OnCombine func(in, out int64)
	// FailSpill, if non-nil, is consulted before writing spill #i; a
	// non-nil error aborts the task attempt (fault injection).
	FailSpill func(spill int) error
	// Tracer and Parent, if set, record one span per spill under the
	// producing task attempt's span.
	Tracer *trace.Tracer
	Parent *trace.Span
}

// rec is one buffered record's index entry, Hadoop's kvmeta: its key and
// value lie back to back at off in arena chunk chunk. It is sixteen bytes
// and holds no pointers, so the GC does not scan the index.
type rec struct{ chunk, off, klen, vlen uint32 }

// arenaChunkSize is the bump allocator's chunk granularity. 64KiB keeps
// chunks comfortably reusable through sync.Pool while amortizing the
// per-chunk bookkeeping over thousands of typical records.
const arenaChunkSize = 64 << 10

var arenaPool = sync.Pool{New: func() any {
	b := make([]byte, 0, arenaChunkSize)
	return &b
}}

// arena is a bump allocator for buffered record bytes (Hadoop's kvbuffer):
// put copies a record's key and value into pooled chunks with one copy
// each, so a steady-state Add allocates nothing, and hands back the rec
// that locates them. A chunk never grows past its capacity, so the bytes
// of a record stay where put left them until reset, which is only called
// once no rec is in use (after a spill consumed the buffer).
type arena struct {
	chunks []*[]byte
}

// put copies key and value back to back into the arena. A record that does
// not fit in the current chunk starts a new one, so no record straddles
// two; one larger than a chunk gets a dedicated chunk of its own size.
func (a *arena) put(key, value []byte) rec {
	n := len(key) + len(value)
	last := len(a.chunks) - 1
	if last < 0 || cap(*a.chunks[last])-len(*a.chunks[last]) < n {
		var c *[]byte
		if n > arenaChunkSize {
			// Oversize record: a dedicated exact-cap chunk, never pooled.
			nc := make([]byte, 0, n)
			c = &nc
		} else {
			c = arenaPool.Get().(*[]byte)
		}
		a.chunks = append(a.chunks, c)
		last++
	}
	c := a.chunks[last]
	off := len(*c)
	*c = append(append(*c, key...), value...)
	return rec{chunk: uint32(last), off: uint32(off), klen: uint32(len(key)), vlen: uint32(len(value))}
}

// key and value return r's bytes, capacity clipped so an append through
// them can never clobber a neighbouring record.
func (a *arena) key(r rec) []byte {
	end := r.off + r.klen
	return (*a.chunks[r.chunk])[r.off:end:end]
}

func (a *arena) value(r rec) []byte {
	start := r.off + r.klen
	end := start + r.vlen
	return (*a.chunks[r.chunk])[start:end:end]
}

// reset returns regular chunks to the pool and drops oversize ones. The
// caller must have dropped every rec put handed out.
func (a *arena) reset() {
	for _, c := range a.chunks {
		if cap(*c) == arenaChunkSize {
			*c = (*c)[:0]
			arenaPool.Put(c)
		}
	}
	clear(a.chunks)
	a.chunks = a.chunks[:0]
}

// sortRecs orders records by (key, value), the engine's shuffle order.
func (a *arena) sortRecs(recs []rec) {
	slices.SortFunc(recs, func(x, y rec) int {
		if cmp := bytes.Compare(a.key(x), a.key(y)); cmp != 0 {
			return cmp
		}
		return bytes.Compare(a.value(x), a.value(y))
	})
}

// sortBuffer is what a Writer buffers records in: the arena holding their
// bytes and the per-partition index locating them. It goes back to
// sortBufferPool when the writer closes, so a process's next map task
// starts with every partition's index and the arena's chunk list grown to
// what an earlier task needed; a writer that fails drops it to the GC.
type sortBuffer struct {
	parts  [][]rec
	sorted [][]rec // per partition, what the spill in progress writes
	buf    arena
}

var sortBufferPool = sync.Pool{New: func() any { return new(sortBuffer) }}

// getSortBuffer returns a pooled, empty buffer of n partitions. Partitions
// past n that an earlier job used keep their storage for a later one.
func getSortBuffer(n int) *sortBuffer {
	b := sortBufferPool.Get().(*sortBuffer)
	if cap(b.parts) < n {
		parts := make([][]rec, n)
		copy(parts, b.parts[:cap(b.parts)])
		b.parts, b.sorted = parts, make([][]rec, n)
	}
	b.parts, b.sorted = b.parts[:n], b.sorted[:n]
	for p := range b.parts {
		b.parts[p] = b.parts[p][:0]
	}
	return b
}

// Writer is the map side of the out-of-core shuffle: a bounded
// in-memory buffer that spills sorted runs to the store. Not safe for
// concurrent use; each map task attempt owns one Writer.
type Writer struct {
	cfg         Config
	*sortBuffer // nil once closed
	buffered    int64
	spillIdx    int
	out         Output
	err         error
	closed      bool
}

// NewWriter creates a Writer for one map task attempt.
func NewWriter(cfg Config) (*Writer, error) {
	if cfg.Partitions <= 0 {
		return nil, fmt.Errorf("spill: writer needs at least one partition")
	}
	if cfg.MemoryBudget <= 0 {
		return nil, fmt.Errorf("spill: writer needs a positive memory budget")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("spill: writer needs a run store")
	}
	return &Writer{
		cfg:        cfg,
		sortBuffer: getSortBuffer(cfg.Partitions),
		out:        Output{Node: cfg.Node, Parts: make([][]Segment, cfg.Partitions)},
	}, nil
}

// Add buffers one record for a partition, spilling when the buffered
// framed bytes reach the memory budget. Key and value are copied.
func (w *Writer) Add(partition int, key, value []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("spill: Add after Close")
	}
	if partition < 0 || partition >= len(w.parts) {
		return w.fail(fmt.Errorf("spill: partition %d out of range [0,%d)", partition, len(w.parts)))
	}
	w.parts[partition] = append(w.parts[partition], w.buf.put(key, value))
	w.buffered += FramedSize(key, value)
	if w.buffered >= w.cfg.MemoryBudget {
		return w.spill()
	}
	return nil
}

// fail poisons the writer with its first error.
func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// spill sorts, combines and writes the current buffer as one store
// object holding a segment per non-empty partition.
func (w *Writer) spill() error {
	idx := w.spillIdx
	w.spillIdx++
	if w.cfg.FailSpill != nil {
		if err := w.cfg.FailSpill(idx); err != nil {
			return w.fail(fmt.Errorf("spill %d: %w", idx, err))
		}
	}
	sp := w.cfg.Tracer.Start(trace.CatSpill, fmt.Sprintf("spill-%03d", idx), w.cfg.Parent)
	defer sp.End()

	// Sort and combine first: only then is the object's size known, and a
	// MemRunStore allocates it once.
	var raw int64
	for p, recs := range w.parts {
		if len(recs) == 0 {
			continue
		}
		w.buf.sortRecs(recs)
		if w.cfg.Combine != nil {
			combined, err := w.combine(recs)
			if err != nil {
				return w.fail(err)
			}
			recs = combined
		}
		for _, r := range recs {
			sz := FramedSize(w.buf.key(r), w.buf.value(r))
			raw += sz
			w.out.MaxFrame = max(w.out.MaxFrame, sz)
		}
		w.sorted[p] = recs
	}

	ow, err := createObject(w.cfg.Store, fmt.Sprintf("%sspill-%05d", w.cfg.NamePrefix, idx), raw)
	if err != nil {
		return w.fail(err)
	}
	var spillRecs, partitions int64
	for p, recs := range w.sorted {
		if len(w.parts[p]) == 0 {
			continue
		}
		ow.begin(p, w.cfg.Node)
		for _, r := range recs {
			if err := ow.append(w.buf.key(r), w.buf.value(r)); err != nil {
				ow.abort()
				return w.fail(err)
			}
		}
		seg, err := ow.end()
		if err != nil {
			ow.abort()
			return w.fail(err)
		}
		w.out.Parts[p] = append(w.out.Parts[p], seg)
		spillRecs += seg.Records
		partitions++
		w.sorted[p] = nil
		w.parts[p] = w.parts[p][:0]
	}
	if err := ow.close(); err != nil {
		return w.fail(err)
	}
	w.out.Bytes += raw
	w.out.Records += spillRecs
	w.buffered = 0
	// Every buffered record has been written out (or combined away), so
	// nothing aliases arena memory anymore; recycle the chunks. Failure
	// paths skip this — the poisoned writer just lets the GC collect them.
	w.buf.reset()
	w.out.Spills++
	sp.SetInt("records", spillRecs)
	sp.SetInt("raw_bytes", raw)
	sp.SetInt("objects", 1)
	sp.SetInt("partitions", partitions)
	return nil
}

// combine applies the configured combiner to each key group of a sorted
// buffer, returning the replacement records. The combiner's output is put
// in the arena like any added record; the records it replaces stay there,
// unused, until the spill resets the arena.
func (w *Writer) combine(recs []rec) ([]rec, error) {
	combined := make([]rec, 0, len(recs))
	var group [][]byte
	var inRecs, outRecs int64
	for i := 0; i < len(recs); {
		key := w.buf.key(recs[i])
		j := i
		group = group[:0]
		for ; j < len(recs) && bytes.Equal(w.buf.key(recs[j]), key); j++ {
			group = append(group, w.buf.value(recs[j]))
		}
		inRecs += int64(len(group))
		out, err := w.cfg.Combine(key, group)
		if err != nil {
			return nil, err
		}
		outRecs += int64(len(out))
		for _, v := range out {
			combined = append(combined, w.buf.put(key, v))
		}
		i = j
	}
	// Combiner output order within a key is implementation-defined;
	// restore shuffle order so segments stay internally sorted.
	w.buf.sortRecs(combined)
	if w.cfg.OnCombine != nil {
		w.cfg.OnCombine(inRecs, outRecs)
	}
	return combined, nil
}

// Close flushes any buffered records as a final spill and returns the
// task attempt's spilled output. The Writer is unusable afterwards.
func (w *Writer) Close() (*Output, error) {
	if w.err != nil {
		return nil, w.err
	}
	if w.closed {
		return nil, fmt.Errorf("spill: double Close")
	}
	w.closed = true
	if w.buffered > 0 {
		if err := w.spill(); err != nil {
			return nil, err
		}
	}
	// Every spill emptied the index and the arena, and no segment points
	// into either.
	sortBufferPool.Put(w.sortBuffer)
	w.sortBuffer = nil
	return &w.out, nil
}

// Abort discards everything this writer put in the store (a failed task
// attempt's partial spill state, which Hadoop likewise deletes before
// retrying the task).
func (w *Writer) Abort() {
	w.cfg.Store.RemovePrefix(w.cfg.NamePrefix)
}
