package dfs

import (
	"fmt"
	"slices"

	"ffmr/internal/spill"
)

// SequenceFile-style record framing: the paper stores the graph in HDFS
// "in SequenceFile format as a list of vertices". Records are
// length-prefixed <key, value> byte-string pairs:
//
//	uvarint keyLen | key bytes | uvarint valueLen | value bytes
//
// The framing is self-contained per record so a reader can stream records
// without knowing the payload schema. The encoding itself lives in the
// spill package (the out-of-core shuffle shares it); this file is the
// DFS-facing veneer.

// RecordWriter accumulates framed records into a buffer destined for one
// DFS file. The zero value is ready to use.
type RecordWriter struct {
	buf     []byte
	records int
}

// Append adds one record.
func (w *RecordWriter) Append(key, value []byte) {
	w.buf = spill.AppendFrame(w.buf, key, value)
	w.records++
}

// Grow makes room for n more encoded bytes, so a writer whose final size
// is known in advance allocates its buffer once instead of doubling up to
// it.
func (w *RecordWriter) Grow(n int) {
	w.buf = slices.Grow(w.buf, n)
}

// Len returns the current encoded size in bytes.
func (w *RecordWriter) Len() int { return len(w.buf) }

// Records returns the number of records appended so far.
func (w *RecordWriter) Records() int { return w.records }

// Bytes returns the encoded file contents. The slice aliases the writer's
// buffer; write it to the FS before appending more records.
func (w *RecordWriter) Bytes() []byte { return w.buf }

// Reset clears the writer for reuse, retaining capacity.
func (w *RecordWriter) Reset() {
	w.buf = w.buf[:0]
	w.records = 0
}

// RecordReader streams framed records from an encoded file.
type RecordReader struct {
	data []byte
	off  int
}

// NewRecordReader wraps encoded file contents.
func NewRecordReader(data []byte) *RecordReader {
	return &RecordReader{data: data}
}

// Next returns the next record. The returned slices alias the underlying
// file data and must not be modified. ok is false at end of file.
func (r *RecordReader) Next() (key, value []byte, ok bool, err error) {
	if r.off >= len(r.data) {
		return nil, nil, false, nil
	}
	key, value, next, err := spill.ReadFrame(r.data, r.off)
	if err != nil {
		return nil, nil, false, fmt.Errorf("dfs: %w", err)
	}
	r.off = next
	return key, value, true, nil
}
