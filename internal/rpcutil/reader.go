package rpcutil

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the one cursor every hand-framed message in the repo is
// written and read with (DESIGN.md §13): the Append* functions follow the
// binary.AppendUvarint convention so encoders can target pooled buffers,
// and Reader is their bounds-checked inverse.

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendBool appends a boolean as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendF64 appends a float64 as its eight little-endian bits.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// Reader is a bounds-checked cursor over an encoded message. Every read
// after an error returns a zero value, so decode paths need one error
// check at the end (Err or Finish); no input can make it panic or
// allocate more than the input's own length (Count validates collection
// lengths against the remaining bytes). The what arguments name the
// field in the error.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Fail records a corrupt-input error at the current offset, unless an
// earlier one is already recorded.
func (r *Reader) Fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("rpcutil: corrupt %s at offset %d", what, r.off)
	}
}

// Err returns the first error any read recorded.
func (r *Reader) Err() error { return r.err }

// Finish returns the first recorded error, or an error if input remains
// after the message named what.
func (r *Reader) Finish(what string) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("rpcutil: %d trailing bytes after %s", len(r.b)-r.off, what)
	}
	return nil
}

// Byte reads one byte.
func (r *Reader) Byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.Fail(what)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads a boolean written by AppendBool.
func (r *Reader) Bool(what string) bool { return r.Byte(what) != 0 }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail(what)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.Fail(what)
		return 0
	}
	r.off += n
	return v
}

// Int reads a varint that must fit a non-negative int32.
func (r *Reader) Int(what string) int {
	v := r.Varint(what)
	if v < 0 || v > math.MaxInt32 {
		r.Fail(what)
		return 0
	}
	return int(v)
}

// Uint32 reads an unsigned varint that must fit 32 bits (vertex and edge
// identifiers).
func (r *Reader) Uint32(what string) uint32 {
	v := r.Uvarint(what)
	if v > math.MaxUint32 {
		r.Fail(what)
		return 0
	}
	return uint32(v)
}

// F64 reads a float64 written by AppendF64.
func (r *Reader) F64(what string) float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.Fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// Count reads a collection length, bounded by the remaining input (each
// element takes at least one byte), so corrupt input cannot force a huge
// allocation.
func (r *Reader) Count(what string) int {
	n := r.Uvarint(what)
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off) {
		r.Fail(what)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte field. The result aliases the
// input; CopyBytes detaches it.
func (r *Reader) Bytes(what string) []byte {
	n := r.Count(what)
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// CopyBytes reads a length-prefixed byte field into a fresh slice (nil
// for empty), for DecodeFrame implementations that retain the field past
// the codec's pooled buffer.
func (r *Reader) CopyBytes(what string) []byte {
	p := r.Bytes(what)
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

// Str reads a length-prefixed string.
func (r *Reader) Str(what string) string { return string(r.Bytes(what)) }
