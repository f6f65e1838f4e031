package rpcutil

import (
	"encoding/binary"
	"strings"
	"testing"
)

// TestReaderRoundTrip reads back one of everything the Append* functions
// and the varint encoders write.
func TestReaderRoundTrip(t *testing.T) {
	b := []byte{0x7f}
	b = AppendBool(b, true)
	b = binary.AppendUvarint(b, 1<<40)
	b = binary.AppendVarint(b, -5)
	b = binary.AppendVarint(b, 77)
	b = binary.AppendUvarint(b, 1<<32-1)
	b = AppendF64(b, 0.25)
	b = AppendString(b, "name")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBytes(b, nil)

	r := NewReader(b)
	if r.Byte("byte") != 0x7f || !r.Bool("bool") || r.Uvarint("uvarint") != 1<<40 ||
		r.Varint("varint") != -5 || r.Int("int") != 77 || r.Uint32("uint32") != 1<<32-1 ||
		r.F64("f64") != 0.25 || r.Str("str") != "name" {
		t.Fatalf("scalar mismatch (err %v)", r.Err())
	}
	kept := r.CopyBytes("bytes")
	if string(kept) != "\x01\x02\x03" || r.CopyBytes("empty") != nil {
		t.Fatalf("bytes mismatch (err %v)", r.Err())
	}
	if err := r.Finish("message"); err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] = 9 // CopyBytes detached its result from the input
	if kept[2] != 3 {
		t.Error("CopyBytes aliases the input")
	}
}

// TestReaderRejectsCorruptInput pins the three guarantees decoders lean
// on: the first error sticks and later reads return zero values, counts
// and lengths are bounded by the remaining input, and Finish refuses
// trailing bytes.
func TestReaderRejectsCorruptInput(t *testing.T) {
	r := NewReader([]byte{0x80}) // an unterminated varint
	if r.Uvarint("first") != 0 || r.Byte("after") != 0 || r.Str("after") != "" {
		t.Error("reads after an error returned data")
	}
	if err := r.Finish("message"); err == nil || !strings.Contains(err.Error(), "first") {
		t.Errorf("Finish = %v, want the first failure", err)
	}

	for name, read := range map[string]func(*Reader){
		"count":  func(r *Reader) { r.Count("n") },
		"bytes":  func(r *Reader) { r.Bytes("n") },
		"int":    func(r *Reader) { r.Int("n") },
		"uint32": func(r *Reader) { r.Uint32("n") },
		"f64":    func(r *Reader) { r.F64("n") },
	} {
		r := NewReader(binary.AppendUvarint(nil, 1<<40)) // far beyond the 6 bytes present
		if read(r); r.Err() == nil {
			t.Errorf("%s accepted an out-of-range value", name)
		}
	}

	r = NewReader([]byte{1, 2})
	r.Byte("only")
	if err := r.Finish("message"); err == nil || !strings.Contains(err.Error(), "1 trailing bytes after message") {
		t.Errorf("Finish = %v, want a trailing-bytes error", err)
	}
}
