package spill

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the single canonical implementation of the repo's record
// framing. The DFS SequenceFile emulation (dfs.RecordWriter/RecordReader)
// and the MapReduce engine's shuffle accounting both delegate here, so
// the bytes written to disk, the bytes counted by the shuffle, and the
// bytes spilled by this package cannot diverge.
//
// A frame is a length-prefixed <key, value> byte-string pair:
//
//	uvarint keyLen | key bytes | uvarint valueLen | value bytes
//
// Frames are self-contained: a reader streams records without knowing
// the payload schema.

// AppendFrame appends one framed record to buf and returns the extended
// slice (append-style API, like binary.AppendUvarint).
func AppendFrame(buf, key, value []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(value)))
	buf = append(buf, value...)
	return buf
}

// FramedSize is the exact encoded size of one record's frame — the
// number of bytes AppendFrame would add.
func FramedSize(key, value []byte) int64 { return int64(FrameLen(len(key), len(value))) }

// FrameLen is FramedSize for a record of the given key and value
// lengths.
func FrameLen(keyLen, valueLen int) int {
	return UvarintLen(uint64(keyLen)) + keyLen + UvarintLen(uint64(valueLen)) + valueLen
}

// UvarintLen is the encoded size of x as a uvarint.
func UvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// ReadFrame decodes the frame starting at data[off:], returning the key
// and value (aliasing data) plus the offset of the next frame.
func ReadFrame(data []byte, off int) (key, value []byte, next int, err error) {
	key, value, size := parseFrame(data[off:])
	switch {
	case size == 0:
		return nil, nil, 0, fmt.Errorf("corrupt record length at offset %d", off)
	case size > len(data)-off:
		return nil, nil, 0, fmt.Errorf("truncated record at offset %d (want at least %d bytes, have %d)",
			off, size, len(data)-off)
	}
	return key, value, off + size, nil
}

// parseFrame decodes the frame at the head of data without allocating,
// errors included. size is the frame's encoded length when all of it is
// present (size <= len(data)); a lower bound on that length, greater than
// len(data), when data ends inside the frame; and 0 when a length prefix
// is malformed.
func parseFrame(data []byte) (key, value []byte, size int) {
	key, off := parseChunk(data, 0)
	if off <= 0 || off > len(data) {
		return nil, nil, off
	}
	value, off = parseChunk(data, off)
	return key, value, off
}

// parseChunk decodes one length-prefixed byte string at data[off:] and
// returns it with the offset that follows it, under parseFrame's size
// convention: past len(data) when the chunk is cut, 0 when malformed.
func parseChunk(data []byte, off int) ([]byte, int) {
	n, sz := binary.Uvarint(data[off:])
	if sz < 0 {
		return nil, 0
	}
	if sz == 0 {
		return nil, len(data) + 1
	}
	off += sz
	if n > uint64(len(data)-off) {
		// A hostile prefix can promise more than an int holds; saturate.
		return nil, off + int(min(n, uint64(math.MaxInt-off)))
	}
	return data[off : off+int(n)], off + int(n)
}
