package graph

import (
	"encoding/binary"
	"fmt"
)

// The binary codec gives vertex records a compact, deterministic wire
// format so the MapReduce engine's byte accounting (map-output bytes,
// shuffle bytes, DFS file sizes) measures what a real Hadoop deployment
// would move. Varints keep small IDs and unit capacities at 1 byte each,
// mirroring Hadoop's SequenceFile + Writable idiom.

// KeyBytes encodes a vertex ID as a 4-byte big-endian key so that byte-wise
// key ordering equals numeric ordering (the MR engine sorts keys
// lexicographically, as Hadoop does for BytesWritable).
func KeyBytes(v VertexID) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(v))
	return b[:]
}

// AppendKey appends the 4-byte key encoding of v to dst.
func AppendKey(dst []byte, v VertexID) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(v))
	return append(dst, b[:]...)
}

// DecodeKey decodes a 4-byte vertex key.
func DecodeKey(b []byte) (VertexID, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("graph: vertex key has %d bytes, want 4", len(b))
	}
	return VertexID(binary.BigEndian.Uint32(b)), nil
}

// MustDecodeKey decodes a 4-byte vertex key produced by KeyBytes. It is
// used on engine-internal paths where the key was produced by this
// package; malformed input indicates a bug, not bad user data.
func MustDecodeKey(b []byte) VertexID {
	v, err := DecodeKey(b)
	if err != nil {
		panic(err)
	}
	return v
}

func appendPathEdge(dst []byte, pe *PathEdge) []byte {
	dst = binary.AppendUvarint(dst, uint64(pe.ID))
	dst = binary.AppendUvarint(dst, uint64(pe.From))
	dst = binary.AppendUvarint(dst, uint64(pe.To))
	dst = binary.AppendVarint(dst, pe.Flow)
	dst = binary.AppendVarint(dst, pe.Cap)
	if pe.Fwd {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return dst
}

func appendPath(dst []byte, p *ExcessPath) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p.Edges)))
	for i := range p.Edges {
		dst = appendPathEdge(dst, &p.Edges[i])
	}
	return dst
}

func appendPaths(dst []byte, ps []ExcessPath) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ps)))
	for i := range ps {
		dst = appendPath(dst, &ps[i])
	}
	return dst
}

// AppendValue appends the wire encoding of v to dst and returns the
// extended slice. Encoding a value and decoding the result yields an
// equal value.
func AppendValue(dst []byte, v *VertexValue) []byte {
	dst = appendPaths(dst, v.Su)
	dst = appendPaths(dst, v.Tu)
	dst = binary.AppendUvarint(dst, uint64(len(v.Eu)))
	for i := range v.Eu {
		e := &v.Eu[i]
		dst = binary.AppendUvarint(dst, uint64(e.To))
		dst = binary.AppendUvarint(dst, uint64(e.ID))
		dst = binary.AppendVarint(dst, e.Flow)
		dst = binary.AppendVarint(dst, e.Cap)
		dst = binary.AppendVarint(dst, e.RevCap)
		if e.Fwd {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(v.SentS)))
	for _, s := range v.SentS {
		dst = binary.AppendUvarint(dst, s)
	}
	dst = binary.AppendUvarint(dst, uint64(len(v.SentT)))
	for _, s := range v.SentT {
		dst = binary.AppendUvarint(dst, s)
	}
	return dst
}

// EncodeValue returns the wire encoding of v in a fresh buffer.
func EncodeValue(v *VertexValue) []byte {
	return AppendValue(make([]byte, 0, 64), v)
}

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("graph: truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return x
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("graph: truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return x
}

func (d *decoder) boolByte() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.err = fmt.Errorf("graph: truncated bool at offset %d", d.off)
		return false
	}
	v := d.b[d.off]
	d.off++
	return v != 0
}

// maxCount bounds decoded list lengths against the remaining buffer so a
// corrupt length prefix cannot trigger a huge allocation.
func (d *decoder) count(perItemMin int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if remaining := len(d.b) - d.off; n > uint64(remaining/perItemMin)+1 {
		d.err = fmt.Errorf("graph: implausible count %d at offset %d", n, d.off)
		return 0
	}
	return int(n)
}

func (d *decoder) path(p *ExcessPath) {
	n := d.count(6)
	if d.err != nil {
		return
	}
	if cap(p.Edges) < n {
		p.Edges = make([]PathEdge, n)
	} else {
		p.Edges = p.Edges[:n]
	}
	for i := 0; i < n; i++ {
		pe := &p.Edges[i]
		pe.ID = EdgeID(d.uvarint())
		pe.From = VertexID(d.uvarint())
		pe.To = VertexID(d.uvarint())
		pe.Flow = d.varint()
		pe.Cap = d.varint()
		pe.Fwd = d.boolByte()
	}
}

func (d *decoder) paths(ps []ExcessPath) []ExcessPath {
	n := d.count(1)
	if d.err != nil {
		return ps[:0]
	}
	if cap(ps) < n {
		grown := make([]ExcessPath, n)
		copy(grown, ps[:cap(ps)])
		ps = grown
	} else {
		ps = ps[:n]
	}
	for i := 0; i < n; i++ {
		d.path(&ps[i])
	}
	return ps
}

// DecodeValueInto decodes data into v, reusing v's backing storage where
// possible (call v.Reset or rely on DecodeValueInto overwriting lengths).
// This is the allocation-free decode path used by FF4 and later variants.
func DecodeValueInto(data []byte, v *VertexValue) error {
	d := decoder{b: data}
	v.Su = d.paths(v.Su)
	v.Tu = d.paths(v.Tu)

	n := d.count(5)
	if d.err == nil {
		if cap(v.Eu) < n {
			v.Eu = make([]Edge, n)
		} else {
			v.Eu = v.Eu[:n]
		}
		for i := 0; i < n; i++ {
			e := &v.Eu[i]
			e.To = VertexID(d.uvarint())
			e.ID = EdgeID(d.uvarint())
			e.Flow = d.varint()
			e.Cap = d.varint()
			e.RevCap = d.varint()
			e.Fwd = d.boolByte()
		}
	}

	for _, dst := range []*[]uint64{&v.SentS, &v.SentT} {
		n := d.count(1)
		if d.err != nil {
			break
		}
		if cap(*dst) < n {
			*dst = make([]uint64, n)
		} else {
			*dst = (*dst)[:n]
		}
		for i := 0; i < n; i++ {
			(*dst)[i] = d.uvarint()
		}
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(data) {
		return fmt.Errorf("graph: %d trailing bytes after vertex value", len(data)-d.off)
	}
	return nil
}

// DecodeValue decodes data into a freshly allocated VertexValue.
func DecodeValue(data []byte) (*VertexValue, error) {
	v := new(VertexValue)
	if err := DecodeValueInto(data, v); err != nil {
		return nil, err
	}
	return v, nil
}

// AppendPath appends the standalone wire encoding of an excess path to
// dst. The FF2+ aug_proc RPC protocol ships candidate augmenting paths in
// this format.
func AppendPath(dst []byte, p *ExcessPath) []byte { return appendPath(dst, p) }

// EncodePath returns the standalone wire encoding of p.
func EncodePath(p *ExcessPath) []byte { return appendPath(nil, p) }

// DecodePath decodes a standalone path produced by EncodePath.
func DecodePath(data []byte) (ExcessPath, error) {
	var p ExcessPath
	if err := DecodePathInto(data, &p); err != nil {
		return ExcessPath{}, err
	}
	return p, nil
}

// DecodePathInto is DecodePath into p, reusing p's Edges array when it is
// large enough, so a consumer that does not keep the paths it decodes
// (aug_proc's accept loop) needs one path for all of them. On error p is
// left empty.
func DecodePathInto(data []byte, p *ExcessPath) error {
	d := decoder{b: data}
	d.path(p)
	if d.err == nil && d.off != len(data) {
		d.err = fmt.Errorf("graph: %d trailing bytes after path", len(data)-d.off)
	}
	if d.err != nil {
		p.Edges = p.Edges[:0]
	}
	return d.err
}
