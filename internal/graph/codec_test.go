package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKeyRoundTrip(t *testing.T) {
	for _, v := range []VertexID{0, 1, 255, 65536, 1<<32 - 1} {
		got, err := DecodeKey(KeyBytes(v))
		if err != nil {
			t.Fatalf("DecodeKey(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("round trip %d -> %d", v, got)
		}
	}
	if _, err := DecodeKey([]byte{1, 2, 3}); err == nil {
		t.Error("short key accepted")
	}
}

func TestKeyOrderingMatchesNumeric(t *testing.T) {
	// The MR engine sorts keys as bytes; vertex order must survive.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := VertexID(rng.Uint32())
		b := VertexID(rng.Uint32())
		byteLess := bytes.Compare(KeyBytes(a), KeyBytes(b)) < 0
		if byteLess != (a < b) {
			t.Fatalf("byte order disagrees with numeric order for %d, %d", a, b)
		}
	}
}

func randomPath(rng *rand.Rand, maxHops int) ExcessPath {
	n := rng.Intn(maxHops + 1)
	var p ExcessPath
	for i := 0; i < n; i++ {
		p.Edges = append(p.Edges, PathEdge{
			ID:   EdgeID(rng.Uint32()),
			From: VertexID(rng.Uint32()),
			To:   VertexID(rng.Uint32()),
			Flow: rng.Int63n(2001) - 1000,
			Cap:  rng.Int63n(1000),
			Fwd:  rng.Intn(2) == 0,
		})
	}
	return p
}

func randomValue(rng *rand.Rand) *VertexValue {
	v := &VertexValue{}
	for i := rng.Intn(4); i > 0; i-- {
		v.Su = append(v.Su, randomPath(rng, 6))
	}
	for i := rng.Intn(4); i > 0; i-- {
		v.Tu = append(v.Tu, randomPath(rng, 6))
	}
	for i := rng.Intn(8); i > 0; i-- {
		v.Eu = append(v.Eu, Edge{
			To:     VertexID(rng.Uint32()),
			ID:     EdgeID(rng.Uint32()),
			Flow:   rng.Int63n(2001) - 1000,
			Cap:    rng.Int63n(1000),
			RevCap: rng.Int63n(1000),
			Fwd:    rng.Intn(2) == 0,
		})
	}
	if rng.Intn(2) == 0 {
		for range v.Eu {
			v.SentS = append(v.SentS, rng.Uint64())
			v.SentT = append(v.SentT, rng.Uint64())
		}
	}
	return v
}

// valuesEqual compares semantically (nil and empty slices are equal).
func valuesEqual(a, b *VertexValue) bool {
	if len(a.Su) != len(b.Su) || len(a.Tu) != len(b.Tu) || len(a.Eu) != len(b.Eu) ||
		len(a.SentS) != len(b.SentS) || len(a.SentT) != len(b.SentT) {
		return false
	}
	for i := range a.Su {
		if !pathsEqual(&a.Su[i], &b.Su[i]) {
			return false
		}
	}
	for i := range a.Tu {
		if !pathsEqual(&a.Tu[i], &b.Tu[i]) {
			return false
		}
	}
	for i := range a.Eu {
		if a.Eu[i] != b.Eu[i] {
			return false
		}
	}
	for i := range a.SentS {
		if a.SentS[i] != b.SentS[i] {
			return false
		}
	}
	for i := range a.SentT {
		if a.SentT[i] != b.SentT[i] {
			return false
		}
	}
	return true
}

func pathsEqual(a, b *ExcessPath) bool {
	if len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}

func TestValueRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		v := randomValue(rng)
		enc := EncodeValue(v)
		got, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !valuesEqual(v, got) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", v, got)
		}
	}
}

func TestDecodeIntoReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var reused VertexValue
	for i := 0; i < 200; i++ {
		v := randomValue(rng)
		enc := EncodeValue(v)
		reused.Reset()
		if err := DecodeValueInto(enc, &reused); err != nil {
			t.Fatalf("decode into: %v", err)
		}
		if !valuesEqual(v, &reused) {
			t.Fatalf("reuse decode mismatch at iteration %d", i)
		}
	}
}

// TestDecodeIntoNoAliasing guards against the FF4 corruption class: after
// decoding into reused storage, every stored path must own its backing
// array exclusively — mutating one path must not change another.
func TestDecodeIntoNoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var reused VertexValue
	for i := 0; i < 300; i++ {
		v := randomValue(rng)
		enc := EncodeValue(v)
		reused.Reset()
		if err := DecodeValueInto(enc, &reused); err != nil {
			t.Fatalf("decode into: %v", err)
		}
		// Simulate the saturated-path compaction the algorithm performs,
		// then decode the next record and verify integrity.
		if len(reused.Su) > 1 {
			reused.Su = reused.Su[:len(reused.Su)-1]
		}
		for pi := range reused.Su {
			for ei := range reused.Su[pi].Edges {
				reused.Su[pi].Edges[ei].Flow = -99999
			}
		}
		w := randomValue(rng)
		enc2 := EncodeValue(w)
		reused.Reset()
		if err := DecodeValueInto(enc2, &reused); err != nil {
			t.Fatalf("second decode: %v", err)
		}
		if !valuesEqual(w, &reused) {
			t.Fatalf("aliasing corruption at iteration %d", i)
		}
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := randomValue(rng)
	enc := EncodeValue(v)

	// Truncations at every position must error or be detected, never
	// panic or silently succeed with trailing garbage semantics.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeValue(enc[:cut]); err == nil {
			// An empty prefix may decode as an empty value only if the
			// original was empty too; anything else must fail.
			if cut != len(enc) && !valuesEqual(v, &VertexValue{}) {
				t.Fatalf("truncation at %d silently accepted", cut)
			}
		}
	}
	// Trailing garbage must be rejected.
	if _, err := DecodeValue(append(append([]byte(nil), enc...), 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestDecoderVarintsMatchBinary holds the decoder's varint reads, one-byte
// fast path included, to encoding/binary's on every one-byte input and on
// multi-byte, overlong, truncated and overflowing ones, each read at
// several offsets and with and without a byte after it: the same value and
// the same offset after it, or, where binary reads nothing, an error
// naming the offset the read started at.
func TestDecoderVarintsMatchBinary(t *testing.T) {
	var inputs [][]byte
	for b := 0; b < 256; b++ {
		inputs = append(inputs, []byte{byte(b)})
	}
	for _, x := range []uint64{128, 300, 16383, 16384, 1<<21 - 1, 1 << 35, 1<<63 + 5, math.MaxUint64} {
		inputs = append(inputs, binary.AppendUvarint(nil, x))
	}
	for _, x := range []int64{64, -65, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		inputs = append(inputs, binary.AppendVarint(nil, x))
	}
	inputs = append(inputs,
		[]byte{0x80, 0x00},                           // overlong zero
		[]byte{0xff, 0x80, 0x00},                     // overlong 127
		[]byte{0x80},                                 // truncated
		[]byte{0xff, 0xff},                           // truncated
		append(bytes.Repeat([]byte{0xff}, 9), 0x02),  // overflow: a tenth byte above 1
		append(bytes.Repeat([]byte{0x80}, 10), 0x00), // overflow: eleven bytes
		nil, // nothing left to read
	)
	for _, in := range inputs {
		for _, lead := range [][]byte{nil, {0x05}, {0x81, 0x01}} {
			for _, tail := range [][]byte{nil, {0x01}} {
				buf := append(append(append([]byte(nil), lead...), in...), tail...)
				off := len(lead)
				check := func(kind string, got, want uint64, d *decoder, n int) {
					t.Helper()
					if n > 0 {
						if d.err != nil || got != want || d.off != off+n {
							t.Errorf("%s % x at %d: %d, offset %d, err %v; binary reads %d, %d bytes",
								kind, buf, off, got, d.off, d.err, want, n)
						}
						return
					}
					wantErr := fmt.Sprintf("graph: truncated %s at offset %d", kind, off)
					if d.err == nil || d.err.Error() != wantErr || d.off != off {
						t.Errorf("%s % x at %d: %d, offset %d, err %v; want error %q", kind, buf, off, got, d.off, d.err, wantErr)
					}
				}
				d := decoder{b: buf, off: off}
				ux, n := binary.Uvarint(buf[off:])
				check("uvarint", d.uvarint(), ux, &d, n)
				d = decoder{b: buf, off: off}
				x, n := binary.Varint(buf[off:])
				check("varint", uint64(d.varint()), uint64(x), &d, n)
			}
		}
	}
}

func TestIsQuietMaster(t *testing.T) {
	edges := []Edge{{To: 1, ID: 200, Cap: 1, RevCap: 1, Fwd: true}}
	path := []ExcessPath{{Edges: []PathEdge{{ID: 200, From: 0, To: 1, Cap: 1, Fwd: true}}}}
	for _, tc := range []struct {
		name string
		data []byte
		want bool
	}{
		{"edges only", EncodeValue(&VertexValue{Eu: edges}), true},
		{"edges and sent flags", EncodeValue(&VertexValue{Eu: edges, SentS: []uint64{7}, SentT: []uint64{0}}), true},
		{"a source path", EncodeValue(&VertexValue{Eu: edges, Su: path}), false},
		{"a sink path", EncodeValue(&VertexValue{Eu: edges, Tu: path}), false},
		{"no edges", EncodeValue(&VertexValue{}), false},
		{"overlong zero edge count", []byte{0, 0, 0x80, 0x00, 0, 0}, false},
		{"truncated edge count", []byte{0, 0, 0x80}, false},
		{"two bytes", []byte{0, 0}, false},
	} {
		if got := IsQuietMaster(tc.data); got != tc.want {
			t.Errorf("%s (% x): %v, want %v", tc.name, tc.data, got, tc.want)
		}
	}
}

func TestDecodeImplausibleCount(t *testing.T) {
	// A huge length prefix must be rejected without attempting the
	// allocation.
	data := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := DecodeValue(data); err == nil {
		t.Error("implausible count accepted")
	}
}

func TestPathRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPath(r, 12)
		got, err := DecodePath(EncodePath(&p))
		if err != nil {
			return false
		}
		return pathsEqual(&p, &got)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeValueDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := randomValue(rng)
	a := EncodeValue(v)
	b := EncodeValue(v)
	if !bytes.Equal(a, b) {
		t.Error("encoding is not deterministic")
	}
	// Decode+re-encode must be byte-identical (canonical form).
	dec, err := DecodeValue(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, EncodeValue(dec)) {
		t.Error("re-encoding after decode changed bytes")
	}
}

func TestAppendValueGrowsDst(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	v := randomValue(rng)
	prefix := []byte("prefix")
	out := AppendValue(append([]byte(nil), prefix...), v)
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("AppendValue clobbered prefix")
	}
	dec, err := DecodeValue(out[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if !valuesEqual(v, dec) {
		t.Error("append-encoded value does not round trip")
	}
}

func TestQuickValueRoundTrip(t *testing.T) {
	// Property: for arbitrary generated values, encode/decode is the
	// identity under semantic equality.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomValue(rng)
		dec, err := DecodeValue(EncodeValue(v))
		if err != nil {
			return false
		}
		return valuesEqual(v, dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickValueSize: ValueSize is the length AppendValue writes, for
// generated values and for every varint width at the fields' extremes.
func TestQuickValueSize(t *testing.T) {
	f := func(seed int64) bool {
		v := randomValue(rand.New(rand.NewSource(seed)))
		return ValueSize(v) == len(EncodeValue(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{0, 1, -1, 63, -64, 64, -65, 1 << 20, math.MaxInt64, math.MinInt64} {
		id := EdgeID(uint32(x))
		pe := PathEdge{ID: id, From: VertexID(uint32(x)), To: VertexID(uint32(x >> 7)), Flow: x, Cap: -x, Fwd: x > 0}
		v := &VertexValue{
			Su:    []ExcessPath{{Edges: []PathEdge{pe, pe}}},
			Tu:    []ExcessPath{{}, {Edges: []PathEdge{pe}}},
			Eu:    []Edge{{To: VertexID(uint32(x)), ID: id, Flow: x, Cap: x, RevCap: -x, Fwd: true}},
			SentS: []uint64{uint64(x)},
			SentT: []uint64{uint64(x) >> 1, 0},
		}
		if got, want := ValueSize(v), len(EncodeValue(v)); got != want {
			t.Errorf("x=%d: ValueSize = %d, AppendValue wrote %d", x, got, want)
		}
	}
}
