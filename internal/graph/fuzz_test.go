package graph_test

import (
	"bytes"
	"slices"
	"testing"

	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
)

// seedCorpus builds realistic wire records from generator output: the
// vertex values a round-0 conversion would produce for a small
// Barabási-Albert graph, plus standalone excess paths, so the fuzzer
// starts from well-formed encodings rather than random bytes.
func seedCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	in, err := graphgen.BarabasiAlbert(24, 2, 7)
	if err != nil {
		tb.Fatalf("BarabasiAlbert: %v", err)
	}
	graphgen.RandomCapacities(in, 5, 8)
	in.Source, in.Sink = graphgen.PickEndpoints(in)

	adj := map[graph.VertexID][]graph.Edge{}
	for i, e := range in.Edges {
		id := graph.EdgeID(i)
		adj[e.U] = append(adj[e.U], graph.Edge{To: e.V, ID: id, Cap: e.Cap, RevCap: e.Cap, Fwd: true})
		adj[e.V] = append(adj[e.V], graph.Edge{To: e.U, ID: id, Cap: e.Cap, RevCap: e.Cap, Fwd: false})
	}
	var corpus [][]byte
	for u, edges := range adj {
		val := &graph.VertexValue{Eu: edges}
		if u == in.Source {
			val.Su = []graph.ExcessPath{{}}
		}
		if u == in.Sink {
			val.Tu = []graph.ExcessPath{{}}
		}
		val.SentS = make([]uint64, len(edges))
		val.SentT = make([]uint64, len(edges))
		corpus = append(corpus, graph.EncodeValue(val))
	}
	p := &graph.ExcessPath{Edges: []graph.PathEdge{
		{ID: 3, From: in.Source, To: 5, Flow: 1, Cap: 4, Fwd: true},
		{ID: 9, From: 5, To: in.Sink, Flow: 1, Cap: 2, Fwd: false},
	}}
	corpus = append(corpus, graph.EncodePath(p))
	corpus = append(corpus, graph.EncodePath(&graph.ExcessPath{}))
	// Two records that are smaller than dirtyValue's in every list, in
	// different ways: a one-path fragment with no edges and no sent flags,
	// and a master whose second path is empty and whose sent arrays have
	// unequal lengths.
	corpus = append(corpus, graph.EncodeValue(&graph.VertexValue{Tu: []graph.ExcessPath{*p}}))
	corpus = append(corpus, graph.EncodeValue(&graph.VertexValue{
		Su:    []graph.ExcessPath{*p, {}},
		Eu:    []graph.Edge{{To: 5, ID: 3, Flow: 1, Cap: 4, RevCap: 4, Fwd: true}},
		SentS: []uint64{p.Signature()},
	}))
	return corpus
}

// dirtyValue returns a value decoded from a record larger than the seed
// corpus in every dimension: what a pooled slot holds when the previous
// record it served was a hub's.
func dirtyValue(tb testing.TB) *graph.VertexValue {
	tb.Helper()
	var big graph.VertexValue
	for i := 0; i < 12; i++ {
		var path graph.ExcessPath
		for h := 0; h <= i; h++ {
			path.Edges = append(path.Edges, graph.PathEdge{
				ID: graph.EdgeID(1000 + h), From: graph.VertexID(h), To: graph.VertexID(h + 1), Flow: -3, Cap: 9, Fwd: h%2 == 0,
			})
		}
		big.Su = append(big.Su, path)
		big.Tu = append(big.Tu, path)
	}
	for i := 0; i < 40; i++ {
		big.Eu = append(big.Eu, graph.Edge{To: graph.VertexID(i), ID: graph.EdgeID(i), Flow: 2, Cap: 5, RevCap: 5, Fwd: true})
		big.SentS = append(big.SentS, ^uint64(0))
		big.SentT = append(big.SentT, ^uint64(0))
	}
	v, err := graph.DecodeValue(graph.EncodeValue(&big))
	if err != nil {
		tb.Fatalf("decode of the dirtying record: %v", err)
	}
	return v
}

// sameValue reports whether a and b hold the same record: every list the
// same length and every element equal. Spare capacity, and nil against
// empty, are not differences.
func sameValue(a, b *graph.VertexValue) bool {
	samePaths := func(x, y []graph.ExcessPath) bool {
		return slices.EqualFunc(x, y, func(p, q graph.ExcessPath) bool { return slices.Equal(p.Edges, q.Edges) })
	}
	return samePaths(a.Su, b.Su) && samePaths(a.Tu, b.Tu) && slices.Equal(a.Eu, b.Eu) &&
		slices.Equal(a.SentS, b.SentS) && slices.Equal(a.SentT, b.SentT)
}

// FuzzVertexCodec checks the wire codec against arbitrary input: decoding
// must never panic, and any input that decodes successfully must
// round-trip to a stable canonical encoding (decode -> encode -> decode
// -> encode yields identical bytes, for both the vertex-value and the
// standalone-path record formats).
func FuzzVertexCodec(f *testing.F) {
	for _, data := range seedCorpus(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if v, err := graph.DecodeValue(data); err == nil {
			enc := graph.EncodeValue(v)
			v2, err := graph.DecodeValue(enc)
			if err != nil {
				t.Fatalf("re-decode of canonical value encoding failed: %v\ninput: %x", err, data)
			}
			if enc2 := graph.EncodeValue(v2); !bytes.Equal(enc, enc2) {
				t.Fatalf("value encoding not stable:\n first: %x\nsecond: %x\ninput: %x", enc, enc2, data)
			}
			// The reuse-path decode (FF4) must agree with the fresh one.
			var reuse graph.VertexValue
			if err := graph.DecodeValueInto(data, &reuse); err != nil {
				t.Fatalf("DecodeValueInto failed where DecodeValue succeeded: %v\ninput: %x", err, data)
			}
			if enc3 := graph.EncodeValue(&reuse); !bytes.Equal(enc, enc3) {
				t.Fatalf("DecodeValueInto disagrees with DecodeValue:\n fresh: %x\n reuse: %x\ninput: %x", enc, enc3, data)
			}
			// So must a decode into a slot that still holds a larger record
			// (FF4's slabs): no list may keep a stale length or element.
			dirty := dirtyValue(t)
			if err := graph.DecodeValueInto(data, dirty); err != nil {
				t.Fatalf("DecodeValueInto a dirty value failed where DecodeValue succeeded: %v\ninput: %x", err, data)
			}
			if !sameValue(dirty, v) {
				t.Fatalf("DecodeValueInto a dirty value disagrees with DecodeValue:\n fresh: %+v\n dirty: %+v\ninput: %x", v, dirty, data)
			}
		}
		if p, err := graph.DecodePath(data); err == nil {
			enc := graph.EncodePath(&p)
			p2, err := graph.DecodePath(enc)
			if err != nil {
				t.Fatalf("re-decode of canonical path encoding failed: %v\ninput: %x", err, data)
			}
			if enc2 := graph.EncodePath(&p2); !bytes.Equal(enc, enc2) {
				t.Fatalf("path encoding not stable:\n first: %x\nsecond: %x\ninput: %x", enc, enc2, data)
			}
			// aug_proc decodes every candidate into one path: a decode into a
			// path that last held a longer one must agree with the fresh one.
			dirty := dirtyValue(t).Su[11]
			if err := graph.DecodePathInto(data, &dirty); err != nil {
				t.Fatalf("DecodePathInto a dirty path failed where DecodePath succeeded: %v\ninput: %x", err, data)
			}
			if !slices.Equal(dirty.Edges, p.Edges) {
				t.Fatalf("DecodePathInto a dirty path disagrees with DecodePath:\n fresh: %+v\n dirty: %+v\ninput: %x", p, dirty, data)
			}
		} else {
			dirty := dirtyValue(t).Su[11]
			if graph.DecodePathInto(data, &dirty) == nil || len(dirty.Edges) != 0 {
				t.Fatalf("DecodePathInto accepted, or kept %d stale hops of, what DecodePath rejected\ninput: %x", len(dirty.Edges), data)
			}
		}
	})
}
