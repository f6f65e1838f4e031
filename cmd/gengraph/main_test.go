package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"ffmr/internal/graphgen"
)

func TestWriteChain(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "fb")
	// A custom tiny chain via the "tiny" preset would be slow; exercise
	// the error paths and then the success path with the real preset but
	// a reduced expectation: only verify the files land on disk.
	if err := writeChain("bogus", 3, 1, prefix); err == nil {
		t.Error("unknown chain accepted")
	}
	if err := writeChain("tiny", 3, 1, prefix); err != nil {
		t.Fatal(err)
	}
	for _, spec := range graphgen.TinyFBChain() {
		name := prefix + "-" + spec.Name + ".txt"
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatalf("chain member %s not written: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Errorf("chain member %s empty", name)
		}
	}
	// The written files must parse back.
	f, err := os.Open(prefix + "-FB1.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in, err := graphgen.ReadEdgeList(f)
	if err != nil {
		t.Fatal(err)
	}
	if in.NumVertices != graphgen.TinyFBChain()[0].Vertices {
		t.Errorf("FB1 has %d vertices", in.NumVertices)
	}
}

func TestWriteGraphToFileAndStdout(t *testing.T) {
	in, err := graphgen.ErdosRenyi(20, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	in.Source, in.Sink = graphgen.PickEndpoints(in)
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := writeGraph(in, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty output file")
	}
	if err := writeGraph(in, filepath.Join(t.TempDir(), "missing-dir", "x")); err == nil {
		t.Error("unwritable path accepted")
	}
}

// TestGenerateMatchesPinnedGraphs pins the edge list of one small
// instance of every generator, with and without super source/sink taps.
// The hashes were recorded from cmd/ffmr's own generator front-end
// before it moved here, so a graph written by gengraph and read with
// ffmr -input is the graph ffmr -gen used to build.
func TestGenerateMatchesPinnedGraphs(t *testing.T) {
	tests := []struct {
		name string
		spec spec
		sha  string
	}{
		{"ba", spec{gen: "ba", n: 300, m: 3, seed: 1},
			"ddb096e716c45716b944eb8d6bc3a4eb318aa0c98a4dfc0185b277ee4f4cc1a0"},
		{"default is ba", spec{gen: "", n: 300, m: 3, seed: 1},
			"ddb096e716c45716b944eb8d6bc3a4eb318aa0c98a4dfc0185b277ee4f4cc1a0"},
		{"ba-w", spec{gen: "ba", n: 300, m: 3, seed: 1, w: 4, minDeg: 4},
			"eac6288c921165b46439eba7f1c0c37aac11b9f4ed20a18194d186dbdc2349e2"},
		{"ws", spec{gen: "ws", n: 300, k: 6, beta: 0.2, seed: 2},
			"f1f1cf87b020287b132d5f285889cefacfefa4eb4434f00ea2902ce69b5da644"},
		{"ws-w", spec{gen: "ws", n: 300, k: 6, beta: 0.2, seed: 2, w: 4, minDeg: 4},
			"ed740a26ac7f21a41a261562e78cc0980870f9400f2c26fdd8da0a1904ea19bd"},
		{"rmat", spec{gen: "rmat", scale: 8, m: 4, seed: 3},
			"a99d2d13fee92545998def73ea6ea078906f43c184dac7c29340354394f114a1"},
		{"rmat-w", spec{gen: "rmat", scale: 8, m: 4, seed: 3, w: 4, minDeg: 4},
			"15ebcbed24a252341b4a7d82a4271c792c2140270df861f3d99ded993cfb864b"},
		{"er", spec{gen: "er", n: 300, m: 900, seed: 4},
			"31554c6f2dde59390ff541fcb7859be952e98aedef732190cf4b60eab1234e88"},
		{"er-w", spec{gen: "er", n: 300, m: 900, seed: 4, w: 4, minDeg: 4},
			"e6da61b79c774244bfd7607ebb3e0bed7f9cb6f6876bb9fb36237f5e78c13064"},
		{"grid", spec{gen: "grid", n: 12, seed: 5},
			"8ff201d75fa4d5c8bd0e8df88028360569c1be49edd1e1d20e69dbccd181e83a"},
		{"bip", spec{gen: "bip", n: 40, beta: 0.3, seed: 6},
			"bc714fb551943c0872ab8197aedc070df23e3b1672cdb6d67378ce85cc1f5d3f"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			in, err := generate(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.Validate(); err != nil {
				t.Fatalf("generated graph invalid: %v", err)
			}
			var buf bytes.Buffer
			if err := graphgen.WriteEdgeList(&buf, in); err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != tc.sha {
				t.Errorf("edge list sha256 %x, want %s", sum, tc.sha)
			}
		})
	}
}

// TestGenerateRejects covers the flag sets generate refuses: an unknown
// generator, and taps or random capacities on grid and bip, which set
// their own endpoints and capacities.
func TestGenerateRejects(t *testing.T) {
	for _, s := range []spec{
		{gen: "bogus", n: 100, m: 3},
		{gen: "grid", n: 12, w: 4, minDeg: 2},
		{gen: "bip", n: 40, beta: 0.3, w: 4, minDeg: 2},
		{gen: "grid", n: 12, maxCap: 9},
	} {
		if _, err := generate(s); err == nil {
			t.Errorf("%+v accepted", s)
		}
	}
}
