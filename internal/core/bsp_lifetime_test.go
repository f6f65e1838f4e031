package core

import (
	"reflect"
	"testing"

	"ffmr/internal/graph"
	"ffmr/internal/graphgen"
	"ffmr/internal/pregel"
)

// scribblingProgram overwrites every message it was handed once Compute
// has returned: pregel's messages are windows of an arena the engine
// reuses, valid only during the call.
type scribblingProgram struct{ pregel.Program }

func (s scribblingProgram) Compute(ctx *pregel.Context, v *pregel.Vertex, messages [][]byte) error {
	err := s.Program.Compute(ctx, v, messages)
	for _, m := range messages {
		scribbleBytes(m)
	}
	return err
}

// TestBSPMessageLifetimeDifferential runs the BSP translation on the
// workload of experiments.CompareMRBSP twice, plainly and with every
// message scribbled over after the Compute call it was delivered to. A
// program that kept a message (or decoded state aliasing one) past the
// call would diverge; the two runs must agree byte for byte.
func TestBSPMessageLifetimeDifferential(t *testing.T) {
	chain, err := graphgen.CrawlChain([]graphgen.FBSpec{{Name: "FB1", Vertices: 300}}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := graphgen.AttachSuperSourceSink(chain[0], 4, 4, 101)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		stats  pregel.Stats
		flow   int64
		steps  []BSPStepStat
		values [][]byte
	}
	run := func(scribble bool) outcome {
		master := &bspMaster{bidirectional: true}
		engine, program, err := newBSPEngine(in, BSPOptions{Workers: 12}, master, nil)
		if err != nil {
			t.Fatal(err)
		}
		var p pregel.Program = program
		if scribble {
			p = scribblingProgram{p}
		}
		stats, err := engine.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{stats: *stats, flow: master.maxFlow, steps: master.perStep}
		out.stats.WallTime = 0
		for id := 0; id < in.NumVertices; id++ {
			if v := engine.Vertex(graph.VertexID(id)); v != nil {
				out.values = append(out.values, v.Value)
			}
		}
		return out
	}
	plain, scribbled := run(false), run(true)
	if plain.flow == 0 || plain.stats.Messages == 0 {
		t.Fatalf("reference run moved nothing: %+v", plain.stats)
	}
	if !reflect.DeepEqual(plain, scribbled) {
		t.Errorf("scribbling over delivered messages changed the run:\n plain:     flow %d, %+v\n scribbled: flow %d, %+v",
			plain.flow, plain.stats, scribbled.flow, scribbled.stats)
	}
}
