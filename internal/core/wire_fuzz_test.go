package core

import (
	"bytes"
	"reflect"
	"testing"

	"ffmr/internal/graph"
	"ffmr/internal/rpcutil"
)

// jobParams is what the two param structs of distkinds.go share.
type jobParams interface {
	append(b []byte) []byte
	decode(data []byte) error
}

// TestJobParamsRoundTrip pins field fidelity for the hand-framed params;
// the fuzz target below only knows bytes.
func TestJobParamsRoundTrip(t *testing.T) {
	for _, tc := range []struct{ want, got jobParams }{
		{&ffRoundParams{Variant: FF5, K: 4, Source: 3, Sink: 9, DeltasFile: "ffmr/deltas-00002",
			UseCombiner: true, ServiceAddr: "127.0.0.1:4100"}, &ffRoundParams{}},
		{&bfsRoundParams{Round: 31}, &bfsRoundParams{}},
	} {
		if err := tc.got.decode(tc.want.append(nil)); err != nil {
			t.Fatalf("%T: %v", tc.want, err)
		}
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%T round trip: got %+v, want %+v", tc.want, tc.got, tc.want)
		}
	}
}

// FuzzDecodeJobParams feeds every input to both param decoders: neither
// may panic, and whatever one accepts must re-encode to a fixed point
// (decode∘encode is the identity on encoded params, so a job's params
// are byte-deterministic).
func FuzzDecodeJobParams(f *testing.F) {
	f.Add((&ffRoundParams{Variant: FF3, K: 2, Source: 1, Sink: 2, DeltasFile: "d", ServiceAddr: "a:1"}).append(nil))
	f.Add((&bfsRoundParams{Round: -3}).append(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range []jobParams{&ffRoundParams{}, &bfsRoundParams{}} {
			if p.decode(data) != nil {
				continue
			}
			enc := p.append(nil)
			if err := p.decode(enc); err != nil {
				t.Fatalf("%T: re-decode of own encoding: %v", p, err)
			}
			if re := p.append(nil); !bytes.Equal(re, enc) {
				t.Fatalf("%T: encoding is not a fixed point", p)
			}
		}
	})
}

// FuzzSubmitPublishFrame is the same property for the two aug_proc
// requests, whose frames arrive from other processes.
func FuzzSubmitPublishFrame(f *testing.F) {
	path := simplePath(3, 2)
	f.Add((&SubmitArgs{Round: 2, Task: 1, Exec: 4, Paths: [][]byte{graph.EncodePath(&path), nil}}).AppendFrame(nil))
	f.Add((&SubmitArgs{}).AppendFrame(nil))
	f.Add((&PublishArgs{Round: 3, Stats: AugProcStats{Submitted: 5, Accepted: 2, TotalDelta: 3},
		Deltas: map[graph.EdgeID]int64{3: 2, 9: -1}}).AppendFrame(nil))
	f.Add((&PublishArgs{}).AppendFrame(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fresh := range []func() rpcutil.Message{
			func() rpcutil.Message { return new(SubmitArgs) },
			func() rpcutil.Message { return new(PublishArgs) },
		} {
			m := fresh()
			if m.DecodeFrame(data) != nil {
				continue
			}
			enc := m.AppendFrame(nil)
			again := fresh()
			if err := again.DecodeFrame(enc); err != nil {
				t.Fatalf("%T: re-decode of own encoding: %v", m, err)
			}
			if re := again.AppendFrame(nil); !bytes.Equal(re, enc) {
				t.Fatalf("%T: encoding is not a fixed point", m)
			}
		}
	})
}
