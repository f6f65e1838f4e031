package dynamic

import (
	"bytes"
	"reflect"
	"testing"

	"ffmr/internal/graph"
)

func sampleApplyParams() *applyParams {
	return &applyParams{
		PendingFile: "ffmr/warm-0003/pending-deltas",
		Caps:        map[graph.EdgeID]capPair{12: {Fwd: 5, Rev: 5}, 3: {Fwd: 2}, 7: {Fwd: 0, Rev: 9}},
		Inserts: []insertEdge{
			{ID: 40, U: 1, V: 2, Fwd: 3, Rev: 3},
			{ID: 41, U: 2, V: 9, Fwd: 1},
		},
		SentTracking: true,
	}
}

// TestJobParamsRoundTrip pins field fidelity of the hand-framed params
// and that map iteration order cannot leak into the bytes.
func TestJobParamsRoundTrip(t *testing.T) {
	want := sampleApplyParams()
	enc := want.append(nil)
	var got applyParams
	if err := got.decode(enc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("apply params round trip: got %+v, want %+v", &got, want)
	}
	for i := 0; i < 20; i++ {
		if re := sampleApplyParams().append(nil); !bytes.Equal(re, enc) {
			t.Fatal("apply params encode differently from run to run")
		}
	}
	drain := drainParams{DeltasFile: "ffmr/warm-0003/drain-deltas"}
	var gotDrain drainParams
	if err := gotDrain.decode(drain.append(nil)); err != nil || gotDrain != drain {
		t.Errorf("drain params round trip: %+v, %v", gotDrain, err)
	}
}

// FuzzDecodeJobParams is internal/core's target of the same name for the
// two param structs of this package: no input may panic a decoder, and
// whatever one accepts re-encodes to a fixed point.
func FuzzDecodeJobParams(f *testing.F) {
	f.Add(sampleApplyParams().append(nil))
	f.Add((&applyParams{}).append(nil))
	f.Add((&drainParams{DeltasFile: "d"}).append(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var apply applyParams
		if apply.decode(data) == nil {
			enc := apply.append(nil)
			var again applyParams
			if err := again.decode(enc); err != nil {
				t.Fatalf("apply: re-decode of own encoding: %v", err)
			}
			if re := again.append(nil); !bytes.Equal(re, enc) {
				t.Fatal("apply: encoding is not a fixed point")
			}
		}
		var drain drainParams
		if drain.decode(data) == nil {
			enc := drain.append(nil)
			var again drainParams
			if err := again.decode(enc); err != nil || !bytes.Equal(again.append(nil), enc) {
				t.Fatalf("drain: encoding is not a fixed point (%v)", err)
			}
		}
	})
}
