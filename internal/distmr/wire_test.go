package distmr

import (
	"reflect"
	"strings"
	"testing"

	"ffmr/internal/spill"
)

func sampleTask() *TaskDescriptor {
	return &TaskDescriptor{
		JobSeq:  42,
		JobName: "ff-round-3",
		Kind:    "core/ff-round",
		Params:  []byte{0x01, 0x02, 0x00, 0xff},
		Phase:   PhaseReduce,
		Task:    7,
		Attempt: 1,
		Assign:  4,
		Node:    2,
		Round:   3,

		NumReducers:  6,
		MemoryBudget: 1 << 10,
		Compress:     true,
		MergeFanIn:   2,

		Seed:            -99,
		DiskFailureRate: 0.001,
		CrashRate:       0.02,

		Schimmy:     true,
		SchimmyBase: "ff/round-2/",
		SideFiles:   []string{"ff/deltas-3", "ff/meta"},
		Split:       []byte("record-aligned split bytes"),
		Sources: []MapSource{
			{MapTask: 0, Worker: 3, Addr: "127.0.0.1:4001", Segments: []spill.Segment{
				{Name: "j42/map-0/a0/spill-0", Offset: 811, Partition: 1, Records: 10, RawBytes: 512, StoredBytes: 300, Compressed: true, Node: 1},
				{Name: "j42/map-0/a0/spill-1", Offset: 1 << 33, Partition: 1, Records: 4, RawBytes: 128, StoredBytes: 128, Node: 1},
			}},
			{MapTask: 1, Worker: 5, Addr: "127.0.0.1:4002"},
			{MapTask: 2, Prefix: "distmr-state/ff-round-3/seg/", Segments: []spill.Segment{
				{Name: "j42-m2-a1-p1-s0", Partition: 1, Records: 6, RawBytes: 256, StoredBytes: 256, Node: 0},
			}},
		},
	}
}

func TestTaskDescriptorRoundTrip(t *testing.T) {
	cases := []*TaskDescriptor{
		sampleTask(),
		{JobName: "minimal", Kind: "k", Phase: PhaseMap}, // all-zero optionals
	}
	for _, want := range cases {
		enc := EncodeTask(want)
		got, err := DecodeTask(enc)
		if err != nil {
			t.Fatalf("DecodeTask(%q): %v", want.JobName, err)
		}
		// Canonical-bytes equality sidesteps nil-vs-empty slice noise;
		// DeepEqual on the fully populated sample pins field fidelity.
		if re := EncodeTask(got); string(re) != string(enc) {
			t.Errorf("task %q does not re-encode canonically", want.JobName)
		}
		if want.JobSeq != 0 && !reflect.DeepEqual(got, want) {
			t.Errorf("task %q round trip mismatch:\n got  %+v\n want %+v", want.JobName, got, want)
		}
	}
}

// TestSegmentRangeIsChecked: a segment whose range starts before its
// object, has a negative length or overflows is refused where it is
// decoded, in a task descriptor and in a result alike.
func TestSegmentRangeIsChecked(t *testing.T) {
	for _, c := range []struct {
		offset, stored int64
		ok             bool
	}{
		{0, 0, true}, {4096, 64, true}, {-1, 64, false}, {0, -64, false}, {1 << 62, 1 << 62, false},
	} {
		segs := []spill.Segment{{Name: "j1/map-0/a0/spill-0", Offset: c.offset, StoredBytes: c.stored}}
		_, err := DecodeTask(EncodeTask(&TaskDescriptor{Phase: PhaseReduce, Sources: []MapSource{{Segments: segs}}}))
		if (err == nil) != c.ok {
			t.Errorf("task with a segment at [%d,+%d): decode error %v", c.offset, c.stored, err)
		}
		_, err = DecodeResult(EncodeResult(&TaskResult{Parts: [][]spill.Segment{segs}}))
		if (err == nil) != c.ok {
			t.Errorf("result with a segment at [%d,+%d): decode error %v", c.offset, c.stored, err)
		}
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	want := &Heartbeat{Worker: 9, Instance: 1700000000123456789, Seq: 1234, Running: 3, StoreObjects: 77, StoreBytes: 1 << 20}
	got, err := DecodeHeartbeat(EncodeHeartbeat(want))
	if err != nil {
		t.Fatalf("DecodeHeartbeat: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("heartbeat round trip mismatch:\n got  %+v\n want %+v", got, want)
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	enc := EncodeTask(sampleTask())

	// Every truncation must fail cleanly, never panic.
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeTask(enc[:n]); err == nil {
			t.Fatalf("DecodeTask accepted a %d-byte truncation of a %d-byte descriptor", n, len(enc))
		}
	}

	if _, err := DecodeTask(append(append([]byte(nil), enc...), 0)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: got %v, want trailing-bytes error", err)
	}

	bad := append([]byte(nil), enc...)
	bad[0] = wireVersion + 1
	if _, err := DecodeTask(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: got %v, want version error", err)
	}

	hb := EncodeHeartbeat(&Heartbeat{Worker: 1, Seq: 2})
	for n := 0; n < len(hb); n++ {
		if _, err := DecodeHeartbeat(hb[:n]); err == nil {
			t.Fatalf("DecodeHeartbeat accepted a %d-byte truncation", n)
		}
	}
	if _, err := DecodeHeartbeat(append(append([]byte(nil), hb...), 7)); err == nil {
		t.Error("DecodeHeartbeat accepted trailing bytes")
	}
}

// TestMembershipMessageRoundTrips covers the join/retire/hand-off wire
// messages added for elastic membership.
func TestMembershipMessageRoundTrips(t *testing.T) {
	join := &JoinRequest{Addr: "127.0.0.1:5001", Pid: 4242, PrevWorker: 17}
	if got, err := DecodeJoin(EncodeJoin(join)); err != nil || !reflect.DeepEqual(got, join) {
		t.Errorf("join round trip: got %+v, %v; want %+v", got, err, join)
	}
	joinZero := &JoinRequest{}
	if got, err := DecodeJoin(EncodeJoin(joinZero)); err != nil || !reflect.DeepEqual(got, joinZero) {
		t.Errorf("zero join round trip: got %+v, %v", got, err)
	}

	retire := &Retire{Worker: 9, Reason: "autoscaler scale-down"}
	if got, err := DecodeRetire(EncodeRetire(retire)); err != nil || !reflect.DeepEqual(got, retire) {
		t.Errorf("retire round trip: got %+v, %v; want %+v", got, err, retire)
	}

	handoff := &HandoffDescriptor{JobSeq: 42, Segments: []string{"j42-m0-a0-p1-s0", "j42-m0-a0-p2-s0"}}
	if got, err := DecodeHandoff(EncodeHandoff(handoff)); err != nil || !reflect.DeepEqual(got, handoff) {
		t.Errorf("handoff round trip: got %+v, %v; want %+v", got, err, handoff)
	}
	empty := &HandoffDescriptor{JobSeq: 1}
	if got, err := DecodeHandoff(EncodeHandoff(empty)); err != nil {
		t.Errorf("empty handoff round trip: %v", err)
	} else if got.JobSeq != 1 || len(got.Segments) != 0 {
		t.Errorf("empty handoff round trip: got %+v", got)
	}
}

// TestMembershipMessagesRejectCorruptInput mirrors the task/heartbeat
// corruption coverage for the membership messages.
func TestMembershipMessagesRejectCorruptInput(t *testing.T) {
	join := EncodeJoin(&JoinRequest{Addr: "127.0.0.1:5001", Pid: 1, PrevWorker: 2})
	retire := EncodeRetire(&Retire{Worker: 3, Reason: "r"})
	handoff := EncodeHandoff(&HandoffDescriptor{JobSeq: 4, Segments: []string{"s"}})

	for name, c := range map[string]struct {
		enc    []byte
		decode func([]byte) error
	}{
		"join":    {join, func(b []byte) error { _, err := DecodeJoin(b); return err }},
		"retire":  {retire, func(b []byte) error { _, err := DecodeRetire(b); return err }},
		"handoff": {handoff, func(b []byte) error { _, err := DecodeHandoff(b); return err }},
	} {
		for n := 0; n < len(c.enc); n++ {
			if err := c.decode(c.enc[:n]); err == nil {
				t.Fatalf("%s: accepted a %d-byte truncation of %d bytes", name, n, len(c.enc))
			}
		}
		if err := c.decode(append(append([]byte(nil), c.enc...), 0)); err == nil ||
			!strings.Contains(err.Error(), "trailing") {
			t.Errorf("%s trailing byte: got %v, want trailing-bytes error", name, err)
		}
		bad := append([]byte(nil), c.enc...)
		bad[0] = wireVersion + 1
		if err := c.decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("%s bad version: got %v, want version error", name, err)
		}
	}
}

// FuzzDecodeTask asserts the task-descriptor decoder never panics, and
// that any descriptor it accepts survives a stable re-encode: the
// encoder's output must itself decode, and that decode must re-encode
// byte-identically. (Accepted input may differ from the re-encode —
// non-minimal varints and nonzero boolean bytes decode fine — but the
// encoder's own form is a fixed point.)
func FuzzDecodeTask(f *testing.F) {
	f.Add(EncodeTask(sampleTask()))
	f.Add(EncodeTask(&TaskDescriptor{JobName: "m", Kind: "k"}))
	f.Add([]byte{wireVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeTask(data)
		if err != nil {
			return
		}
		enc := EncodeTask(d)
		d2, err := DecodeTask(enc)
		if err != nil {
			t.Fatalf("re-encode of accepted input does not decode: %v", err)
		}
		if re := EncodeTask(d2); string(re) != string(enc) {
			t.Errorf("re-encode is not a fixed point:\n enc %x\n re  %x", enc, re)
		}
	})
}

// FuzzDecodeHeartbeat is the heartbeat-side counterpart.
func FuzzDecodeHeartbeat(f *testing.F) {
	f.Add(EncodeHeartbeat(&Heartbeat{Worker: 3, Seq: 8, Running: 1, StoreObjects: 2, StoreBytes: 99}))
	f.Add([]byte{wireVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHeartbeat(data)
		if err != nil {
			return
		}
		enc := EncodeHeartbeat(h)
		h2, err := DecodeHeartbeat(enc)
		if err != nil {
			t.Fatalf("re-encode of accepted input does not decode: %v", err)
		}
		if re := EncodeHeartbeat(h2); string(re) != string(enc) {
			t.Errorf("re-encode is not a fixed point:\n enc %x\n re  %x", enc, re)
		}
	})
}

// FuzzDecodeJoin applies the fixed-point property to the join request.
func FuzzDecodeJoin(f *testing.F) {
	f.Add(EncodeJoin(&JoinRequest{Addr: "127.0.0.1:5001", Pid: 4242, PrevWorker: 17}))
	f.Add(EncodeJoin(&JoinRequest{}))
	f.Add([]byte{wireVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := DecodeJoin(data)
		if err != nil {
			return
		}
		enc := EncodeJoin(j)
		j2, err := DecodeJoin(enc)
		if err != nil {
			t.Fatalf("re-encode of accepted input does not decode: %v", err)
		}
		if re := EncodeJoin(j2); string(re) != string(enc) {
			t.Errorf("re-encode is not a fixed point:\n enc %x\n re  %x", enc, re)
		}
	})
}

// FuzzDecodeRetire applies the fixed-point property to the retire request.
func FuzzDecodeRetire(f *testing.F) {
	f.Add(EncodeRetire(&Retire{Worker: 9, Reason: "scale-down"}))
	f.Add(EncodeRetire(&Retire{}))
	f.Add([]byte{wireVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRetire(data)
		if err != nil {
			return
		}
		enc := EncodeRetire(r)
		r2, err := DecodeRetire(enc)
		if err != nil {
			t.Fatalf("re-encode of accepted input does not decode: %v", err)
		}
		if re := EncodeRetire(r2); string(re) != string(enc) {
			t.Errorf("re-encode is not a fixed point:\n enc %x\n re  %x", enc, re)
		}
	})
}

// FuzzDecodeHandoff applies the fixed-point property to the hand-off
// descriptor.
func FuzzDecodeHandoff(f *testing.F) {
	f.Add(EncodeHandoff(&HandoffDescriptor{JobSeq: 42, Segments: []string{"j42-m0-a0-p1-s0", "j42-m0-a0-p2-s0"}}))
	f.Add(EncodeHandoff(&HandoffDescriptor{}))
	f.Add([]byte{wireVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHandoff(data)
		if err != nil {
			return
		}
		enc := EncodeHandoff(h)
		h2, err := DecodeHandoff(enc)
		if err != nil {
			t.Fatalf("re-encode of accepted input does not decode: %v", err)
		}
		if re := EncodeHandoff(h2); string(re) != string(enc) {
			t.Errorf("re-encode is not a fixed point:\n enc %x\n re  %x", enc, re)
		}
	})
}
