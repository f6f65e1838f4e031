package distmr

import (
	"reflect"
	"strings"
	"testing"

	"ffmr/internal/rpcutil"
	"ffmr/internal/spill"
)

// This file covers the payloads that moved off gob in wire v3 — task
// results, completion piggybacks and winner manifests — and the shuffle
// fetch of v6: round trips, canonical form, corruption rejection, the
// frame-ownership contract, and the steady-state allocation budget the
// wire refactor exists to enforce.

func sampleResult() *TaskResult {
	return &TaskResult{
		InRecs:   100,
		OutRecs:  250,
		RawBytes: 4096,
		MaxFrame: 129,
		Spills:   3,
		Parts: [][]spill.Segment{
			{
				{Name: "j42-m0-a0-p0-s0", Partition: 0, Records: 10, Bytes: 300, Node: 1},
				{Name: "j42-m0-a0-p0-s1", Partition: 0, Records: 4, Bytes: 128, Node: 1},
			},
			nil,
			{{Name: "j42-m0-a0-p0-s0", Offset: 300, Partition: 2, Records: 6, Bytes: 256, Node: 0}},
		},
		OutputData:    []byte("framed reduce output bytes"),
		OutBytes:      26,
		OutRecords:    2,
		Fetch:         896,
		Inter:         384,
		MergePasses:   1,
		MaxMergeFanIn: 3,
		MaxGroup:      77,
		LostMaps:      []int{1, 4},
		LostFrom:      []uint64{9, 12},
		Counters:      map[string]int64{"mapped": 100, "groups": 40, "a-paths": 7},
		DurNanos:      123456789,
		InputLocal:    true,
	}
}

func TestTaskResultRoundTrip(t *testing.T) {
	cases := map[string]*TaskResult{
		"full":    sampleResult(),
		"failure": {Err: "mapreduce: injected disk failure", DurNanos: 42},
		"zero":    {},
	}
	for name, want := range cases {
		enc := EncodeResult(want)
		got, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("DecodeResult(%s): %v", name, err)
		}
		if re := EncodeResult(got); string(re) != string(enc) {
			t.Errorf("result %q does not re-encode canonically", name)
		}
		if name == "full" && !reflect.DeepEqual(got, want) {
			t.Errorf("result %q round trip mismatch:\n got  %+v\n want %+v", name, got, want)
		}
	}
}

// TestResultCountersCanonicalOrder pins the canonical-form rule: equal
// results encode to identical bytes regardless of map iteration order.
func TestResultCountersCanonicalOrder(t *testing.T) {
	r := &TaskResult{Counters: map[string]int64{"z": 1, "a": 2, "m": 3, "b": 4, "k": 5}}
	first := string(EncodeResult(r))
	for i := 0; i < 20; i++ {
		if got := string(EncodeResult(r)); got != first {
			t.Fatal("counter encoding depends on map iteration order")
		}
	}
}

// TestOwnedFramesAreAliasedPooledOnesAreNot pins the frame-ownership
// contract (rpcutil.Owner): the four messages that carry bulk bytes own
// the frame they are decoded from and alias it rather than copy, and
// every other message keeps nothing of its pooled frame — overwriting
// the frame after decoding leaves the decoded message intact.
func TestOwnedFramesAreAliasedPooledOnesAreNot(t *testing.T) {
	owned := []struct {
		msg  rpcutil.Message
		bulk func(rpcutil.Message) []byte
	}{
		{sampleTask(), func(m rpcutil.Message) []byte { return m.(*TaskDescriptor).Split }},
		{&Heartbeat{Completions: []Completion{{Result: &TaskResult{OutputData: []byte("output")}}}},
			func(m rpcutil.Message) []byte { return m.(*Heartbeat).Completions[0].Result.OutputData }},
		{&ReadFileReply{Data: []byte("base")}, func(m rpcutil.Message) []byte { return m.(*ReadFileReply).Data }},
		{&FetchSegmentsReply{Data: []byte("ranges")}, func(m rpcutil.Message) []byte { return m.(*FetchSegmentsReply).Data }},
	}
	for _, c := range owned {
		if _, ok := c.msg.(rpcutil.Owner); !ok {
			t.Errorf("%T carries bulk bytes but does not own its frame", c.msg)
		}
		frame := c.msg.AppendFrame(nil)
		got := reflect.New(reflect.TypeOf(c.msg).Elem()).Interface().(rpcutil.Message)
		if err := got.DecodeFrame(frame); err != nil {
			t.Fatalf("%T: %v", c.msg, err)
		}
		if p := c.bulk(got); len(p) == 0 || &p[len(p)-1] != &frame[len(frame)-1] {
			t.Errorf("%T: the decoded bulk field does not alias the end of its frame", c.msg)
		}
	}

	pooled := []rpcutil.Message{
		&JoinRequest{Addr: "127.0.0.1:5001", Pid: 4242, PrevWorker: 17},
		&RegisterReply{Worker: 3, Instance: 9, HeartbeatInterval: 100},
		&HeartbeatReply{Unknown: true},
		&Retire{Worker: 9, Reason: "scale-down"},
		&HandoffDescriptor{JobSeq: 42, Segments: []string{"j42/map-0/a0/spill-0"}},
		&HandoffReply{Data: [][]byte{[]byte("spill object")}},
		&ReadFileArgs{Name: "ff/round-2/part-00001", Charged: true},
		&FetchSegmentsArgs{Ranges: []FetchRange{{"j1/map-0/a0/spill-0", 811, 300}}},
		&CleanJobArgs{JobSeq: 42},
		&Empty{},
	}
	for _, m := range pooled {
		if _, ok := m.(rpcutil.Owner); ok {
			t.Errorf("%T owns its frame but carries no bulk bytes", m)
		}
		want := m.AppendFrame(nil)
		frame := append([]byte(nil), want...)
		got := reflect.New(reflect.TypeOf(m).Elem()).Interface().(rpcutil.Message)
		if err := got.DecodeFrame(frame); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		for i := range frame {
			frame[i] = 0xDB
		}
		if re := got.AppendFrame(nil); string(re) != string(want) {
			t.Errorf("%T keeps a slice of its pooled frame", m)
		}
	}
}

func TestHeartbeatCompletionRoundTrip(t *testing.T) {
	want := &Heartbeat{
		Worker: 9, Instance: 77, Seq: 5, Running: 2,
		StoreObjects: 3, StoreBytes: 1 << 16, TasksDone: 11,
		Completions: []Completion{
			{JobSeq: 42, Phase: PhaseMap, Task: 3, Assign: 4, Result: sampleResult()},
			{JobSeq: 42, Phase: PhaseReduce, Task: 0, Assign: 9, Result: &TaskResult{Err: "boom"}},
		},
	}
	got, err := DecodeHeartbeat(EncodeHeartbeat(want))
	if err != nil {
		t.Fatalf("DecodeHeartbeat: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("heartbeat+completions round trip mismatch:\n got  %+v\n want %+v", got, want)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	want := &taskManifest{Phase: PhaseReduce, Task: 12, Attempt: 2, Result: *sampleResult()}
	got, err := decodeManifest(encodeManifest(want))
	if err != nil {
		t.Fatalf("decodeManifest: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("manifest round trip mismatch:\n got  %+v\n want %+v", got, want)
	}
}

// TestResultAndPrefetchRejectCorruptInput mirrors the task/heartbeat
// corruption coverage for the v3 payloads. (Its prefetch case left with
// the prefetch descriptor in wire v6.)
func TestResultAndPrefetchRejectCorruptInput(t *testing.T) {
	res := EncodeResult(sampleResult())
	man := encodeManifest(&taskManifest{Phase: PhaseMap, Task: 1, Attempt: 1, Result: TaskResult{InRecs: 5}})

	for name, c := range map[string]struct {
		enc    []byte
		decode func([]byte) error
	}{
		"result":   {res, func(b []byte) error { _, err := DecodeResult(b); return err }},
		"manifest": {man, func(b []byte) error { _, err := decodeManifest(b); return err }},
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

// FuzzDecodeResult applies the fixed-point property to task results.
func FuzzDecodeResult(f *testing.F) {
	f.Add(EncodeResult(sampleResult()))
	f.Add(EncodeResult(&TaskResult{}))
	f.Add([]byte{wireVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		enc := EncodeResult(r)
		r2, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("re-encode of accepted input does not decode: %v", err)
		}
		if re := EncodeResult(r2); string(re) != string(enc) {
			t.Errorf("re-encode is not a fixed point:\n enc %x\n re  %x", enc, re)
		}
	})
}

// TestFetchSegmentsRejectBadRanges: a range that starts before its
// object, has a negative length or overflows is refused where the args
// are decoded, and a reply is accepted only when it holds exactly the
// requested bytes.
func TestFetchSegmentsRejectBadRanges(t *testing.T) {
	for _, c := range []struct {
		offset, length int64
		ok             bool
	}{
		{0, 0, true}, {4096, 64, true}, {-1, 64, false}, {0, -64, false}, {1 << 62, 1 << 62, false},
	} {
		enc := (&FetchSegmentsArgs{Ranges: []FetchRange{{"j1/map-0/a0/spill-0", c.offset, c.length}}}).AppendFrame(nil)
		if err := new(FetchSegmentsArgs).DecodeFrame(enc); (err == nil) != c.ok {
			t.Errorf("range [%d,+%d): decode error %v", c.offset, c.length, err)
		}
	}
	args := &FetchSegmentsArgs{Ranges: []FetchRange{{"a", 0, 3}, {"b", 10, 4}}}
	for n, ok := range map[int]bool{0: false, 6: false, 7: true, 8: false} {
		if err := args.check(&FetchSegmentsReply{Data: make([]byte, n)}); (err == nil) != ok {
			t.Errorf("%d-byte reply to a 7-byte request: check error %v", n, err)
		}
	}
}

// FuzzDecodeFetchSegments applies the fixed-point property to the
// shuffle fetch's args and reply, holds every accepted range to the
// bounds the decoder promises, and checks each reply against the args.
func FuzzDecodeFetchSegments(f *testing.F) {
	args := &FetchSegmentsArgs{Ranges: []FetchRange{{"j1/map-0/a0/spill-0", 811, 300}, {"j1/map-1/a0/spill-0", 0, 4}}}
	f.Add(args.AppendFrame(nil), (&FetchSegmentsReply{Data: make([]byte, 304)}).AppendFrame(nil))
	f.Add((&FetchSegmentsArgs{}).AppendFrame(nil), (&FetchSegmentsReply{}).AppendFrame(nil))
	f.Add(args.AppendFrame(nil), []byte{})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, a, r []byte) {
		var args FetchSegmentsArgs
		argsOK := args.DecodeFrame(a) == nil
		if argsOK {
			for _, rg := range args.Ranges {
				if rg.Offset < 0 || rg.Length < 0 || rg.Offset+rg.Length < 0 {
					t.Fatalf("accepted range [%d,+%d)", rg.Offset, rg.Length)
				}
			}
			enc := args.AppendFrame(nil)
			var again FetchSegmentsArgs
			if err := again.DecodeFrame(enc); err != nil {
				t.Fatalf("re-encode of accepted args does not decode: %v", err)
			}
			if re := again.AppendFrame(nil); string(re) != string(enc) {
				t.Errorf("args re-encode is not a fixed point:\n enc %x\n re  %x", enc, re)
			}
		}
		var reply FetchSegmentsReply
		if reply.DecodeFrame(r) != nil {
			return
		}
		enc := reply.AppendFrame(nil)
		var again FetchSegmentsReply
		if err := again.DecodeFrame(enc); err != nil || string(again.Data) != string(reply.Data) {
			t.Fatalf("re-encode of an accepted reply does not decode to it: %v", err)
		}
		if argsOK && args.check(&reply) == nil {
			var want int64
			for _, rg := range args.Ranges {
				want += rg.Length
			}
			if int64(len(reply.Data)) != want {
				t.Errorf("accepted a %d-byte reply for %d requested bytes", len(reply.Data), want)
			}
		}
	})
}

// TestWireEncodeSteadyStateAllocs is the allocation-regression gate for
// the wire hot path: appending a task descriptor, a result, or a
// heartbeat with pre-encoded completions into a buffer with capacity
// must allocate nothing. (Counter maps are the one exception — sorting
// keys for canonical form allocates once per result, paid per task, not
// per record — so the gated result here carries none.)
func TestWireEncodeSteadyStateAllocs(t *testing.T) {
	task := sampleTask()
	res := sampleResult()
	res.Counters = nil
	hb := &Heartbeat{
		Worker: 1, Instance: 2, Seq: 3, Running: 1, TasksDone: 4,
		Completions: []Completion{{JobSeq: 42, Phase: PhaseMap, Task: 1, Assign: 2, Result: res}},
	}
	buf := make([]byte, 0, 1<<16)
	for name, encode := range map[string]func(){
		"AppendTask":      func() { buf = AppendTask(buf[:0], task) },
		"AppendResult":    func() { buf = AppendResult(buf[:0], res) },
		"AppendHeartbeat": func() { buf = AppendHeartbeat(buf[:0], hb) },
	} {
		if allocs := testing.AllocsPerRun(200, encode); allocs > 0 {
			t.Errorf("%s: %.1f allocs/op on the steady-state path, want 0", name, allocs)
		}
	}
}
