package distmr

import (
	"reflect"
	"strings"
	"testing"

	"ffmr/internal/spill"
)

// This file covers the wire-v3 payloads that moved off gob: task
// results, completion piggybacks, prefetch descriptors and winner
// manifests — round trips, canonical form, corruption rejection, the
// pooled-buffer aliasing contract, and the steady-state allocation
// budget the wire refactor exists to enforce.

func sampleResult() *TaskResult {
	return &TaskResult{
		InRecs:   100,
		OutRecs:  250,
		RawBytes: 4096,
		MaxFrame: 129,
		Spills:   3,
		Parts: [][]spill.Segment{
			{
				{Name: "j42-m0-a0-p0-s0", Partition: 0, Records: 10, RawBytes: 512, StoredBytes: 300, Compressed: true, Node: 1},
				{Name: "j42-m0-a0-p0-s1", Partition: 0, Records: 4, RawBytes: 128, StoredBytes: 128, Node: 1},
			},
			nil,
			{{Name: "j42-m0-a0-p0-s0", Offset: 300, Partition: 2, Records: 6, RawBytes: 256, StoredBytes: 256, Node: 0}},
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

// TestDecodeResultCopiesOutputData pins the pooled-buffer contract:
// the decoded result must not alias the input slice, because heartbeat
// buffers are returned to a sync.Pool right after decoding.
func TestDecodeResultCopiesOutputData(t *testing.T) {
	enc := EncodeResult(&TaskResult{OutputData: []byte("immutable")})
	r, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xff
	}
	if string(r.OutputData) != "immutable" {
		t.Errorf("OutputData aliases the input buffer: %q", r.OutputData)
	}
}

func TestPrefetchRoundTrip(t *testing.T) {
	want := &PrefetchDescriptor{
		JobSeq: 42,
		Sources: []MapSource{
			{MapTask: 3, Worker: 7, Addr: "127.0.0.1:4001", Segments: []spill.Segment{
				{Name: "j42-m3-a0-p1-s0", Partition: 1, Records: 5, RawBytes: 200, StoredBytes: 150, Compressed: true, Node: 2},
			}},
			{MapTask: 5, Worker: 8, Addr: "127.0.0.1:4002"},
		},
	}
	got, err := DecodePrefetch(EncodePrefetch(want))
	if err != nil {
		t.Fatalf("DecodePrefetch: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("prefetch round trip mismatch:\n got  %+v\n want %+v", got, want)
	}
}

func TestHeartbeatCompletionRoundTrip(t *testing.T) {
	want := &Heartbeat{
		Worker: 9, Instance: 77, Seq: 5, Running: 2,
		StoreObjects: 3, StoreBytes: 1 << 16, TasksDone: 11, Prefetched: 6,
		Completions: []Completion{
			{JobSeq: 42, Phase: PhaseMap, Task: 3, Assign: 4, Result: EncodeResult(sampleResult())},
			{JobSeq: 42, Phase: PhaseReduce, Task: 0, Assign: 9, Result: EncodeResult(&TaskResult{Err: "boom"})},
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
// corruption coverage for the v3 payloads.
func TestResultAndPrefetchRejectCorruptInput(t *testing.T) {
	res := EncodeResult(sampleResult())
	pre := EncodePrefetch(&PrefetchDescriptor{JobSeq: 1, Sources: []MapSource{{MapTask: 1, Worker: 2, Addr: "a"}}})
	man := encodeManifest(&taskManifest{Phase: PhaseMap, Task: 1, Attempt: 1, Result: TaskResult{InRecs: 5}})

	for name, c := range map[string]struct {
		enc    []byte
		decode func([]byte) error
	}{
		"result":   {res, func(b []byte) error { _, err := DecodeResult(b); return err }},
		"prefetch": {pre, func(b []byte) error { _, err := DecodePrefetch(b); return err }},
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

// FuzzDecodePrefetch applies the fixed-point property to prefetch
// descriptors.
func FuzzDecodePrefetch(f *testing.F) {
	f.Add(EncodePrefetch(&PrefetchDescriptor{JobSeq: 42, Sources: []MapSource{{MapTask: 1, Worker: 2, Addr: "127.0.0.1:4001"}}}))
	f.Add(EncodePrefetch(&PrefetchDescriptor{}))
	f.Add([]byte{wireVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePrefetch(data)
		if err != nil {
			return
		}
		enc := EncodePrefetch(p)
		p2, err := DecodePrefetch(enc)
		if err != nil {
			t.Fatalf("re-encode of accepted input does not decode: %v", err)
		}
		if re := EncodePrefetch(p2); string(re) != string(enc) {
			t.Errorf("re-encode is not a fixed point:\n enc %x\n re  %x", enc, re)
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
		Worker: 1, Instance: 2, Seq: 3, Running: 1, TasksDone: 4, Prefetched: 5,
		Completions: []Completion{{JobSeq: 42, Phase: PhaseMap, Task: 1, Assign: 2, Result: EncodeResult(res)}},
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
