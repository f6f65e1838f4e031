package distmr

import (
	"net"
	"net/rpc"
	"reflect"
	"testing"

	"ffmr/internal/rpcutil"
	"ffmr/internal/trace"
)

// payloadEcho answers every structured request with itself, so one call
// carries the payload through AppendFrame and DecodeFrame in both
// directions of a real codec connection.
type payloadEcho struct{}

func (payloadEcho) Join(a *JoinRequest, r *JoinRequest) error                { *r = *a; return nil }
func (payloadEcho) Heartbeat(a *Heartbeat, r *Heartbeat) error               { *r = *a; return nil }
func (payloadEcho) Retire(a *Retire, r *Retire) error                        { *r = *a; return nil }
func (payloadEcho) Handoff(a *HandoffDescriptor, r *HandoffDescriptor) error { *r = *a; return nil }
func (payloadEcho) Task(a *TaskDescriptor, r *TaskDescriptor) error          { *r = *a; return nil }
func (payloadEcho) Prefetch(a *PrefetchDescriptor, r *PrefetchDescriptor) error {
	*r = *a
	return nil
}
func (payloadEcho) Nothing(_ *Empty, _ *Empty) error { return nil }

// TestPayloadsRoundTripOverCodec sends each payload type as an RPC
// argument over a live rpcutil client/server pair: the payloads are the
// messages now, with no envelope to carry them.
func TestPayloadsRoundTripOverCodec(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := rpc.NewServer()
	if err := srv.RegisterName("Echo", payloadEcho{}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeCodec(rpcutil.NewServerCodec(conn))
		}
	}()
	c, err := rpcutil.DialRPC(ln.Addr().String(), rpcutil.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	task := sampleTask()
	if len(task.Split) == 0 {
		t.Fatal("sample task has no split")
	}
	task.Ctx = trace.Context{Run: 1, Job: 2, Round: 3, Span: 4}
	cases := []struct {
		method    string
		want, got any
	}{
		{"Echo.Join", &JoinRequest{Addr: "127.0.0.1:5001", Pid: 4242, PrevWorker: 17}, &JoinRequest{}},
		{"Echo.Heartbeat", &Heartbeat{
			Worker: 3, Instance: 12345, Seq: 88, Running: 1, TasksDone: 17,
			Completions: []Completion{
				{JobSeq: 42, Phase: PhaseMap, Task: 3, Assign: 4, Result: EncodeResult(sampleResult())},
				{JobSeq: 42, Phase: PhaseReduce, Task: 0, Assign: 9, Result: EncodeResult(&TaskResult{Err: "boom"})},
			},
			SentUnixNano: 1700000000987654321, RTTNanos: 250_000,
			SpanBatches: []SpanBatch{*sampleSpanBatch()},
			Counters:    []MetricSample{{Name: "distmr tasks done", Value: 17}},
			Hists:       []HistSample{{Name: HistTaskServiceNS, Count: 4, Sum: 4000, Buckets: []int64{0, 0, 1, 3}}},
		}, &Heartbeat{}},
		{"Echo.Retire", &Retire{Worker: 9, Reason: "scale-down"}, &Retire{}},
		{"Echo.Handoff", &HandoffDescriptor{JobSeq: 42, Segments: []string{"j42-m0-a0-p1-s0", "j42-m0-a0-p2-s0"}}, &HandoffDescriptor{}},
		{"Echo.Task", task, &TaskDescriptor{}},
		{"Echo.Prefetch", &PrefetchDescriptor{JobSeq: 42, Ctx: task.Ctx, Sources: task.Sources}, &PrefetchDescriptor{}},
		{"Echo.Nothing", &Empty{}, &Empty{}},
	}
	for _, tc := range cases {
		if err := c.Call(tc.method, tc.want, tc.got); err != nil {
			t.Fatalf("%s: %v", tc.method, err)
		}
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s round trip mismatch:\n got  %+v\n want %+v", tc.method, tc.got, tc.want)
		}
	}
}
