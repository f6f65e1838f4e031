package rpcutil

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"testing"
	"time"
)

// FramedPayload is a Message-implementing arg/reply for codec tests.
type FramedPayload struct {
	N    int64
	Data []byte
}

func (p *FramedPayload) AppendFrame(b []byte) []byte {
	b = binary.AppendVarint(b, p.N)
	b = binary.AppendUvarint(b, uint64(len(p.Data)))
	return append(b, p.Data...)
}

func (p *FramedPayload) DecodeFrame(b []byte) error {
	v, n := binary.Varint(b)
	if n <= 0 {
		return fmt.Errorf("corrupt FramedPayload n")
	}
	b = b[n:]
	m, w := binary.Uvarint(b)
	if w <= 0 || m != uint64(len(b)-w) {
		return fmt.Errorf("corrupt FramedPayload data")
	}
	p.N = v
	p.Data = append([]byte(nil), b[w:]...)
	return nil
}

// BulkPayload carries two bulk fields around a head field, so the codec
// has to splice both into the frame it writes; it owns the frames it is
// decoded from and keeps slices of them.
type BulkPayload struct {
	A    []byte
	N    int64
	B    []byte
	Kept []byte // the frame DecodeFrame was handed
}

func (p *BulkPayload) AppendFrame(b []byte) []byte {
	return p.AppendBulk(b, func(b, q []byte) []byte { return append(b, q...) })
}

func (p *BulkPayload) AppendBulk(b []byte, put func(b, q []byte) []byte) []byte {
	b = put(binary.AppendUvarint(b, uint64(len(p.A))), p.A)
	b = binary.AppendVarint(b, p.N)
	return put(binary.AppendUvarint(b, uint64(len(p.B))), p.B)
}

func (*BulkPayload) OwnsFrame() {}

func (p *BulkPayload) DecodeFrame(b []byte) error {
	r := NewReader(b)
	p.A, p.N, p.B, p.Kept = r.Bytes("a"), r.Varint("n"), r.Bytes("b"), b
	return r.Finish("bulk payload")
}

// PlainPayload has no Message implementation, so the codec must refuse
// it wherever it appears.
type PlainPayload struct {
	Name string
}

type codecSvc struct {
	mu   sync.Mutex
	seen [][]byte
}

// Echo doubles N and echoes Data through a framed reply.
func (s *codecSvc) Echo(args *FramedPayload, reply *FramedPayload) error {
	s.mu.Lock()
	s.seen = append(s.seen, args.Data)
	s.mu.Unlock()
	reply.N = args.N * 2
	reply.Data = args.Data
	return nil
}

// Bulk echoes a BulkPayload, its bulk fields aliasing the request frame.
func (s *codecSvc) Bulk(args *BulkPayload, reply *BulkPayload) error {
	*reply = *args
	return nil
}

// PlainArg declares an arg type the codec cannot decode.
func (s *codecSvc) PlainArg(args *PlainPayload, reply *FramedPayload) error { return nil }

// PlainReply declares a reply type the codec cannot encode.
func (s *codecSvc) PlainReply(args *FramedPayload, reply *PlainPayload) error {
	reply.Name = "unsendable"
	return nil
}

// Fail always errors, covering the response error-string path.
func (s *codecSvc) Fail(args *FramedPayload, _ *FramedPayload) error {
	return fmt.Errorf("intentional failure for %d", args.N)
}

func startCodecServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := rpc.NewServer()
	if err := srv.RegisterName("Codec", &codecSvc{}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeCodec(NewServerCodec(conn))
		}
	}()
	return ln.Addr().String()
}

// TestFrameCodecRoundTrip drives framed bodies and error replies over
// one connection, interleaved and concurrently, the
// way a worker connection mixes heartbeats with fetches.
func TestFrameCodecRoundTrip(t *testing.T) {
	addr := startCodecServer(t)
	c, err := DialRPC(addr, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arg := &FramedPayload{N: int64(i), Data: []byte(strings.Repeat("x", i))}
			var rep FramedPayload
			if err := c.Call("Codec.Echo", arg, &rep); err != nil {
				t.Errorf("Echo(%d): %v", i, err)
				return
			}
			if rep.N != int64(i)*2 || string(rep.Data) != string(arg.Data) {
				t.Errorf("Echo(%d): got (%d, %q)", i, rep.N, rep.Data)
			}
		}(i)
	}
	wg.Wait()

	err = c.Call("Codec.Fail", &FramedPayload{N: 7}, &FramedPayload{})
	if err == nil || !strings.Contains(err.Error(), "intentional failure for 7") {
		t.Errorf("Fail: got %v, want the service error", err)
	}

	// The connection survives an error reply: later calls still work.
	var rep FramedPayload
	if err := c.Call("Codec.Echo", &FramedPayload{N: 5}, &rep); err != nil || rep.N != 10 {
		t.Errorf("Echo after Fail: %d, %v", rep.N, err)
	}
}

// TestFrameCodecRefusesNonMessage pins the one-layer rule: a body that
// does not frame itself fails its call with an error naming the type —
// as an arg or as a reply, on the sending and on the receiving side —
// and no such call is left waiting.
func TestFrameCodecRefusesNonMessage(t *testing.T) {
	addr := startCodecServer(t)
	c, err := DialRPC(addr, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	call := func(method string, arg, reply any) error {
		t.Helper()
		done := c.Go(method, arg, reply, make(chan *rpc.Call, 1)).Done
		select {
		case res := <-done:
			return res.Error
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: call never completed", method)
			return nil
		}
	}
	for _, tc := range []struct {
		name, method string
		arg, reply   any
	}{
		{"arg refused by the client", "Codec.Echo", &PlainPayload{Name: "x"}, &FramedPayload{}},
		{"arg refused by the server", "Codec.PlainArg", &FramedPayload{N: 1}, &FramedPayload{}},
		{"reply refused by the server", "Codec.PlainReply", &FramedPayload{N: 1}, &FramedPayload{}},
	} {
		err := call(tc.method, tc.arg, tc.reply)
		if err == nil || !strings.Contains(err.Error(), "*rpcutil.PlainPayload") {
			t.Errorf("%s: got %v, want an error naming *rpcutil.PlainPayload", tc.name, err)
		}
		// None of these may cost the connection or desynchronize it.
		var rep FramedPayload
		if err := call("Codec.Echo", &FramedPayload{N: 21, Data: []byte("ok")}, &rep); err != nil || rep.N != 42 {
			t.Fatalf("Echo after %q: %d, %v", tc.name, rep.N, err)
		}
	}
	// A reply the client cannot decode fails too; net/rpc then retires
	// the client, as it does after any undecodable reply.
	err = call("Codec.Echo", &FramedPayload{N: 1}, &PlainPayload{})
	if err == nil || !strings.Contains(err.Error(), "*rpcutil.PlainPayload") {
		t.Errorf("reply refused by the client: got %v, want an error naming *rpcutil.PlainPayload", err)
	}
}

// TestFrameCodecVersionMismatch pins the same-binary rule: a peer
// speaking a different stream version is rejected on the first read, not
// misparsed.
func TestFrameCodecVersionMismatch(t *testing.T) {
	addr := startCodecServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Handshake a bad version followed by a plausible header; the server
	// must drop the connection without replying.
	if _, err := conn.Write([]byte{frameCodecVersion + 1, 0x01}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("server answered %d bytes on a version-mismatched stream", n)
	}
}

// TestFrameCodecRejectsOversizedBody pins the allocation bound: a length
// prefix beyond maxFrameBytes fails the read instead of allocating.
func TestFrameCodecRejectsOversizedBody(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		b := []byte{frameCodecVersion}
		b = binary.AppendUvarint(b, 1) // seq
		b = binary.AppendUvarint(b, 4)
		b = append(b, "Bad."...)
		b = binary.AppendUvarint(b, 0) // empty error
		b = binary.AppendUvarint(b, maxFrameBytes+1)
		conn.Write(b)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	codec := NewClientCodec(conn)
	defer codec.Close()
	var resp rpc.Response
	if err := codec.ReadResponseHeader(&resp); err != nil {
		t.Fatalf("header: %v", err)
	}
	if err := codec.ReadResponseBody(nil); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized body: got %v, want length-limit error", err)
	}
}

// TestFrameCodecBulkAndOwnedFrames drives a Bulky, Owner payload both
// ways: its bulk fields are written from their own buffers around the
// head bytes, and a decoded one is handed a frame of its own that no
// later call overwrites, while PoisonPooled overwrites every pooled
// buffer as it is returned.
func TestFrameCodecBulkAndOwnedFrames(t *testing.T) {
	PoisonPooled(true)
	defer PoisonPooled(false)
	buf := GetBuf()
	*buf = append(*buf, "pooled"...)
	p := *buf
	PutBuf(buf)
	if string(p) != "\xdb\xdb\xdb\xdb\xdb\xdb" {
		t.Errorf("PoisonPooled left a returned buffer reading %q", p)
	}

	addr := startCodecServer(t)
	c, err := DialRPC(addr, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var replies []*BulkPayload
	for i := 0; i < 4; i++ {
		arg := &BulkPayload{A: []byte(strings.Repeat("a", 1<<i)), N: int64(-i), B: []byte(strings.Repeat("b", 40<<10))}
		var rep BulkPayload
		if err := c.Call("Codec.Bulk", arg, &rep); err != nil {
			t.Fatal(err)
		}
		if string(rep.A) != string(arg.A) || rep.N != arg.N || string(rep.B) != string(arg.B) {
			t.Fatalf("call %d: got (%d, %d, %d bytes)", i, len(rep.A), rep.N, len(rep.B))
		}
		if len(rep.Kept) != cap(rep.Kept) || &rep.B[len(rep.B)-1] != &rep.Kept[len(rep.Kept)-1] {
			t.Fatalf("call %d: the reply is not decoded from an exactly sized frame of its own", i)
		}
		replies = append(replies, &rep)
	}
	for i, rep := range replies {
		if string(rep.A) != strings.Repeat("a", 1<<i) || string(rep.B) != strings.Repeat("b", 40<<10) {
			t.Errorf("reply %d changed after later calls", i)
		}
	}
}
