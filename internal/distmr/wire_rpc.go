package distmr

// Frame-codec implementations (rpcutil.Message) for every RPC arg and
// reply type. The six structured requests frame as their own wire.go
// encoding, version byte included; the replies and scalar requests of
// proto.go mirror their struct fields in order, with no version byte of
// their own — the connection stream (rpcutil frame codec) is versioned
// already, and these cannot change without it changing too.
//
// DecodeFrame inputs are pooled codec buffers, recycled as soon as the
// call returns. Decoded requests keep slices of their input (Params,
// Split, completion results), so they decode one copy of the frame;
// every byte field a reply retains is copied out.

import (
	"encoding/binary"

	"ffmr/internal/rpcutil"
)

// Compile-time check that every arg and reply speaks the frame codec.
var (
	_ rpcutil.Message = (*JoinRequest)(nil)
	_ rpcutil.Message = (*RegisterReply)(nil)
	_ rpcutil.Message = (*Heartbeat)(nil)
	_ rpcutil.Message = (*HeartbeatReply)(nil)
	_ rpcutil.Message = (*Retire)(nil)
	_ rpcutil.Message = (*HandoffDescriptor)(nil)
	_ rpcutil.Message = (*HandoffReply)(nil)
	_ rpcutil.Message = (*ReadFileArgs)(nil)
	_ rpcutil.Message = (*ReadFileReply)(nil)
	_ rpcutil.Message = (*TaskDescriptor)(nil)
	_ rpcutil.Message = (*PrefetchDescriptor)(nil)
	_ rpcutil.Message = (*FetchSegmentArgs)(nil)
	_ rpcutil.Message = (*FetchSegmentReply)(nil)
	_ rpcutil.Message = (*CleanJobArgs)(nil)
	_ rpcutil.Message = (*Empty)(nil)
)

// detach copies a pooled frame for a decoder that keeps slices of it.
func detach(frame []byte) []byte { return append([]byte(nil), frame...) }

// AppendFrame implements rpcutil.Message.
func (j *JoinRequest) AppendFrame(b []byte) []byte { return append(b, EncodeJoin(j)...) }

// DecodeFrame implements rpcutil.Message.
func (j *JoinRequest) DecodeFrame(b []byte) error { return j.decode(detach(b)) }

// AppendFrame implements rpcutil.Message.
func (h *Heartbeat) AppendFrame(b []byte) []byte { return AppendHeartbeat(b, h) }

// DecodeFrame implements rpcutil.Message.
func (h *Heartbeat) DecodeFrame(b []byte) error { return h.decode(detach(b)) }

// AppendFrame implements rpcutil.Message.
func (r *Retire) AppendFrame(b []byte) []byte { return append(b, EncodeRetire(r)...) }

// DecodeFrame implements rpcutil.Message.
func (r *Retire) DecodeFrame(b []byte) error { return r.decode(detach(b)) }

// AppendFrame implements rpcutil.Message.
func (h *HandoffDescriptor) AppendFrame(b []byte) []byte { return append(b, EncodeHandoff(h)...) }

// DecodeFrame implements rpcutil.Message.
func (h *HandoffDescriptor) DecodeFrame(b []byte) error { return h.decode(detach(b)) }

// AppendFrame implements rpcutil.Message.
func (t *TaskDescriptor) AppendFrame(b []byte) []byte { return AppendTask(b, t) }

// DecodeFrame implements rpcutil.Message.
func (t *TaskDescriptor) DecodeFrame(b []byte) error { return t.decode(detach(b)) }

// AppendFrame implements rpcutil.Message.
func (p *PrefetchDescriptor) AppendFrame(b []byte) []byte { return AppendPrefetch(b, p) }

// DecodeFrame implements rpcutil.Message.
func (p *PrefetchDescriptor) DecodeFrame(b []byte) error { return p.decode(detach(b)) }

// AppendFrame implements rpcutil.Message.
func (r *RegisterReply) AppendFrame(b []byte) []byte {
	b = binary.AppendUvarint(b, r.Worker)
	b = binary.AppendUvarint(b, r.Instance)
	return binary.AppendVarint(b, r.HeartbeatInterval)
}

// DecodeFrame implements rpcutil.Message.
func (r *RegisterReply) DecodeFrame(b []byte) error {
	d := rpcutil.NewReader(b)
	r.Worker = d.Uvarint("register worker")
	r.Instance = d.Uvarint("register instance")
	r.HeartbeatInterval = d.Varint("register heartbeat interval")
	return d.Finish("register reply")
}

// AppendFrame implements rpcutil.Message.
func (r *HeartbeatReply) AppendFrame(b []byte) []byte {
	b = rpcutil.AppendBool(b, r.Shutdown)
	b = rpcutil.AppendBool(b, r.Unknown)
	return rpcutil.AppendBool(b, r.Retired)
}

// DecodeFrame implements rpcutil.Message.
func (r *HeartbeatReply) DecodeFrame(b []byte) error {
	d := rpcutil.NewReader(b)
	r.Shutdown = d.Bool("heartbeat shutdown")
	r.Unknown = d.Bool("heartbeat unknown")
	r.Retired = d.Bool("heartbeat retired")
	return d.Finish("heartbeat reply")
}

// AppendFrame implements rpcutil.Message.
func (r *HandoffReply) AppendFrame(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(r.Data)))
	for _, p := range r.Data {
		b = rpcutil.AppendBytes(b, p)
	}
	return b
}

// DecodeFrame implements rpcutil.Message.
func (r *HandoffReply) DecodeFrame(b []byte) error {
	d := rpcutil.NewReader(b)
	if n := d.Count("handoff segments"); n > 0 {
		r.Data = make([][]byte, n)
		for i := range r.Data {
			r.Data[i] = d.CopyBytes("handoff segment")
		}
	}
	return d.Finish("handoff reply")
}

// AppendFrame implements rpcutil.Message.
func (a *ReadFileArgs) AppendFrame(b []byte) []byte { return rpcutil.AppendString(b, a.Name) }

// DecodeFrame implements rpcutil.Message.
func (a *ReadFileArgs) DecodeFrame(b []byte) error {
	d := rpcutil.NewReader(b)
	a.Name = d.Str("read file name")
	return d.Finish("read file args")
}

// AppendFrame implements rpcutil.Message.
func (r *ReadFileReply) AppendFrame(b []byte) []byte { return rpcutil.AppendBytes(b, r.Data) }

// DecodeFrame implements rpcutil.Message.
func (r *ReadFileReply) DecodeFrame(b []byte) error {
	d := rpcutil.NewReader(b)
	r.Data = d.CopyBytes("read file data")
	return d.Finish("read file reply")
}

// AppendFrame implements rpcutil.Message.
func (a *FetchSegmentArgs) AppendFrame(b []byte) []byte {
	b = rpcutil.AppendString(b, a.Name)
	b = binary.AppendVarint(b, a.Offset)
	return binary.AppendVarint(b, a.Length)
}

// DecodeFrame implements rpcutil.Message.
func (a *FetchSegmentArgs) DecodeFrame(b []byte) error {
	d := rpcutil.NewReader(b)
	a.Name = d.Str("fetch segment name")
	a.Offset = d.Varint("fetch segment offset")
	a.Length = d.Varint("fetch segment length")
	return d.Finish("fetch segment args")
}

// AppendFrame implements rpcutil.Message.
func (r *FetchSegmentReply) AppendFrame(b []byte) []byte { return rpcutil.AppendBytes(b, r.Data) }

// DecodeFrame implements rpcutil.Message.
func (r *FetchSegmentReply) DecodeFrame(b []byte) error {
	d := rpcutil.NewReader(b)
	r.Data = d.CopyBytes("fetch segment data")
	return d.Finish("fetch segment reply")
}

// AppendFrame implements rpcutil.Message.
func (a *CleanJobArgs) AppendFrame(b []byte) []byte { return binary.AppendUvarint(b, a.JobSeq) }

// DecodeFrame implements rpcutil.Message.
func (a *CleanJobArgs) DecodeFrame(b []byte) error {
	d := rpcutil.NewReader(b)
	a.JobSeq = d.Uvarint("clean job seq")
	return d.Finish("clean job args")
}

// AppendFrame implements rpcutil.Message: a zero-byte body.
func (*Empty) AppendFrame(b []byte) []byte { return b }

// DecodeFrame implements rpcutil.Message: the body must stay zero bytes.
func (*Empty) DecodeFrame(b []byte) error { return rpcutil.NewReader(b).Finish("empty message") }
