package distmr

// Frame-codec implementations (rpcutil.Message) for every RPC arg and
// reply type. The five structured requests frame as their own wire.go
// encoding, version byte included; the replies and scalar requests of
// proto.go mirror their struct fields in order, with no version byte of
// their own — the connection stream (rpcutil frame codec) is versioned
// already, and these cannot change without it changing too.
//
// Bulk bytes are copied once per hop. The four messages that carry them
// — TaskDescriptor (the split), Heartbeat (reduce outputs), ReadFileReply
// (a schimmy base or side file) and FetchSegmentsReply (shuffle ranges)
// — are rpcutil.Bulky, so the codec writes those bytes from their
// owners' buffers, and rpcutil.Owner, so a decoded one keeps the frame it
// arrived in and aliases it. Every other decoder reads a pooled buffer
// and keeps none of it: the Reader copies strings out, and HandoffReply
// copies its drain-path bytes.

import (
	"encoding/binary"
	"fmt"

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
	_ rpcutil.Message = (*FetchSegmentsArgs)(nil)
	_ rpcutil.Message = (*FetchSegmentsReply)(nil)
	_ rpcutil.Message = (*CleanJobArgs)(nil)
	_ rpcutil.Message = (*Empty)(nil)

	_ rpcutil.Bulky = (*TaskDescriptor)(nil)
	_ rpcutil.Owner = (*TaskDescriptor)(nil)
	_ rpcutil.Bulky = (*Heartbeat)(nil)
	_ rpcutil.Owner = (*Heartbeat)(nil)
	_ rpcutil.Bulky = (*ReadFileReply)(nil)
	_ rpcutil.Owner = (*ReadFileReply)(nil)
	_ rpcutil.Bulky = (*FetchSegmentsReply)(nil)
	_ rpcutil.Owner = (*FetchSegmentsReply)(nil)
)

// AppendFrame implements rpcutil.Message.
func (j *JoinRequest) AppendFrame(b []byte) []byte { return append(b, EncodeJoin(j)...) }

// DecodeFrame implements rpcutil.Message.
func (j *JoinRequest) DecodeFrame(b []byte) error { return j.decode(b) }

// AppendFrame implements rpcutil.Message.
func (h *Heartbeat) AppendFrame(b []byte) []byte { return AppendHeartbeat(b, h) }

// OwnsFrame implements rpcutil.Owner.
func (*Heartbeat) OwnsFrame() {}

// DecodeFrame implements rpcutil.Message.
func (h *Heartbeat) DecodeFrame(b []byte) error { return h.decode(b) }

// AppendFrame implements rpcutil.Message.
func (r *Retire) AppendFrame(b []byte) []byte { return append(b, EncodeRetire(r)...) }

// DecodeFrame implements rpcutil.Message.
func (r *Retire) DecodeFrame(b []byte) error { return r.decode(b) }

// AppendFrame implements rpcutil.Message.
func (h *HandoffDescriptor) AppendFrame(b []byte) []byte { return append(b, EncodeHandoff(h)...) }

// DecodeFrame implements rpcutil.Message.
func (h *HandoffDescriptor) DecodeFrame(b []byte) error { return h.decode(b) }

// AppendFrame implements rpcutil.Message.
func (t *TaskDescriptor) AppendFrame(b []byte) []byte { return AppendTask(b, t) }

// OwnsFrame implements rpcutil.Owner.
func (*TaskDescriptor) OwnsFrame() {}

// DecodeFrame implements rpcutil.Message.
func (t *TaskDescriptor) DecodeFrame(b []byte) error { return t.decode(b) }

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
func (a *ReadFileArgs) AppendFrame(b []byte) []byte {
	return rpcutil.AppendBool(rpcutil.AppendString(b, a.Name), a.Charged)
}

// DecodeFrame implements rpcutil.Message.
func (a *ReadFileArgs) DecodeFrame(b []byte) error {
	d := rpcutil.NewReader(b)
	a.Name = d.Str("read file name")
	a.Charged = d.Bool("read file charged")
	return d.Finish("read file args")
}

// AppendFrame implements rpcutil.Message.
func (r *ReadFileReply) AppendFrame(b []byte) []byte { return r.AppendBulk(b, inline) }

// AppendBulk implements rpcutil.Bulky.
func (r *ReadFileReply) AppendBulk(b []byte, put func(b, p []byte) []byte) []byte {
	return putBytes(b, r.Data, put)
}

// OwnsFrame implements rpcutil.Owner.
func (*ReadFileReply) OwnsFrame() {}

// DecodeFrame implements rpcutil.Message.
func (r *ReadFileReply) DecodeFrame(b []byte) error {
	d := rpcutil.NewReader(b)
	r.Data = d.Bytes("read file data")
	return d.Finish("read file reply")
}

// AppendFrame implements rpcutil.Message.
func (a *FetchSegmentsArgs) AppendFrame(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(a.Ranges)))
	for _, r := range a.Ranges {
		b = rpcutil.AppendString(b, r.Name)
		b = binary.AppendVarint(b, r.Offset)
		b = binary.AppendVarint(b, r.Length)
	}
	return b
}

// DecodeFrame implements rpcutil.Message. A range that starts before its
// object, has a negative length or overflows is refused here; whether it
// ends inside the object is checked where it is read.
func (a *FetchSegmentsArgs) DecodeFrame(b []byte) error {
	d := rpcutil.NewReader(b)
	a.Ranges = nil
	if n := d.Count("fetch ranges"); n > 0 {
		a.Ranges = make([]FetchRange, n)
		for i := range a.Ranges {
			r := &a.Ranges[i]
			r.Name = d.Str("fetch range name")
			r.Offset = d.Varint("fetch range offset")
			r.Length = d.Varint("fetch range length")
			if r.Offset < 0 || r.Length < 0 || r.Offset+r.Length < 0 {
				d.Fail("fetch range")
			}
		}
	}
	return d.Finish("fetch segments args")
}

// check fails a reply that does not hold exactly the requested bytes; the
// fetch then fails like a transport error.
func (a *FetchSegmentsArgs) check(r *FetchSegmentsReply) error {
	var want int64
	for _, rg := range a.Ranges {
		want += rg.Length
	}
	if int64(len(r.Data)) != want {
		return fmt.Errorf("distmr: fetch reply holds %d bytes for %d requested", len(r.Data), want)
	}
	return nil
}

// AppendFrame implements rpcutil.Message.
func (r *FetchSegmentsReply) AppendFrame(b []byte) []byte { return r.AppendBulk(b, inline) }

// AppendBulk implements rpcutil.Bulky: Data and then parts, as one field.
func (r *FetchSegmentsReply) AppendBulk(b []byte, put func(b, p []byte) []byte) []byte {
	n := len(r.Data)
	for _, p := range r.parts {
		n += len(p)
	}
	b = put(binary.AppendUvarint(b, uint64(n)), r.Data)
	for _, p := range r.parts {
		b = put(b, p)
	}
	return b
}

// OwnsFrame implements rpcutil.Owner.
func (*FetchSegmentsReply) OwnsFrame() {}

// DecodeFrame implements rpcutil.Message.
func (r *FetchSegmentsReply) DecodeFrame(b []byte) error {
	d := rpcutil.NewReader(b)
	r.Data, r.parts = d.Bytes("fetch segments data"), nil
	return d.Finish("fetch segments reply")
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
