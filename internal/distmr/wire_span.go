package distmr

import (
	"encoding/binary"
	"fmt"
	"time"

	"ffmr/internal/rpcutil"
	"ffmr/internal/trace"
)

// Wire encoding for the telemetry-shipping payloads that ride heartbeats
// since wire version 4: drained trace spans (SpanBatch), and absolute
// counter/histogram snapshots of the worker's registry. DESIGN.md §14
// specifies the protocol; the framing follows the §13 conventions
// (version byte on standalone frames, uvarint counts bounded by the
// remaining input, canonical field order).

// SpanBatch is one drain of a worker's tracer, shipped at-least-once on
// heartbeats until a beat is acknowledged. Seq is assigned at drain time
// and is strictly increasing per worker process, so the master can
// discard re-delivered batches by sequence alone: a batch is applied
// exactly once even when the acknowledgement of the beat that carried it
// was lost.
type SpanBatch struct {
	Seq   uint64
	Spans []trace.ShippedSpan
}

// MetricSample is one worker registry counter's absolute value. Shipping
// absolute values (the master applies value - lastSeen) keeps the merge
// idempotent under at-least-once beat delivery, where shipping deltas
// would double-count on a resend.
type MetricSample struct {
	Name  string
	Value int64
}

// HistSample is one worker registry histogram's absolute snapshot, same
// absolute-value discipline as MetricSample. Buckets may be trimmed of
// trailing zeros.
type HistSample struct {
	Name    string
	Count   int64
	Sum     int64
	Buckets []int64
}

func appendShippedSpan(b []byte, s *trace.ShippedSpan) []byte {
	b = binary.AppendVarint(b, s.ID)
	b = binary.AppendVarint(b, s.Parent)
	b = rpcutil.AppendString(b, s.Cat)
	b = rpcutil.AppendString(b, s.Name)
	b = binary.AppendVarint(b, s.TID)
	b = binary.AppendVarint(b, s.Start.UnixNano())
	b = binary.AppendVarint(b, int64(s.Dur))
	b = binary.AppendVarint(b, s.Remote.Run)
	b = binary.AppendVarint(b, s.Remote.Job)
	b = binary.AppendVarint(b, s.Remote.Round)
	b = binary.AppendVarint(b, s.Remote.Span)
	b = binary.AppendUvarint(b, uint64(len(s.Attrs)))
	for i := range s.Attrs {
		a := &s.Attrs[i]
		b = rpcutil.AppendString(b, a.Key)
		b = rpcutil.AppendBool(b, a.IsStr)
		if a.IsStr {
			b = rpcutil.AppendString(b, a.Str)
		} else {
			b = binary.AppendVarint(b, a.Int)
		}
	}
	return b
}

func readShippedSpan(d *rpcutil.Reader, s *trace.ShippedSpan) {
	s.ID = d.Varint("span id")
	s.Parent = d.Varint("span parent")
	s.Cat = d.Str("span cat")
	s.Name = d.Str("span name")
	s.TID = d.Varint("span tid")
	s.Start = time.Unix(0, d.Varint("span start"))
	s.Dur = time.Duration(d.Varint("span dur"))
	s.Remote.Run = d.Varint("span ctx run")
	s.Remote.Job = d.Varint("span ctx job")
	s.Remote.Round = d.Varint("span ctx round")
	s.Remote.Span = d.Varint("span ctx span")
	if n := d.Count("span attrs"); n > 0 {
		s.Attrs = make([]trace.Attr, n)
		for i := range s.Attrs {
			a := &s.Attrs[i]
			a.Key = d.Str("attr key")
			a.IsStr = d.Bool("attr kind")
			if a.IsStr {
				a.Str = d.Str("attr str")
			} else {
				a.Int = d.Varint("attr int")
			}
		}
	}
}

func appendSpanBatchBody(b []byte, sb *SpanBatch) []byte {
	b = binary.AppendUvarint(b, sb.Seq)
	b = binary.AppendUvarint(b, uint64(len(sb.Spans)))
	for i := range sb.Spans {
		b = appendShippedSpan(b, &sb.Spans[i])
	}
	return b
}

func readSpanBatchBody(d *rpcutil.Reader, sb *SpanBatch) {
	sb.Seq = d.Uvarint("span batch seq")
	if n := d.Count("span batch spans"); n > 0 {
		sb.Spans = make([]trace.ShippedSpan, n)
		for i := range sb.Spans {
			readShippedSpan(d, &sb.Spans[i])
		}
	}
}

// AppendSpanBatch appends a standalone wire-encoded span batch to b.
func AppendSpanBatch(b []byte, sb *SpanBatch) []byte {
	b = append(b, wireVersion)
	return appendSpanBatchBody(b, sb)
}

// EncodeSpanBatch serializes a span batch into a fresh buffer.
func EncodeSpanBatch(sb *SpanBatch) []byte {
	return AppendSpanBatch(make([]byte, 0, 64), sb)
}

// DecodeSpanBatch parses a standalone encoded span batch. It never
// panics on malformed input.
func DecodeSpanBatch(data []byte) (*SpanBatch, error) {
	d := rpcutil.NewReader(data)
	if v := d.Byte("version"); d.Err() == nil && v != wireVersion {
		return nil, fmt.Errorf("distmr: unknown span batch wire version %d", v)
	}
	sb := &SpanBatch{}
	readSpanBatchBody(d, sb)
	if err := d.Finish("span batch"); err != nil {
		return nil, err
	}
	return sb, nil
}

// appendCtx appends a trace context (four varints, §14 frame order).
func appendCtx(b []byte, c *trace.Context) []byte {
	b = binary.AppendVarint(b, c.Run)
	b = binary.AppendVarint(b, c.Job)
	b = binary.AppendVarint(b, c.Round)
	b = binary.AppendVarint(b, c.Span)
	return b
}

func readCtx(d *rpcutil.Reader, c *trace.Context) {
	c.Run = d.Varint("ctx run")
	c.Job = d.Varint("ctx job")
	c.Round = d.Varint("ctx round")
	c.Span = d.Varint("ctx span")
}

// AppendContext appends a standalone wire-encoded trace context frame.
func AppendContext(b []byte, c *trace.Context) []byte {
	b = append(b, wireVersion)
	return appendCtx(b, c)
}

// DecodeContext parses a standalone encoded trace context frame. It
// never panics on malformed input.
func DecodeContext(data []byte) (*trace.Context, error) {
	d := rpcutil.NewReader(data)
	if v := d.Byte("version"); d.Err() == nil && v != wireVersion {
		return nil, fmt.Errorf("distmr: unknown context wire version %d", v)
	}
	c := &trace.Context{}
	readCtx(d, c)
	if err := d.Finish("context"); err != nil {
		return nil, err
	}
	return c, nil
}
