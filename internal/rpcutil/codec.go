package rpcutil

// The frame codec: a replacement for net/rpc's default codec that puts
// the RPC envelope on length-prefixed varint frames (DESIGN.md §13).
// Every arg and reply type implements Message and encodes itself; the
// codec adds the call header and one length prefix, nothing else, so
// the message a caller builds is the message on the wire. A body that
// is not a Message fails the call with an error naming its type. Bulk
// bytes are copied once per hop: a Bulky message's are written from their
// owners' buffers, and an Owner's frame is read into a buffer it keeps.
//
// Stream layout: each side writes one version byte before its first
// message, then back-to-back messages.
//
//	request  = seq uvarint, method lenBytes, body
//	response = seq uvarint, method lenBytes, error lenBytes, body
//	body     = lenBytes(Message frame); empty on an error response
//	lenBytes = len uvarint, len bytes
//
// Like the payload codecs, a decoder accepts exactly its own version:
// master, workers and aug_proc are deployed from one build (DESIGN.md
// §13), so a mismatch is a deployment bug to surface, not a case to
// bridge.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/rpc"
)

// Message is implemented by every RPC arg and reply type. DecodeFrame
// receives exactly the encoded bytes produced by AppendFrame. Unless the
// message is an Owner, the slice is a pooled buffer that is recycled when
// the call returns, so DecodeFrame must copy anything it retains.
type Message interface {
	AppendFrame(b []byte) []byte
	DecodeFrame(b []byte) error
}

// Owner marks a Message whose DecodeFrame keeps slices of its input: the
// codec reads its frame into a fresh buffer of exactly its length, which
// the decoded message may alias for as long as it lives.
type Owner interface{ OwnsFrame() }

// Bulky is a Message whose bulk byte fields (a split, a file, a reduce
// output) the codec writes from their owners' buffers. AppendBulk appends
// the frame as AppendFrame does, but hands each bulk field p to put with
// the frame so far and goes on appending to what put returns; with a put
// that appends p, AppendBulk is the whole frame.
type Bulky interface {
	AppendBulk(b []byte, put func(b, p []byte) []byte) []byte
}

// bulkField is a bulk field p to send after the encode buffer's first at bytes.
type bulkField struct {
	at int
	p  []byte
}

// frameCodecVersion is the connection-stream version. Bump it on any
// change to the envelope layout above; payload formats version
// themselves separately (distmr's wireVersion). Version 2 dropped the
// per-body tag byte together with the gob fallback it selected.
const frameCodecVersion byte = 2

// maxFrameBytes bounds a single body or string read, so a corrupt or
// hostile length prefix cannot force an arbitrary allocation.
const maxFrameBytes = 1 << 30

// frameCodec is the transport half shared by both codec roles. net/rpc
// serializes writes (client request mutex, server sending mutex) and
// reads from a single goroutine per connection, so the codec itself
// needs no locking.
type frameCodec struct {
	conn    io.Closer
	r       *bufio.Reader
	w       *bufio.Writer
	sentVer bool
	gotVer  bool
	// names interns method strings: a connection carries a handful of
	// distinct methods over thousands of messages, so decoding each
	// occurrence to a fresh string would be pure garbage.
	names map[string]string
	// bulk holds the bulk fields of the frame being sent; put is putBulk.
	bulk    []bulkField
	bulkLen int
	put     func(b, p []byte) []byte
}

func newFrameCodec(conn io.ReadWriteCloser) frameCodec {
	return frameCodec{
		conn:  conn,
		r:     bufio.NewReaderSize(conn, 16<<10),
		w:     bufio.NewWriterSize(conn, 16<<10),
		names: make(map[string]string, 8),
	}
}

// send writes one complete message — header, then the body's own frame
// behind a length prefix — and flushes. Responses carry an error string;
// requests do not (hasErr). An error response has an empty body (net/rpc
// passes a placeholder struct there). Nothing is written before the body
// is known to be a Message, so a refused request leaves the stream intact.
func (c *frameCodec) send(seq uint64, method, errStr string, hasErr bool, body any) error {
	m, ok := body.(Message)
	if !ok && errStr == "" {
		if !hasErr {
			return fmt.Errorf("rpcutil: %s arg type %T does not implement Message", method, body)
		}
		// net/rpc only logs a WriteResponse error and leaves the caller
		// waiting; answer the call with the error instead.
		errStr = fmt.Sprintf("rpcutil: %s reply type %T does not implement Message", method, body)
	}
	hdr, enc := GetBuf(), GetBuf()
	defer PutBuf(hdr)
	defer PutBuf(enc)
	b := binary.AppendUvarint((*hdr)[:0], seq)
	b = AppendString(b, method)
	if hasErr {
		b = AppendString(b, errStr)
	}
	var frame []byte
	if bm, ok := m.(Bulky); ok && errStr == "" {
		if c.put == nil {
			c.put = c.putBulk
		}
		frame = bm.AppendBulk((*enc)[:0], c.put)
	} else if errStr == "" {
		frame = m.AppendFrame((*enc)[:0])
	}
	*enc = frame[:0]
	b = binary.AppendUvarint(b, uint64(len(frame)+c.bulkLen))
	*hdr = b[:0]
	// bufio.Writer errors are sticky, so Flush reports the first one.
	if !c.sentVer {
		c.w.WriteByte(frameCodecVersion)
		c.sentVer = true
	}
	c.w.Write(b)
	at := 0
	for _, f := range c.bulk {
		c.w.Write(frame[at:f.at])
		c.w.Write(f.p)
		at = f.at
	}
	c.w.Write(frame[at:])
	clear(c.bulk)
	c.bulk, c.bulkLen = c.bulk[:0], 0
	return c.w.Flush()
}

// putBulk is the codec's put: it notes where p goes in the frame.
func (c *frameCodec) putBulk(b, p []byte) []byte {
	c.bulk = append(c.bulk, bulkField{at: len(b), p: p})
	c.bulkLen += len(p)
	return b
}

// checkVersion consumes the peer's version byte before the first read.
func (c *frameCodec) checkVersion() error {
	if c.gotVer {
		return nil
	}
	v, err := c.r.ReadByte()
	if err != nil {
		return err
	}
	if v != frameCodecVersion {
		return fmt.Errorf("rpcutil: peer speaks frame-codec version %d, this binary speaks %d", v, frameCodecVersion)
	}
	c.gotVer = true
	return nil
}

func (c *frameCodec) readLen(what string) (int, error) {
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return 0, err
	}
	if n > maxFrameBytes {
		return 0, fmt.Errorf("rpcutil: %s length %d exceeds limit", what, n)
	}
	return int(n), nil
}

// readString reads a length-prefixed string, interning repeats.
func (c *frameCodec) readString(what string) (string, error) {
	n, err := c.readLen(what)
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", nil
	}
	buf := GetBuf()
	defer PutBuf(buf)
	p := *buf
	if cap(p) < n {
		p = make([]byte, n)
		*buf = p[:0]
	}
	p = p[:n]
	if _, err := io.ReadFull(c.r, p); err != nil {
		return "", err
	}
	if s, ok := c.names[string(p)]; ok {
		return s, nil
	}
	s := string(p)
	c.names[s] = s
	return s, nil
}

// readBody reads one body frame and decodes it into body (an Owner's out
// of a fresh buffer, any other's out of a pooled one). A nil body
// discards the frame (net/rpc's convention for unwanted bodies); so does
// a body that is not a Message, which keeps the stream in step while the
// call fails.
func (c *frameCodec) readBody(body any) error {
	n, err := c.readLen("body")
	if err != nil {
		return err
	}
	m, ok := body.(Message)
	if !ok {
		if _, err := c.r.Discard(n); err != nil {
			return err
		}
		if body == nil {
			return nil
		}
		return fmt.Errorf("rpcutil: body type %T does not implement Message", body)
	}
	var p []byte
	if _, own := m.(Owner); own {
		p = make([]byte, n)
	} else {
		buf := GetBuf()
		defer PutBuf(buf)
		p = append((*buf)[:0], make([]byte, n)...)
		*buf = p[:0]
	}
	if _, err := io.ReadFull(c.r, p); err != nil {
		return err
	}
	return m.DecodeFrame(p)
}

func (c *frameCodec) Close() error { return c.conn.Close() }

type clientCodec struct{ frameCodec }

// NewClientCodec wraps conn in the frame codec's client half. The
// server side must serve with NewServerCodec; DialRPC pairs them.
func NewClientCodec(conn io.ReadWriteCloser) rpc.ClientCodec {
	return &clientCodec{newFrameCodec(conn)}
}

func (c *clientCodec) WriteRequest(r *rpc.Request, body any) error {
	return c.send(r.Seq, r.ServiceMethod, "", false, body)
}

func (c *clientCodec) ReadResponseHeader(r *rpc.Response) error {
	if err := c.checkVersion(); err != nil {
		return err
	}
	seq, err := binary.ReadUvarint(c.r)
	if err != nil {
		return err
	}
	r.Seq = seq
	if r.ServiceMethod, err = c.readString("method"); err != nil {
		return err
	}
	r.Error, err = c.readString("error")
	return err
}

func (c *clientCodec) ReadResponseBody(body any) error { return c.readBody(body) }

type serverCodec struct{ frameCodec }

// NewServerCodec wraps conn in the frame codec's server half, for
// rpc.Server.ServeCodec.
func NewServerCodec(conn io.ReadWriteCloser) rpc.ServerCodec {
	return &serverCodec{newFrameCodec(conn)}
}

func (c *serverCodec) ReadRequestHeader(r *rpc.Request) error {
	if err := c.checkVersion(); err != nil {
		return err
	}
	seq, err := binary.ReadUvarint(c.r)
	if err != nil {
		return err
	}
	r.Seq = seq
	r.ServiceMethod, err = c.readString("method")
	return err
}

func (c *serverCodec) ReadRequestBody(body any) error { return c.readBody(body) }

func (c *serverCodec) WriteResponse(r *rpc.Response, body any) error {
	return c.send(r.Seq, r.ServiceMethod, r.Error, true, body)
}
