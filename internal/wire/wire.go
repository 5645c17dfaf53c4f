package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// DefaultMaxFrame bounds a single message. Since vectors travel as
// bounded chunks, no honest frame comes close to this; a peer demanding
// more is asking the receiver for an allocation it has no business
// requesting.
const DefaultMaxFrame = 1 << 20

// Frame is the unit of exchange: a message kind tag and an encoded
// payload (see EncodePayload). Kind routing keeps the protocols
// self-describing on the wire without a shared registration of every
// payload type. SID routes the frame to a logical stream when the
// connection carries a multiplexed Session; it is zero on plain
// single-stream connections. A received frame's Payload aliases the
// frame's body, which the frame owns unless ExpectFunc lends it (see
// the package doc's ownership rule).
type Frame struct {
	Kind    string
	Payload []byte
	SID     uint64
	// pooled is the receive buffer the body was read into when it came
	// from bodyPool, and nil otherwise. It travels with the frame —
	// through a Stream's queue and any Messenger wrapper — to the one
	// place that hands it back, ExpectFunc.
	pooled *[pooledBody]byte
}

// pooledBody is the one body size class Recv reads into a recycled
// buffer: bodies of minPooledBody to pooledBody bytes, which Go would
// allocate in its 32 KiB size class anyway — where a full PrivCount
// chunk frame lands. Every other size is allocated for its frame
// alone.
const (
	pooledBody    = 32 << 10
	minPooledBody = 28<<10 + 1
)

// bodyPool holds receive buffers of pooledBody bytes. An array pointer
// is itself the buffer, so a Get that finds the pool empty allocates
// just what make would have.
var bodyPool = sync.Pool{New: func() any { return new([pooledBody]byte) }}

// release clears a pooled body and returns it to bodyPool; a frame
// whose body was allocated for it alone releases nothing.
func (f Frame) release() {
	if f.pooled == nil {
		return
	}
	clear(f.pooled[:])
	bodyPool.Put(f.pooled)
}

// Transport errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrClosed        = errors.New("wire: connection closed")
)

// Messenger is the message-passing surface the protocols run over: a
// whole connection (one party, one round) or one logical Stream of a
// multiplexed Session (one party, many concurrent rounds). Send and
// Recv are each safe for one concurrent caller, so a reader goroutine
// can overlap a writer goroutine — the shape every chunked phase uses.
type Messenger interface {
	Send(kind string, v any) error
	SendFrame(f Frame) error
	Recv() (Frame, error)
	Expect(kind string, out any) error
	Close() error
}

// Option configures a Conn.
type Option func(*Conn)

// WithAdaptiveWindow bounds the growth of the receive windows of
// streams multiplexed over this connection at cap bytes (cap <= 0
// selects DefaultWindowCap, the default). Every stream starts at
// DefaultWindow, measures the credit-grant round-trip time, grows its
// receive window toward the measured bandwidth-delay product
// (slow-start doubling, then additive increase) and halves it when RTT
// inflation signals congestion: AIMD, never past the cap.
func WithAdaptiveWindow(cap int) Option {
	return func(c *Conn) {
		if cap > 0 {
			c.windowCap = int64(cap)
		}
	}
}

// WithTransportWrap interposes f on the underlying transport before
// any framing: NewConn (and therefore Listen/Dial) hands the raw
// net.Conn to f and frames over whatever it returns. This is the hook
// the netem subsystem uses to shape connections with WAN latency and
// bandwidth profiles without the wire package knowing about emulation.
func WithTransportWrap(f func(net.Conn) net.Conn) Option {
	return func(c *Conn) {
		c.wrap = f
	}
}

// Conn is a framed message connection. Send and Recv are each safe for
// one concurrent caller (a reader goroutine plus a writer goroutine).
type Conn struct {
	c         net.Conn
	maxFrame  int
	windowCap int64
	wrap      func(net.Conn) net.Conn
	readMu    sync.Mutex
	writeMu   sync.Mutex
	lenBuf    [lenPrefix]byte
	// lastKind is the kind of the last frame received, under readMu.
	lastKind string
	// wbuf is the frame assembly buffer, reused under writeMu; it grows
	// to the largest frame sent, which maxFrame bounds.
	wbuf []byte
}

// NewConn wraps a stream connection.
func NewConn(c net.Conn, opts ...Option) *Conn {
	conn := &Conn{c: c, maxFrame: DefaultMaxFrame, windowCap: DefaultWindowCap}
	for _, o := range opts {
		o(conn)
	}
	if conn.wrap != nil {
		conn.c = conn.wrap(conn.c)
	}
	return conn
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// Send encodes v straight into the connection's write buffer, behind
// the frame's envelope, so the payload is written once and handed to
// the transport without another copy or allocation.
func (c *Conn) Send(kind string, v any) error {
	if err := checkKind(kind); err != nil {
		return err
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	b, err := appendPayload(appendEnvelope(c.wbuf[:0], kind, 0), v)
	if err != nil {
		return fmt.Errorf("wire: encode %q: %w", kind, err)
	}
	return c.write(b)
}

// The envelope, in network byte order like the length prefix it grew
// from:
//
//	[u32 body length] [u16 kind length] [kind] [u64 SID] [payload]
//
// The body is everything after the length prefix; the payload is
// whatever follows the SID, so its length needs no field of its own.
const (
	lenPrefix     = 4
	frameHeader   = 2 + 8 // kind length + SID: the smallest body
	maxKindLength = 1<<16 - 1
)

// ErrBadFrame reports a frame whose header contradicts its own length.
var ErrBadFrame = errors.New("wire: malformed frame header")

// SendFrame writes a raw frame: the envelope and a copy of the payload
// are assembled in the connection's write buffer and handed to the
// transport in one Write, so concurrent senders never interleave and a
// TLS or netem transport sees one record's worth of bytes at a time.
func (c *Conn) SendFrame(f Frame) error {
	if err := checkKind(f.Kind); err != nil {
		return err
	}
	if frameHeader+len(f.Kind)+len(f.Payload) > c.maxFrame {
		return ErrFrameTooLarge // before the payload is copied anywhere
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.write(append(appendEnvelope(c.wbuf[:0], f.Kind, f.SID), f.Payload...))
}

// checkKind refuses a kind longer than the envelope's u16 can announce.
func checkKind(kind string) error {
	if len(kind) > maxKindLength {
		return fmt.Errorf("wire: frame kind of %d bytes exceeds %d", len(kind), maxKindLength)
	}
	return nil
}

// appendEnvelope appends a frame's envelope, its body length left for
// write to fill in once the payload behind it is in place.
func appendEnvelope(b []byte, kind string, sid uint64) []byte {
	b = append(b, 0, 0, 0, 0) // [u32 body length]
	b = binary.BigEndian.AppendUint16(b, uint16(len(kind)))
	b = append(b, kind...)
	return binary.BigEndian.AppendUint64(b, sid)
}

// write fills in the body length of the frame assembled in b, keeps b
// as the write buffer, and hands the frame to the transport in one
// Write. The caller holds writeMu. A frame over the cap is refused
// before anything is written, and its buffer is not kept: the write
// buffer grows only to the largest frame actually sent.
func (c *Conn) write(b []byte) error {
	body := len(b) - lenPrefix
	if body > c.maxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b, uint32(body))
	c.wbuf = b
	_, err := c.c.Write(b)
	return err
}

// Recv reads the next frame. Kind is copied out of the body (or is the
// previous frame's, when equal) and Payload is a sub-slice of it,
// capped at its own length. The body is the frame's one allocation,
// except in Go's 32 KiB size class, where it is a buffer from bodyPool
// that only ExpectFunc hands back. Either way the frame owns its body
// until then, and nothing else refers to it.
func (c *Conn) Recv() (Frame, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	if _, err := io.ReadFull(c.c, c.lenBuf[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
			return Frame{}, ErrClosed
		}
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(c.lenBuf[:])
	if n > uint32(c.maxFrame) {
		return Frame{}, ErrFrameTooLarge
	}
	if n < frameHeader {
		return Frame{}, fmt.Errorf("%w: body of %d bytes is shorter than its header", ErrBadFrame, n)
	}
	var pooled *[pooledBody]byte
	var body []byte
	if n >= minPooledBody && n <= pooledBody {
		pooled = bodyPool.Get().(*[pooledBody]byte)
		body = pooled[:n]
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(c.c, body); err != nil {
		return Frame{}, err
	}
	f, err := c.parseFrame(body)
	if err != nil {
		return Frame{}, err
	}
	f.pooled = pooled
	return f, nil
}

// parseFrame splits a frame body into its fields, aliasing the
// payload. A kind equal to the previous frame's reuses its string, so
// a run of chunk frames allocates no Kind. The caller holds readMu.
func (c *Conn) parseFrame(body []byte) (Frame, error) {
	kindLen := int(binary.BigEndian.Uint16(body))
	if kindLen > len(body)-frameHeader {
		return Frame{}, fmt.Errorf("%w: kind of %d bytes overruns a body of %d", ErrBadFrame, kindLen, len(body))
	}
	if kind := body[2 : 2+kindLen]; string(kind) != c.lastKind {
		c.lastKind = string(kind)
	}
	rest := body[2+kindLen:]
	return Frame{
		Kind:    c.lastKind,
		SID:     binary.BigEndian.Uint64(rest),
		Payload: rest[8:len(rest):len(rest)],
	}, nil
}

// ExpectFunc receives the next frame from m, requires its kind to
// match, and lends its payload to fn, which may read it only until it
// returns: the body then goes back to the receive pool, cleared. fn
// must copy whatever it keeps, so it suits a consumer that folds or
// spills a chunk as it lands. The errors read as Expect's, fn's in the
// place of a decode error.
func ExpectFunc(m Messenger, kind string, fn func(payload []byte) error) error {
	f, err := m.Recv()
	if err != nil {
		return err
	}
	defer f.release()
	if f.Kind != kind {
		return fmt.Errorf("wire: expected %q frame, got %q", kind, f.Kind)
	}
	if err := fn(f.Payload); err != nil {
		return fmt.Errorf("wire: decode %q: %w", kind, err)
	}
	return nil
}

// Expect receives the next frame, requires its kind to match, and
// decodes the payload into out.
func (c *Conn) Expect(kind string, out any) error {
	f, err := c.Recv()
	if err != nil {
		return err
	}
	if f.Kind != kind {
		return fmt.Errorf("wire: expected %q frame, got %q", kind, f.Kind)
	}
	if out == nil {
		return nil
	}
	if err := DecodePayload(f.Payload, out); err != nil {
		return fmt.Errorf("wire: decode %q: %w", kind, err)
	}
	return nil
}

// EncodePayload encodes a message as a frame payload. A type with an
// AppendWire method (see WireAppender) writes its own binary form;
// every other value is gob-encoded, and its concrete type must be known
// to the receiving DecodePayload call site. The message's type picks
// the codec, never a setting.
func EncodePayload(v any) ([]byte, error) { return appendPayload(nil, v) }

// appendPayload appends v's EncodePayload encoding to dst: the one
// encoder behind EncodePayload and both Sends, which hand it a buffer
// they own and reuse.
func appendPayload(dst []byte, v any) ([]byte, error) {
	if a, ok := v.(WireAppender); ok {
		return a.AppendWire(dst), nil
	}
	buf := writerBuf{b: dst}
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return dst, err
	}
	return buf.b, nil
}

// DecodePayload decodes a payload into out (a pointer): through out's
// ParseWire method when it has one (see WireParser) — the parsed
// message then aliases b, and lives only as long as b does (the
// package doc's ownership rule) — and through gob otherwise. A
// bytes.Reader is an io.ByteReader, so gob reads it directly instead
// of wrapping it in a bufio.Reader of its own.
func DecodePayload(b []byte, out any) error {
	if p, ok := out.(WireParser); ok {
		return p.ParseWire(b)
	}
	return gob.NewDecoder(bytes.NewReader(b)).Decode(out)
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// Pipe returns two connected in-memory Conns for tests and single
// process deployments.
func Pipe(opts ...Option) (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a, opts...), NewConn(b, opts...)
}
