package wire

import (
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
// frame's own buffer, which nothing else refers to.
type Frame struct {
	Kind    string
	Payload []byte
	SID     uint64
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

// WithWindow overrides the initial per-stream flow-control window for
// sessions multiplexed over this connection (default DefaultWindow).
// Each direction's window is announced on stream open (open and
// open-ack), so two ends configured differently run asymmetric windows.
// A frame costing more than the window can
// never be covered and is rejected with ErrFrameTooLarge, so the
// window must exceed the largest frame the protocol ships — for PSC at
// the default chunk/block sizes that is a ~256 KiB share chunk, making
// 512 KiB a safe practical floor. With adaptive windows enabled (see
// WithAdaptiveWindow) this is only the starting point; without them it
// is the WAN-tuning knob: a window of at least the bandwidth-delay
// product keeps a stream's pipe full.
func WithWindow(n int) Option {
	return func(c *Conn) {
		if n > 0 {
			c.window = int64(n)
		}
	}
}

// WithAdaptiveWindow enables receiver-driven window autotuning for
// streams multiplexed over this connection: each stream measures the
// credit-grant round-trip time, grows its receive window toward the
// measured bandwidth-delay product (slow-start doubling, then additive
// increase), and halves it when RTT inflation signals congestion —
// AIMD, never exceeding cap bytes (cap <= 0 selects
// DefaultWindowCap). Growth is granted as extra credit in the same
// window-update frame that carries refunds; a peer that left the option
// off still honours the grants, and its own receive windows stay fixed.
func WithAdaptiveWindow(cap int) Option {
	return func(c *Conn) {
		c.adaptive = true
		if cap > 0 {
			c.windowCap = int64(cap)
		} else {
			c.windowCap = DefaultWindowCap
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
	window    int64
	windowCap int64
	adaptive  bool
	wrap      func(net.Conn) net.Conn
	readMu    sync.Mutex
	writeMu   sync.Mutex
	lenBuf    [lenPrefix]byte
	// wbuf is the frame assembly buffer, reused under writeMu; it grows
	// to the largest frame sent, which maxFrame bounds.
	wbuf []byte
}

// NewConn wraps a stream connection.
func NewConn(c net.Conn, opts ...Option) *Conn {
	conn := &Conn{c: c, maxFrame: DefaultMaxFrame, window: DefaultWindow}
	for _, o := range opts {
		o(conn)
	}
	if conn.wrap != nil {
		conn.c = conn.wrap(conn.c)
	}
	return conn
}

// MaxFrame reports the connection's frame cap.
func (c *Conn) MaxFrame() int { return c.maxFrame }

// Window reports the flow-control window sessions over this connection
// grant each stream.
func (c *Conn) Window() int64 { return c.window }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// Send encodes v as the payload of a frame with the given kind.
func (c *Conn) Send(kind string, v any) error {
	payload, err := EncodePayload(v)
	if err != nil {
		return fmt.Errorf("wire: encode %q: %w", kind, err)
	}
	return c.SendFrame(Frame{Kind: kind, Payload: payload})
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
	if len(f.Kind) > maxKindLength {
		return fmt.Errorf("wire: frame kind of %d bytes exceeds %d", len(f.Kind), maxKindLength)
	}
	body := frameHeader + len(f.Kind) + len(f.Payload)
	if body > c.maxFrame {
		return ErrFrameTooLarge
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	b := c.wbuf[:0]
	b = binary.BigEndian.AppendUint32(b, uint32(body))
	b = binary.BigEndian.AppendUint16(b, uint16(len(f.Kind)))
	b = append(b, f.Kind...)
	b = binary.BigEndian.AppendUint64(b, f.SID)
	b = append(b, f.Payload...)
	c.wbuf = b
	_, err := c.c.Write(b)
	return err
}

// Recv reads the next frame. The body is the frame's one allocation:
// Kind is copied out of it and Payload is a sub-slice of it, capped at
// its own length, so the frame — and whatever message is parsed from
// its payload — owns the body and nothing else refers to it.
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
	body := make([]byte, n)
	if _, err := io.ReadFull(c.c, body); err != nil {
		return Frame{}, err
	}
	return parseFrame(body)
}

// parseFrame splits a frame body into its fields, aliasing the payload.
func parseFrame(body []byte) (Frame, error) {
	kindLen := int(binary.BigEndian.Uint16(body))
	if kindLen > len(body)-frameHeader {
		return Frame{}, fmt.Errorf("%w: kind of %d bytes overruns a body of %d", ErrBadFrame, kindLen, len(body))
	}
	kind := body[2 : 2+kindLen]
	rest := body[2+kindLen:]
	return Frame{
		Kind:    string(kind),
		SID:     binary.BigEndian.Uint64(rest),
		Payload: rest[8:len(rest):len(rest)],
	}, nil
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
func EncodePayload(v any) ([]byte, error) {
	if a, ok := v.(WireAppender); ok {
		return a.AppendWire(nil), nil
	}
	var buf writerBuf
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.b, nil
}

// DecodePayload decodes a payload into out (a pointer): through out's
// ParseWire method when it has one (see WireParser) — the parsed
// message then aliases b, which the caller must not reuse — and through
// gob otherwise.
func DecodePayload(b []byte, out any) error {
	if p, ok := out.(WireParser); ok {
		return p.ParseWire(b)
	}
	return gob.NewDecoder(readerBuf{b: b, pos: new(int)}).Decode(out)
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

type readerBuf struct {
	b   []byte
	pos *int
}

func (r readerBuf) Read(p []byte) (int, error) {
	if *r.pos >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[*r.pos:])
	*r.pos += n
	return n, nil
}

// Pipe returns two connected in-memory Conns for tests and single
// process deployments.
func Pipe(opts ...Option) (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a, opts...), NewConn(b, opts...)
}
