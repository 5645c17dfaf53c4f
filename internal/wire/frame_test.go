package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// WithMaxFrame overrides the per-connection frame cap, so the codec
// tests can put a frame on either side of a small cap.
func WithMaxFrame(n int) Option {
	return func(c *Conn) { c.maxFrame = n }
}

// byteConn is a net.Conn over a byte script: Recv reads the script,
// SendFrame appends to out. maxRead records the largest buffer a Read
// was handed — the receive path's allocation, seen from outside.
type byteConn struct {
	in      io.Reader
	out     bytes.Buffer
	maxRead int
}

func (c *byteConn) Read(p []byte) (int, error) {
	c.maxRead = max(c.maxRead, len(p))
	return c.in.Read(p)
}
func (c *byteConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *byteConn) Close() error                     { return nil }
func (c *byteConn) LocalAddr() net.Addr              { return nil }
func (c *byteConn) RemoteAddr() net.Addr             { return nil }
func (c *byteConn) SetDeadline(time.Time) error      { return nil }
func (c *byteConn) SetReadDeadline(time.Time) error  { return nil }
func (c *byteConn) SetWriteDeadline(time.Time) error { return nil }

// rawFrame assembles an envelope by hand, with whatever kind length the
// caller claims.
func rawFrame(bodyLen uint32, kindLen uint16, rest []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, bodyLen)
	b = binary.BigEndian.AppendUint16(b, kindLen)
	return append(b, rest...)
}

func encodeFrame(t testing.TB, f Frame, opts ...Option) []byte {
	t.Helper()
	c := &byteConn{}
	if err := NewConn(c, opts...).SendFrame(f); err != nil {
		t.Fatal(err)
	}
	return c.out.Bytes()
}

// FuzzConnRecv feeds arbitrary bytes to Recv: it must never panic,
// never read into a buffer larger than the frame cap, and whatever it
// parses must re-encode to exactly the bytes it was parsed from.
func FuzzConnRecv(f *testing.F) {
	const maxFrame = 1 << 12
	f.Add(encodeFrame(f, Frame{Kind: "psc/chunk", SID: 7, Payload: []byte("payload")}))
	f.Add(encodeFrame(f, Frame{}))
	f.Add(append(encodeFrame(f, Frame{Kind: "a"}), encodeFrame(f, Frame{Kind: "b", Payload: make([]byte, 100)})...))
	f.Add(rawFrame(9, 0, make([]byte, 7)))
	f.Add(rawFrame(12, 3, make([]byte, 10)))
	f.Add(rawFrame(1<<31, 0, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &byteConn{in: bytes.NewReader(data)}
		conn := NewConn(in, WithMaxFrame(maxFrame))
		var back byteConn
		echo := NewConn(&back, WithMaxFrame(maxFrame))
		for {
			fr, err := conn.Recv()
			if err != nil {
				break
			}
			if err := echo.SendFrame(fr); err != nil {
				t.Fatalf("received frame does not re-encode: %v", err)
			}
		}
		if in.maxRead > maxFrame {
			t.Fatalf("Recv read into a %d-byte buffer, frame cap %d", in.maxRead, maxFrame)
		}
		if got := back.out.Bytes(); !bytes.HasPrefix(data, got) {
			t.Fatalf("re-encoded frames %x are not the prefix of the input %x", got, data)
		}
	})
}

// bodyless serves a length prefix and fails the test if Recv comes back
// for the body it announced.
type bodyless struct {
	t      *testing.T
	prefix []byte
}

func (r *bodyless) Read(p []byte) (int, error) {
	if len(r.prefix) == 0 {
		r.t.Errorf("Recv asked for %d body bytes of a frame it had to refuse", len(p))
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, r.prefix)
	r.prefix = r.prefix[n:]
	return n, nil
}

func TestFrameEnvelope(t *testing.T) {
	t.Run("malformed", func(t *testing.T) {
		kind := "kind"
		good := append([]byte(kind), make([]byte, 8)...)
		cases := []struct {
			name string
			raw  []byte
			want error
		}{
			{"body below the minimum header", rawFrame(frameHeader-1, 0, make([]byte, frameHeader-3)), ErrBadFrame},
			{"empty body", rawFrame(0, 0, nil), ErrBadFrame},
			{"kind overruns the body", rawFrame(uint32(2+len(good)), uint16(len(kind)+1), good), ErrBadFrame},
			{"kind leaves no room for the SID", rawFrame(2+8, 1, make([]byte, 8)), ErrBadFrame},
			{"kind length far past the body", rawFrame(uint32(2+len(good)), 0xffff, good), ErrBadFrame},
		}
		for _, tc := range cases {
			conn := NewConn(&byteConn{in: bytes.NewReader(tc.raw)})
			if _, err := conn.Recv(); !errors.Is(err, tc.want) {
				t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
			}
		}
	})

	t.Run("oversized length rejected before allocation", func(t *testing.T) {
		const maxFrame = 1 << 10
		prefix := binary.BigEndian.AppendUint32(nil, maxFrame+1)
		conn := NewConn(&byteConn{in: &bodyless{t: t, prefix: prefix}}, WithMaxFrame(maxFrame))
		if _, err := conn.Recv(); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v, want ErrFrameTooLarge", err)
		}
	})

	t.Run("frame at the cap passes, one byte over does not", func(t *testing.T) {
		const maxFrame = 1 << 10
		kind := "k"
		a, b := Pipe(WithMaxFrame(maxFrame))
		defer a.Close()
		defer b.Close()
		fits := make([]byte, maxFrame-frameHeader-len(kind))
		if err := a.SendFrame(Frame{Kind: kind, Payload: append(fits, 0)}); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("frame over the cap: got %v, want ErrFrameTooLarge", err)
		}
		go a.SendFrame(Frame{Kind: kind, Payload: fits})
		f, err := b.Recv()
		if err != nil || len(f.Payload) != len(fits) {
			t.Fatalf("frame at the cap: %d payload bytes, err %v", len(f.Payload), err)
		}
	})

	t.Run("empty payload and empty kind round trip", func(t *testing.T) {
		for _, want := range []Frame{{Kind: "mux/close", SID: 1<<63 + 5}, {}, {Kind: "k", Payload: []byte{0}}} {
			conn := NewConn(&byteConn{in: bytes.NewReader(encodeFrame(t, want))})
			got, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != want.Kind || got.SID != want.SID || !bytes.Equal(got.Payload, want.Payload) {
				t.Errorf("round trip: got %+v, want %+v", got, want)
			}
			if _, err := conn.Recv(); !errors.Is(err, ErrClosed) {
				t.Errorf("after the only frame: got %v, want ErrClosed", err)
			}
		}
	})

	t.Run("over-long kind refused on send", func(t *testing.T) {
		c := &byteConn{}
		conn := NewConn(c, WithMaxFrame(1<<20))
		if err := conn.SendFrame(Frame{Kind: strings.Repeat("k", maxKindLength+1)}); err == nil {
			t.Fatal("a kind its length field cannot hold was sent")
		}
		if c.out.Len() != 0 {
			t.Fatalf("refused frame wrote %d bytes", c.out.Len())
		}
		if err := conn.SendFrame(Frame{Kind: strings.Repeat("k", maxKindLength)}); err != nil {
			t.Fatalf("longest legal kind: %v", err)
		}
	})

	t.Run("one write per frame", func(t *testing.T) {
		w := &countingConn{}
		conn := NewConn(w)
		for _, n := range []int{0, 10, 32 << 10} {
			if err := conn.Send("privcount/chunk", testMsg{Blobs: [][]byte{make([]byte, n)}}); err != nil {
				t.Fatal(err)
			}
		}
		if w.writes != 3 {
			t.Fatalf("3 frames took %d writes", w.writes)
		}
	})

	t.Run("payload is capped at its own length", func(t *testing.T) {
		a, b := Pipe()
		defer a.Close()
		defer b.Close()
		go a.SendFrame(Frame{Kind: "k", Payload: []byte("abc")})
		f, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if cap(f.Payload) != len(f.Payload) {
			t.Fatalf("payload has %d spare bytes of capacity", cap(f.Payload)-len(f.Payload))
		}
	})
}

type countingConn struct {
	byteConn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return len(p), nil
}

// TestConnSharedWriteBuffer: sixteen goroutines send frames of
// different sizes on one Conn. The frame is assembled in a buffer the
// Conn reuses, so under -race this is the test that the buffer never
// leaves writeMu; without it, a torn frame shows as a payload whose
// bytes disagree with its kind.
func TestConnSharedWriteBuffer(t *testing.T) {
	const senders, perSender = 16, 50
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			kind := string(rune('a' + s))
			for i := 0; i < perSender; i++ {
				payload := bytes.Repeat([]byte{byte(s)}, 1+(s*997+i*131)%5000)
				if err := a.SendFrame(Frame{Kind: kind, SID: uint64(s), Payload: payload}); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	seen := make([]int, senders)
	for i := 0; i < senders*perSender; i++ {
		f, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		s := int(f.SID)
		if s >= senders || f.Kind != string(rune('a'+s)) {
			t.Fatalf("frame %d: kind %q with SID %d", i, f.Kind, f.SID)
		}
		if want := 1 + (s*997+seen[s]*131)%5000; len(f.Payload) != want {
			t.Fatalf("sender %d frame %d: %d payload bytes, want %d", s, seen[s], len(f.Payload), want)
		}
		if bytes.Count(f.Payload, []byte{byte(s)}) != len(f.Payload) {
			t.Fatalf("sender %d frame %d: payload mixed with another sender's bytes", s, seen[s])
		}
		seen[s]++
	}
	wg.Wait()
}
