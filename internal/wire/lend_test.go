package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

const lendKind = "test/lend"

// payloadForBody returns a payload whose lendKind frame has an n-byte
// body (the envelope after its length prefix), filled with nonzero
// bytes.
func payloadForBody(n int) []byte {
	return bytes.Repeat([]byte{0xC3}, n-frameHeader-len(lendKind))
}

// sendAsync sends frames on c from a goroutine and reports the first
// error, or nil once all are written.
func sendAsync(c *Conn, frames ...Frame) <-chan error {
	done := make(chan error, 1)
	go func() {
		for _, f := range frames {
			if err := c.SendFrame(f); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return done
}

// TestRecvPoolsOnlyTheSizeClass: a body in Go's 32 KiB size class is
// read into a pooled buffer, and a body of any other size — a small
// control frame, a 40 KiB frame, either side of the class's bounds —
// is allocated for its frame alone.
func TestRecvPoolsOnlyTheSizeClass(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	for _, r := range []struct {
		body   int
		pooled bool
	}{
		{100, false},
		{minPooledBody - 1, false},
		{minPooledBody, true},
		{32765, true}, // a full privcount.FrameSlots chunk
		{pooledBody, true},
		{pooledBody + 1, false},
		{40 << 10, false},
	} {
		payload := payloadForBody(r.body)
		sent := sendAsync(a, Frame{Kind: lendKind, Payload: payload})
		f, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Payload, payload) {
			t.Fatalf("%d-byte body: payload garbled", r.body)
		}
		if got := f.pooled != nil; got != r.pooled {
			t.Errorf("%d-byte body: pooled %v, want %v", r.body, got, r.pooled)
		}
	}
}

// lendingWrapper is a Messenger that forwards to another, the way a
// tracing or recording wrapper does.
type lendingWrapper struct{ Messenger }

// TestExpectFuncClearsLentPayload: a payload ExpectFunc lent reads all
// zeros once fn has returned — over a Conn, over a Stream (through the
// stream's queue) and through a wrapping Messenger — so a consumer
// that keeps it past fn reads nothing stale.
func TestExpectFuncClearsLentPayload(t *testing.T) {
	payload := payloadForBody(32765)
	check := func(name string, tx func(Frame) error, rx Messenger) {
		t.Helper()
		sent := make(chan error, 1)
		go func() { sent <- tx(Frame{Kind: lendKind, Payload: payload}) }()
		var kept []byte
		err := ExpectFunc(rx, lendKind, func(p []byte) error {
			if !bytes.Equal(p, payload) {
				return errors.New("payload garbled")
			}
			kept = p
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := <-sent; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(kept) != len(payload) || bytes.ContainsFunc(kept, func(r rune) bool { return r != 0 }) {
			t.Errorf("%s: the lent payload still holds frame bytes after fn returned", name)
		}
	}

	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	check("conn", a.SendFrame, b)
	check("wrapped conn", a.SendFrame, lendingWrapper{b})

	x, y := pipeSessions()
	defer x.Close()
	defer y.Close()
	st, err := x.Open(1, "lend")
	if err != nil {
		t.Fatal(err)
	}
	// Opening sends nothing until the first frame; the acceptor sees
	// the stream once that frame's open has arrived.
	sent := make(chan error, 1)
	go func() { sent <- st.SendFrame(Frame{Kind: "test/open", Payload: []byte{1}}) }()
	peer, err := y.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.Expect("test/open", nil); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	check("stream", st.SendFrame, peer)
	check("wrapped stream", st.SendFrame, lendingWrapper{peer})
}

// TestExpectFuncDoesNotAllocate: in steady state, receiving a 32 KiB
// class frame through ExpectFunc allocates nothing — the body comes
// from the pool and goes back to it. Under -race sync.Pool drops Puts
// at random, so the count is only checked without it.
func TestExpectFuncDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	const runs = 50
	payload := payloadForBody(32765)
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	frames := make([]Frame, runs+2) // one to warm up, AllocsPerRun's own warm-up, then runs
	for i := range frames {
		frames[i] = Frame{Kind: lendKind, Payload: payload}
	}
	sent := sendAsync(a, frames...)
	var sum int
	fn := func(p []byte) error {
		sum += int(p[len(p)-1])
		return nil
	}
	if err := ExpectFunc(b, lendKind, fn); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if err := ExpectFunc(b, lendKind, fn); err != nil {
			t.Fatal(err)
		}
	})
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("ExpectFunc of a 32 KiB-class frame allocates %.1f times per frame, want 0", allocs)
	}
}

// TestExpectFuncErrors: a kind mismatch and an error from fn read
// exactly as Expect's kind and decode errors, and fn's error stays
// reachable through errors.Is.
func TestExpectFuncErrors(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	errBad := errors.New("bad chunk")
	recvBoth := func(kind string, fn func([]byte) error, out any) (lent, expect error) {
		t.Helper()
		f := Frame{Kind: lendKind, Payload: payloadForBody(32765)}
		sent := sendAsync(a, f, f)
		lent = ExpectFunc(b, kind, fn)
		expect = b.Expect(kind, out)
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		return lent, expect
	}

	called := false
	lent, expect := recvBoth("test/other", func([]byte) error { called = true; return nil }, nil)
	if lent == nil || expect == nil || lent.Error() != expect.Error() {
		t.Fatalf("kind mismatch: ExpectFunc %v, Expect %v", lent, expect)
	}
	if called {
		t.Fatal("kind mismatch: fn was lent a payload of the wrong kind")
	}

	lent, expect = recvBoth(lendKind, func([]byte) error { return errBad }, errParser{errBad})
	if lent == nil || expect == nil || lent.Error() != expect.Error() {
		t.Fatalf("fn error: ExpectFunc %v, Expect %v", lent, expect)
	}
	if !errors.Is(lent, errBad) || !strings.Contains(lent.Error(), `decode "`+lendKind+`"`) {
		t.Fatalf("fn error: %v does not wrap fn's error as a decode error", lent)
	}
}

// errParser is a WireParser that refuses every payload with err.
type errParser struct{ err error }

func (p errParser) ParseWire([]byte) error { return p.err }
