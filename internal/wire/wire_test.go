package wire

import (
	"errors"
	"sync"
	"testing"
	"time"
)

type testMsg struct {
	Round int
	Blobs [][]byte
	Name  string
}

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	want := testMsg{Round: 3, Blobs: [][]byte{{1, 2}, {3}}, Name: "dc-1"}
	done := make(chan error, 1)
	go func() { done <- a.Send("report", want) }()

	var got testMsg
	if err := b.Expect("report", &got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got.Round != want.Round || got.Name != want.Name || len(got.Blobs) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestExpectKindMismatch(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	go a.Send("hello", testMsg{})
	err := b.Expect("goodbye", nil)
	if err == nil {
		t.Fatal("kind mismatch must error")
	}
}

func TestRecvAfterClose(t *testing.T) {
	a, b := Pipe()
	b.Close()
	a.Close()
	if _, err := a.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestTCPPlain(t *testing.T) {
	ln, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		var m testMsg
		if err := c.Expect("ping", &m); err != nil {
			t.Error(err)
			return
		}
		if err := c.Send("pong", testMsg{Round: m.Round + 1}); err != nil {
			t.Error(err)
		}
	}()

	c, err := Dial(ln.Addr().String(), nil, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send("ping", testMsg{Round: 1}); err != nil {
		t.Fatal(err)
	}
	var reply testMsg
	if err := c.Expect("pong", &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Round != 2 {
		t.Fatalf("reply: %+v", reply)
	}
	wg.Wait()
}

func TestTLSPinnedSuccess(t *testing.T) {
	id, err := GenerateIdentity("tally", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := Listen("127.0.0.1:0", id.ServerTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var m testMsg
		if c.Expect("hello", &m) == nil {
			c.Send("ack", m)
		}
	}()

	c, err := Dial(ln.Addr().String(), ClientTLS(id.SPKI()), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send("hello", testMsg{Name: "sk-0"}); err != nil {
		t.Fatal(err)
	}
	var got testMsg
	if err := c.Expect("ack", &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "sk-0" {
		t.Fatalf("ack: %+v", got)
	}
}

func TestTLSPinMismatchRejected(t *testing.T) {
	server, _ := GenerateIdentity("tally", time.Hour)
	imposter, _ := GenerateIdentity("tally", time.Hour) // same name, different key
	ln, err := Listen("127.0.0.1:0", server.ServerTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Recv() // force handshake progress
			c.Close()
		}
	}()

	c, err := Dial(ln.Addr().String(), ClientTLS(imposter.SPKI()), 2*time.Second)
	if err == nil {
		// TLS handshakes may be lazy; force one.
		err = c.Send("x", testMsg{})
		c.Close()
	}
	if err == nil {
		t.Fatal("pin mismatch must fail the handshake")
	}
}

func TestIdentityFingerprint(t *testing.T) {
	id, err := GenerateIdentity("cp-1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fp := id.Fingerprint()
	if len(fp) != 64 {
		t.Fatalf("fingerprint length %d", len(fp))
	}
	id2, _ := GenerateIdentity("cp-1", time.Hour)
	if id2.Fingerprint() == fp {
		t.Fatal("distinct identities must have distinct fingerprints")
	}
}

func TestFrameSizeLimit(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	huge := Frame{Kind: "x", Payload: make([]byte, DefaultMaxFrame+1)}
	if err := a.SendFrame(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame: %v", err)
	}
	// A connection may raise its cap explicitly.
	big, small := Pipe(WithMaxFrame(4 << 20))
	defer big.Close()
	defer small.Close()
	go big.SendFrame(Frame{Kind: "x", Payload: make([]byte, DefaultMaxFrame+1)})
	if _, err := small.Recv(); err != nil {
		t.Fatalf("raised cap: %v", err)
	}
}

func TestEncodeDecodePayload(t *testing.T) {
	in := testMsg{Round: 9, Name: "x"}
	b, err := EncodePayload(in)
	if err != nil {
		t.Fatal(err)
	}
	var out testMsg
	if err := DecodePayload(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Round != 9 || out.Name != "x" || out.Blobs != nil {
		t.Fatalf("payload round trip: %+v", out)
	}
	if err := DecodePayload([]byte{1, 2, 3}, &out); err == nil {
		t.Fatal("garbage payload must fail")
	}
}

// serve accepts connections until the listener closes, invoking handle
// in a new goroutine per connection. It returns after the listener is
// closed and all handlers have finished.
func serve(ln Listener, handle func(*Conn)) {
	var wg sync.WaitGroup
	for {
		c, err := ln.Accept()
		if err != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Close()
			handle(c)
		}()
	}
	wg.Wait()
}

func TestServeHandlesMultipleConnections(t *testing.T) {
	ln, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	served := 0
	done := make(chan struct{})
	go func() {
		serve(ln, func(c *Conn) {
			var m testMsg
			if c.Expect("n", &m) == nil {
				mu.Lock()
				served++
				mu.Unlock()
				c.Send("ok", m)
			}
		})
		close(done)
	}()

	const clients = 5
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(ln.Addr().String(), nil, 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			if err := c.Send("n", testMsg{Round: i}); err != nil {
				t.Error(err)
				return
			}
			var m testMsg
			if err := c.Expect("ok", &m); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	ln.Close()
	<-done
	if served != clients {
		t.Fatalf("served %d of %d", served, clients)
	}
}

func BenchmarkPipeSendRecv(b *testing.B) {
	x, y := Pipe()
	defer x.Close()
	defer y.Close()
	msg := testMsg{Round: 1, Blobs: [][]byte{make([]byte, 1024)}}
	go func() {
		for {
			if _, err := y.Recv(); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Send("m", msg); err != nil {
			b.Fatal(err)
		}
	}
}
