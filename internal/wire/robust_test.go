package wire

import (
	"encoding/binary"
	"net"
	"testing"
	"testing/quick"
	"time"
)

// TestRecvGarbageDoesNotPanic feeds arbitrary byte salads to the frame
// decoder: it must error, never panic, and never allocate absurdly.
func TestRecvGarbageDoesNotPanic(t *testing.T) {
	f := func(payload []byte) bool {
		server, client := net.Pipe()
		defer server.Close()
		conn := NewConn(client)
		defer conn.Close()

		go func() {
			// A plausible length prefix followed by garbage.
			var lenb [4]byte
			n := uint32(len(payload))
			binary.BigEndian.PutUint32(lenb[:], n)
			server.Write(lenb[:])
			server.Write(payload)
			server.Close()
		}()
		conn.c.SetDeadline(time.Now().Add(2 * time.Second))
		_, err := conn.Recv()
		return err != nil // garbage must never decode into a valid frame silently... or may decode; just must not panic
	}
	// Errors are expected for essentially all inputs; a rare accidental
	// valid gob is tolerable, so only panics fail the test.
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Recv panicked: %v", r)
		}
	}()
	_ = quick.Check(f, &quick.Config{MaxCount: 200})
}

// TestRecvHugeLengthPrefixRejected: a length prefix beyond the
// connection's frame cap must be rejected before any allocation.
func TestRecvHugeLengthPrefixRejected(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	conn := NewConn(client)
	defer conn.Close()
	go func() {
		var lenb [4]byte
		binary.BigEndian.PutUint32(lenb[:], DefaultMaxFrame+1)
		server.Write(lenb[:])
	}()
	conn.c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Recv(); err != ErrFrameTooLarge {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

// TestRecvTruncatedFrame: a frame cut mid-payload errors rather than
// blocking forever (the peer closed).
func TestRecvTruncatedFrame(t *testing.T) {
	server, client := net.Pipe()
	conn := NewConn(client)
	defer conn.Close()
	go func() {
		var lenb [4]byte
		binary.BigEndian.PutUint32(lenb[:], 100)
		server.Write(lenb[:])
		server.Write([]byte("short"))
		server.Close()
	}()
	conn.c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Recv(); err == nil {
		t.Fatal("truncated frame must error")
	}
}

// TestConcurrentSendersSafe: two goroutines sending on one conn must
// not interleave frames (writeMu) — the receiver sees two valid frames.
func TestConcurrentSendersSafe(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	msg := testMsg{Blobs: [][]byte{make([]byte, 32*1024)}}
	errCh := make(chan error, 2)
	go func() { errCh <- a.Send("one", msg) }()
	go func() { errCh <- a.Send("two", msg) }()
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		f, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		seen[f.Kind] = true
	}
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if !seen["one"] || !seen["two"] {
		t.Fatalf("frames corrupted by concurrent senders: %v", seen)
	}
}
