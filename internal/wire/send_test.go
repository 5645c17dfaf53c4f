package wire_test

import (
	"net"
	"testing"

	"repro/internal/privcount"
	"repro/internal/wire"
)

const kindChunk = "privcount/chunk"

// fullChunk is a PrivCount chunk message at FrameSlots, the largest
// frame a round sends by the thousand.
func fullChunk() *privcount.ValueChunkMsg {
	return &privcount.ValueChunkMsg{Raw: make([]byte, 8*privcount.FrameSlots)}
}

// TestStreamSendDoesNotAllocate: once its buffers have grown, a stream
// sends a full PrivCount chunk without allocating — the payload is
// encoded into the stream's own buffer and copied into the
// connection's. The peer end of the pipe is a bare byte sink, so the
// count is the sending side's alone, and the frames fit the stream's
// opening window, so no credit has to come back.
func TestStreamSendDoesNotAllocate(t *testing.T) {
	const runs = 16
	msg := fullChunk()
	if (runs+1)*(len(msg.Raw)+64) > wire.DefaultWindow {
		t.Fatalf("%d chunks overrun the opening window", runs+1)
	}
	x, y := net.Pipe()
	defer y.Close()
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := y.Read(buf); err != nil {
				return
			}
		}
	}()
	sess := wire.NewSession(wire.NewConn(x), true)
	defer sess.Close()
	st, err := sess.Open(1, "privcount/dc")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if err := st.Send(kindChunk, msg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Stream.Send of a full chunk allocates %.1f times per frame, want 0", allocs)
	}
}

// BenchmarkConnChunkRoundTrip moves full PrivCount chunk frames over a
// pipe, MB/s and B/op: "frame" is the frame path alone (SendFrame of a
// ready payload, Recv), "expect-func" the same frames received through
// ExpectFunc, which lends each body and hands it back to the receive
// pool, and "stream-send" a chunk message through Stream.Send on a
// session pair — encode, frame, flow control and receive together.
func BenchmarkConnChunkRoundTrip(b *testing.B) {
	msg := fullChunk()
	payload, err := wire.EncodePayload(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("frame", func(b *testing.B) {
		x, y := wire.Pipe()
		defer x.Close()
		defer y.Close()
		roundTrip(b, len(payload), recvOnly(y), func() error {
			return x.SendFrame(wire.Frame{Kind: kindChunk, SID: 1, Payload: payload})
		})
	})
	b.Run("expect-func", func(b *testing.B) {
		x, y := wire.Pipe()
		defer x.Close()
		defer y.Close()
		lent := func([]byte) error { return nil }
		roundTrip(b, len(payload), func() error { return wire.ExpectFunc(y, kindChunk, lent) }, func() error {
			return x.SendFrame(wire.Frame{Kind: kindChunk, SID: 1, Payload: payload})
		})
	})
	b.Run("stream-send", func(b *testing.B) {
		x, y := wire.Pipe()
		client, server := wire.NewSession(x, true), wire.NewSession(y, false)
		defer client.Close()
		defer server.Close()
		st, err := client.Open(1, "privcount/dc")
		if err != nil {
			b.Fatal(err)
		}
		peer, err := server.Accept()
		if err != nil {
			b.Fatal(err)
		}
		roundTrip(b, len(payload), recvOnly(peer), func() error { return st.Send(kindChunk, msg) })
	})
}

// recvOnly receives a frame from m and drops it.
func recvOnly(m wire.Messenger) func() error {
	return func() error {
		_, err := m.Recv()
		return err
	}
}

// roundTrip times b.N sends against a goroutine making b.N recv calls.
func roundTrip(b *testing.B, size int, recv, send func() error) {
	b.SetBytes(int64(size))
	b.ReportAllocs()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			if err := recv(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := send(); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}
