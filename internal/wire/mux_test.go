package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// pipeSessions builds a connected initiator/acceptor session pair over
// an in-memory pipe.
func pipeSessions(opts ...Option) (*Session, *Session) {
	a, b := Pipe(opts...)
	return NewSession(a, true), NewSession(b, false)
}

func TestMuxSingleStreamRoundTrip(t *testing.T) {
	client, server := pipeSessions()
	defer client.Close()
	defer server.Close()

	go func() {
		st, err := client.Open(7, "psc/round")
		if err != nil {
			t.Error(err)
			return
		}
		st.Send("hello", testMsg{Round: 7, Name: "cp-0"})
		var reply testMsg
		if err := st.Expect("ack", &reply); err != nil {
			t.Error(err)
		}
		st.Close()
	}()

	st, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if st.Round() != 7 || st.Label() != "psc/round" {
		t.Fatalf("stream metadata: round=%d label=%q", st.Round(), st.Label())
	}
	var m testMsg
	if err := st.Expect("hello", &m); err != nil {
		t.Fatal(err)
	}
	if m.Name != "cp-0" {
		t.Fatalf("got %+v", m)
	}
	if err := st.Send("ack", m); err != nil {
		t.Fatal(err)
	}
	// Peer half-closed; after drain we must see ErrClosed.
	if _, err := st.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after peer close, got %v", err)
	}
}

// TestMuxConcurrentStreams interleaves many streams, each carrying its
// own ordered sequence, in both directions at once.
func TestMuxConcurrentStreams(t *testing.T) {
	client, server := pipeSessions()
	defer client.Close()
	defer server.Close()

	const streams = 8
	const msgs = 20

	// Server: echo every frame back on the same stream.
	go func() {
		for {
			st, err := server.Accept()
			if err != nil {
				return
			}
			go func(st *Stream) {
				for {
					f, err := st.Recv()
					if err != nil {
						return
					}
					if err := st.SendFrame(f); err != nil {
						return
					}
				}
			}(st)
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := client.Open(uint64(i), fmt.Sprintf("s%d", i))
			if err != nil {
				errCh <- err
				return
			}
			defer st.Close()
			for k := 0; k < msgs; k++ {
				want := testMsg{Round: i*1000 + k}
				if err := st.Send("m", want); err != nil {
					errCh <- err
					return
				}
				var got testMsg
				if err := st.Expect("m", &got); err != nil {
					errCh <- err
					return
				}
				if got.Round != want.Round {
					errCh <- fmt.Errorf("stream %d: got %d want %d", i, got.Round, want.Round)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestMuxFlowControlBounds pushes more than a full window through one
// stream while a second stream stays responsive: the sender must block
// on credit, not break the session, and the receiver's queue must stay
// bounded.
func TestMuxFlowControlBounds(t *testing.T) {
	client, server := pipeSessions()
	defer client.Close()
	defer server.Close()

	st, err := client.Open(1, "bulk")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 24 // 24 * 128 KiB = 3 windows worth
	payload := make([]byte, 128<<10)
	sendDone := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := st.SendFrame(Frame{Kind: "bulk", Payload: payload}); err != nil {
				sendDone <- err
				return
			}
		}
		sendDone <- st.Close()
	}()

	srvSt, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// Drain slowly, checking the queue never exceeds the largest window
	// granted so far (the controller may grow it past DefaultWindow).
	got := 0
	for {
		srvSt.mu.Lock()
		if srvSt.rqCost > srvSt.maxAdvertised+int64(server.conn.maxFrame)+frameOverhead {
			srvSt.mu.Unlock()
			t.Fatalf("receive queue overran the window: %d", srvSt.rqCost)
		}
		srvSt.mu.Unlock()
		_, err := srvSt.Recv()
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got++
	}
	if got != frames {
		t.Fatalf("received %d of %d frames", got, frames)
	}
	if err := <-sendDone; err != nil {
		t.Fatal(err)
	}
}

// TestMuxResetIsolatesStreams kills one stream mid-flight and verifies
// a sibling stream on the same session is unaffected — the per-round
// failure isolation the round engine depends on.
func TestMuxResetIsolatesStreams(t *testing.T) {
	client, server := pipeSessions()
	defer client.Close()
	defer server.Close()

	doomed, err := client.Open(1, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := client.Open(2, "healthy")
	if err != nil {
		t.Fatal(err)
	}

	srvDoomed, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	srvHealthy, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}

	doomed.Reset("round aborted")
	if _, err := srvDoomed.Recv(); err == nil || !strings.Contains(err.Error(), "round aborted") {
		t.Fatalf("doomed stream must surface the reset reason, got %v", err)
	}
	if err := doomed.Send("x", testMsg{}); err == nil {
		t.Fatal("send on reset stream must fail")
	}

	// The sibling still works in both directions.
	go srvHealthy.Send("pong", testMsg{Round: 2})
	if err := healthy.Send("ping", testMsg{Round: 1}); err != nil {
		t.Fatal(err)
	}
	var m testMsg
	if err := healthy.Expect("pong", &m); err != nil {
		t.Fatal(err)
	}
	if err := srvHealthy.Expect("ping", &m); err != nil {
		t.Fatal(err)
	}
}

// TestMuxOversizedFrameRejected: a frame that could never be covered by
// a full flow-control window must error immediately instead of blocking
// forever on credit.
func TestMuxOversizedFrameRejected(t *testing.T) {
	client, server := pipeSessions(WithMaxFrame(4 << 20))
	defer client.Close()
	defer server.Close()
	st, err := client.Open(1, "s")
	if err != nil {
		t.Fatal(err)
	}
	err = st.SendFrame(Frame{Kind: "big", Payload: make([]byte, DefaultWindow)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized stream frame: %v", err)
	}
}

// TestMuxFailedChannel: Failed fires on reset (either side) and session
// death, but not on clean close.
func TestMuxFailedChannel(t *testing.T) {
	client, server := pipeSessions()
	defer client.Close()
	defer server.Close()

	st, err := client.Open(1, "s")
	if err != nil {
		t.Fatal(err)
	}
	srvSt, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-srvSt.Failed():
		t.Fatal("Failed fired on a healthy stream")
	default:
	}
	st.Close()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-srvSt.Failed():
		t.Fatal("Failed fired on clean close")
	default:
	}
	srvSt.Reset("done with it")
	select {
	case <-srvSt.Failed():
	case <-time.After(2 * time.Second):
		t.Fatal("Failed did not fire on local reset")
	}
	select {
	case <-st.Failed():
	case <-time.After(2 * time.Second):
		t.Fatal("Failed did not fire on peer reset")
	}
}

// TestMuxSessionDeathWakesStreams closes the underlying conn and checks
// every blocked stream operation returns.
func TestMuxSessionDeathWakesStreams(t *testing.T) {
	client, server := pipeSessions()
	defer server.Close()

	st, err := client.Open(1, "s")
	if err != nil {
		t.Fatal(err)
	}
	recvErr := make(chan error, 1)
	go func() {
		_, err := st.Recv()
		recvErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	client.Close()
	select {
	case err := <-recvErr:
		if err == nil {
			t.Fatal("recv must fail after session close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv still blocked after session close")
	}
	if _, err := client.Open(2, "s"); err == nil {
		t.Fatal("open on dead session must fail")
	}
}

// TestMuxOverTCPWithTLS runs a session pair over a real pinned-TLS
// loopback connection.
func TestMuxOverTCPWithTLS(t *testing.T) {
	id, err := GenerateIdentity("tally", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := Listen("127.0.0.1:0", id.ServerTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	srvDone := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			srvDone <- err
			return
		}
		sess := NewSession(c, false)
		defer sess.Close()
		st, err := sess.Accept()
		if err != nil {
			srvDone <- err
			return
		}
		var m testMsg
		if err := st.Expect("hello", &m); err != nil {
			srvDone <- err
			return
		}
		srvDone <- st.Send("ack", m)
	}()

	c, err := Dial(ln.Addr().String(), ClientTLS(id.SPKI()), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(c, true)
	defer sess.Close()
	st, err := sess.Open(1, "round")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send("hello", testMsg{Name: "dc-1"}); err != nil {
		t.Fatal(err)
	}
	var m testMsg
	if err := st.Expect("ack", &m); err != nil {
		t.Fatal(err)
	}
	if m.Name != "dc-1" {
		t.Fatalf("ack: %+v", m)
	}
	if err := <-srvDone; err != nil {
		t.Fatal(err)
	}
}

// TestMuxConfigurableWindow exercises the stream window end to end:
// several windows of bulk data move correctly (credit-gated, many
// refunds), and a frame exceeding the window is rejected outright even
// when the connection's frame cap would carry it.
func TestMuxConfigurableWindow(t *testing.T) {
	const size = 64 << 10
	client, server := pipeSessions(WithMaxFrame(4 << 20))
	defer client.Close()
	defer server.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st, err := client.Open(1, "bulk")
		if err != nil {
			t.Error(err)
			return
		}
		// A frame costing more than one window can never be covered.
		if err := st.SendFrame(Frame{Kind: "big", Payload: make([]byte, DefaultWindow+1)}); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("oversized frame: got %v, want ErrFrameTooLarge", err)
		}
		// 64 frames of 64 KiB: 4 windows of data, forcing repeated
		// credit refunds.
		for i := 0; i < 64; i++ {
			payload := make([]byte, size)
			payload[0] = byte(i)
			if err := st.SendFrame(Frame{Kind: "bulk", Payload: payload}); err != nil {
				t.Errorf("frame %d: %v", i, err)
				return
			}
		}
		st.Close()
	}()

	st, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		f, err := st.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Kind != "bulk" || len(f.Payload) != size || f.Payload[0] != byte(i) {
			t.Fatalf("frame %d corrupted: kind %q len %d tag %d", i, f.Kind, len(f.Payload), f.Payload[0])
		}
	}
	wg.Wait()
}

// TestMuxIdleStreamRefundsResidualCredit pins the drain-time refund: a
// receiver that consumed just under half a window and then went idle
// must still return the credit, or the sender's next larger frame can
// never be covered and both ends wedge (the PSC decrypt phase once hit
// exactly this with a shrunken window).
func TestMuxIdleStreamRefundsResidualCredit(t *testing.T) {
	client, server := pipeSessions()
	defer client.Close()
	defer server.Close()

	done := make(chan error, 1)
	go func() {
		st, err := client.Open(1, "residual")
		if err != nil {
			done <- err
			return
		}
		// Under half a window: without the drain refund this residual
		// stays unreturned...
		if err := st.SendFrame(Frame{Kind: "a", Payload: make([]byte, 500_000)}); err != nil {
			done <- err
			return
		}
		// ...and this frame needs more credit than the remainder.
		done <- st.SendFrame(Frame{Kind: "b", Payload: make([]byte, 600_000)})
	}()

	st, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a", "b"} {
		f, err := st.Recv()
		if err != nil {
			t.Fatalf("frame %q: %v", want, err)
		}
		if f.Kind != want {
			t.Fatalf("got %q, want %q", f.Kind, want)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sender wedged: residual credit never refunded on idle stream")
	}
}

// TestMuxRejectsOpenInLocalIDSpace hand-writes mux/open frames whose
// stream ID belongs to the receiving side's own half of the ID space
// (or is zero). Accepting one would let the local side's next Open
// silently replace it in the stream table, delivering that round's
// frames to the wrong stream; the session must fail instead. An open
// with the peer's parity is the control.
func TestMuxRejectsOpenInLocalIDSpace(t *testing.T) {
	for _, tc := range []struct {
		name      string
		initiator bool // role of the session under test
		sid       uint64
		ok        bool
	}{
		{"acceptor-gets-even", false, 2, false},
		{"initiator-gets-odd", true, 1, false},
		{"acceptor-gets-zero", false, 0, false},
		{"initiator-gets-zero", true, 0, false},
		{"acceptor-gets-odd", false, 1, true},
		{"initiator-gets-even", true, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peer, local := Pipe()
			sess := NewSession(local, tc.initiator)
			defer sess.Close()
			defer peer.Close()
			go drainConn(peer)
			payload, err := EncodePayload(openMsg{Round: 7, Label: "hostile"})
			if err != nil {
				t.Fatal(err)
			}
			if err := peer.SendFrame(Frame{Kind: kindMuxOpen, SID: tc.sid, Payload: payload}); err != nil {
				t.Fatal(err)
			}
			st, err := sess.Accept()
			if tc.ok {
				if err != nil {
					t.Fatalf("open with the peer's parity refused: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("open with stream id %d inside the local id space was accepted (label %q)", tc.sid, st.Label())
			}
			select {
			case <-sess.Done():
			case <-time.After(10 * time.Second):
				t.Fatal("session survived an open inside its own id space")
			}
		})
	}
}

// TestMuxOpenerStreamsFromFirstFrame streams opener → acceptor from the
// first frame on sixteen sessions at once — the direction TS → CP mix
// input and TS → DC configure frames take, and the shape that once lost
// a window of credit when the acceptor acknowledged opens.
// The deadline turns a wedge into a failure instead of a hung run.
func TestMuxOpenerStreamsFromFirstFrame(t *testing.T) {
	const sessions, frames = 16, 192 // 6 MiB per stream: several windows
	payload := make([]byte, 32<<10)
	errCh := make(chan error, 2*sessions)
	for i := 0; i < sessions; i++ {
		client, server := pipeSessions()
		defer client.Close()
		defer server.Close()
		go func() {
			st, err := client.Open(uint64(i)+1, "first-frame")
			for n := 0; err == nil && n < frames; n++ {
				err = st.SendFrame(Frame{Kind: "bulk", Payload: payload})
			}
			errCh <- err
		}()
		go func() {
			st, err := server.Accept()
			for n := 0; err == nil && n < frames; n++ {
				_, err = st.Recv()
			}
			errCh <- err
		}()
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < 2*sessions; i++ {
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("opener → acceptor streams wedged: %d of %d ends finished in 30 s", i, 2*sessions)
		}
	}
}

// drainConn reads and discards c's frames until it closes, so whatever
// a session under test writes never blocks on the pipe.
func drainConn(c *Conn) {
	for {
		if _, err := c.Recv(); err != nil {
			return
		}
	}
}

// TestMuxProbeFloodKeepsOneWinAck: a peer sends 100 000 probe-carrying
// window updates on one stream and never reads. The control writer
// blocks on its first winack; every later probe replaces the sequence
// of the one winack still queued, so the queue never grows past it.
func TestMuxProbeFloodKeepsOneWinAck(t *testing.T) {
	const probes = 100_000
	peer, local := Pipe()
	sess := NewSession(local, true)
	defer sess.Close()
	defer peer.Close()
	opened := make(chan error, 1)
	go func() { _, err := peer.Recv(); opened <- err }() // the mux/open, then no more reads
	st, err := sess.Open(1, "flood")
	if err != nil {
		t.Fatal(err)
	}
	if err := <-opened; err != nil {
		t.Fatal(err)
	}
	queued := func() int {
		sess.ctrlMu.Lock()
		defer sess.ctrlMu.Unlock()
		return len(sess.ctrlq)
	}
	var buf [winUpdateSize]byte
	longest := 0
	for seq := uint64(1); seq <= probes; seq++ {
		payload := winUpdate{Seq: seq}.AppendWire(buf[:0])
		if err := peer.SendFrame(Frame{Kind: kindMuxWindow, SID: st.id, Payload: payload}); err != nil {
			t.Fatalf("probe %d: %v", seq, err)
		}
		if seq%1000 == 0 {
			longest = max(longest, queued())
		}
	}
	if longest = max(longest, queued()); longest > 1 {
		t.Fatalf("%d probes left %d control frames queued, want at most 1", probes, longest)
	}
}

// TestStreamConcurrentSendsSerialised: eight goroutines Send on one
// stream, against its one-sender contract. Every payload is encoded
// into the stream's one send buffer, so under -race this is the test
// that the buffer never leaves sendMu; without it a frame would carry
// another sender's bytes.
func TestStreamConcurrentSendsSerialised(t *testing.T) {
	const senders, perSender = 8, 40
	client, server := pipeSessions()
	defer client.Close()
	defer server.Close()
	st, err := client.Open(1, "shared")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				blob := bytes.Repeat([]byte{byte(s)}, 1+(s*997+i*131)%5000)
				if err := st.Send("m", testMsg{Round: s, Blobs: [][]byte{blob}}); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	peer, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < senders*perSender; i++ {
		var m testMsg
		if err := peer.Expect("m", &m); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.Round < 0 || m.Round >= senders || len(m.Blobs) != 1 ||
			bytes.Count(m.Blobs[0], []byte{byte(m.Round)}) != len(m.Blobs[0]) {
			t.Fatalf("frame %d mixes senders: round %d, %d blobs", i, m.Round, len(m.Blobs))
		}
	}
	wg.Wait()
}

// TestMuxHostileWindowUpdate: a grant of MaxInt64 credit, twice,
// saturates the sender's credit instead of wrapping it negative and
// parking the sender; a negative credit or window fails the session.
func TestMuxHostileWindowUpdate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		wu      winUpdate
		refused bool
	}{
		{"credit MaxInt64 saturates", winUpdate{Credit: math.MaxInt64}, false},
		{"negative credit", winUpdate{Credit: -1}, true},
		{"negative window", winUpdate{Credit: 1, Window: -1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peer, local := Pipe()
			sess := NewSession(local, true)
			defer sess.Close()
			defer peer.Close()
			go drainConn(peer)
			st, err := sess.Open(1, "hostile")
			if err != nil {
				t.Fatal(err)
			}
			inject := func(f Frame) {
				f.SID = st.id
				if err := peer.SendFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			update := Frame{Kind: kindMuxWindow, Payload: tc.wu.AppendWire(nil)}
			inject(update)
			if tc.refused {
				select {
				case <-sess.Done():
				case <-time.After(10 * time.Second):
					t.Fatal("session survived the update")
				}
				if err := sess.Err(); !errors.Is(err, ErrBadPayload) {
					t.Fatalf("session failed with %v, want ErrBadPayload", err)
				}
				return
			}
			inject(update)
			// The read loop handles frames in order: once this one
			// arrives, both updates have been applied.
			inject(Frame{Kind: "marker"})
			if _, err := st.Recv(); err != nil {
				t.Fatal(err)
			}
			st.mu.Lock()
			credit := st.sendCredit
			st.mu.Unlock()
			if credit != math.MaxInt64 {
				t.Fatalf("send credit %d after two MaxInt64 grants, want MaxInt64", credit)
			}
			if err := st.Send("after", testMsg{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzMuxControl feeds arbitrary bytes to the four mux control
// parsers: none may panic, whatever one accepts must re-encode to
// exactly the bytes it was parsed from, and no accepted window update
// carries a negative credit or window.
func FuzzMuxControl(f *testing.F) {
	for _, m := range []WireAppender{
		openMsg{Round: 7, Label: "psc/round"},
		openMsg{Round: math.MaxUint64},
		winUpdate{Credit: DefaultWindow, Window: 2 * DefaultWindow, Seq: 3},
		winUpdate{Credit: math.MaxInt64, Window: math.MaxInt64, Seq: math.MaxUint64},
		winUpdate{Credit: -1},
		winUpdate{Window: -1},
		winUpdate{Credit: math.MinInt64, Window: math.MinInt64},
		winAck(1),
		winAck(math.MaxUint64),
		resetMsg("round 9 aborted"),
		resetMsg(""),
	} {
		f.Add(m.AppendWire(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range []interface {
			WireAppender
			WireParser
		}{new(openMsg), new(winUpdate), new(winAck), new(resetMsg)} {
			if m.ParseWire(data) != nil {
				continue
			}
			if back := m.AppendWire(nil); !bytes.Equal(back, data) {
				t.Fatalf("%T accepted %x and re-encodes it as %x", m, data, back)
			}
		}
		var wu winUpdate
		if wu.ParseWire(data) == nil && (wu.Credit < 0 || wu.Window < 0) {
			t.Fatalf("window update with credit %d, window %d accepted", wu.Credit, wu.Window)
		}
	})
}
