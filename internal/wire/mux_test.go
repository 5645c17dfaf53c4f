package wire

import (
	"errors"
	"fmt"
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
	// Drain slowly, checking the queue never exceeds the window.
	got := 0
	for {
		srvSt.mu.Lock()
		if srvSt.rqCost > DefaultWindow+int64(server.conn.maxFrame)+frameOverhead {
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

// TestMuxConfigurableWindow exercises WithWindow end to end: a shrunken
// window still moves bulk data correctly (credit-gated, many refunds),
// frames exceeding the configured window are rejected outright, and the
// announced window governs the opener's credit toward the acceptor.
func TestMuxConfigurableWindow(t *testing.T) {
	const window = 16 << 10
	client, server := pipeSessions(WithWindow(window))
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
		if err := st.SendFrame(Frame{Kind: "big", Payload: make([]byte, window+1)}); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("oversized frame: got %v, want ErrFrameTooLarge", err)
		}
		// 64 frames of 4 KiB: ~16 windows of data, forcing repeated
		// credit refunds through the shrunken window.
		for i := 0; i < 64; i++ {
			payload := make([]byte, 4096)
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
		if f.Kind != "bulk" || len(f.Payload) != 4096 || f.Payload[0] != byte(i) {
			t.Fatalf("frame %d corrupted: kind %q len %d tag %d", i, f.Kind, len(f.Payload), f.Payload[0])
		}
	}
	wg.Wait()
}

// TestMuxIdleStreamRefundsResidualCredit pins the drain-time refund: a
// receiver that consumed just under half a window and then went idle
// must still return the credit, or the sender's next larger frame can
// never be covered and both ends wedge (the PSC decrypt phase hit
// exactly this with a shrunken -stream-window).
func TestMuxIdleStreamRefundsResidualCredit(t *testing.T) {
	const window = 16 << 10
	client, server := pipeSessions(WithWindow(window))
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
		if err := st.SendFrame(Frame{Kind: "a", Payload: make([]byte, 8000)}); err != nil {
			done <- err
			return
		}
		// ...and this frame needs more credit than the remainder.
		done <- st.SendFrame(Frame{Kind: "b", Payload: make([]byte, 9000)})
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

// TestMuxNegotiatesAsymmetricWindows pins the open/open-ack handshake:
// two ends configured with different windows run them asymmetrically —
// each direction governed by its receiver's announcement — instead of
// the pre-negotiation hard rejection. Bulk data in both directions
// must survive the handover from the opener's assumed window to the
// acked one.
func TestMuxNegotiatesAsymmetricWindows(t *testing.T) {
	a, b := Pipe()
	WithWindow(4 << 20)(a)
	WithWindow(64 << 10)(b)
	client := NewSession(a, true)
	server := NewSession(b, false)
	defer client.Close()
	defer server.Close()

	cst, err := client.Open(1, "asym")
	if err != nil {
		t.Fatal(err)
	}
	sst, err := server.Accept()
	if err != nil {
		t.Fatalf("asymmetric windows must negotiate, not fail: %v", err)
	}

	// Move ~3 MiB each way in 32 KiB frames — enough to force refunds
	// through both windows, including the small one.
	const frames = 96
	payload := make([]byte, 32<<10)
	errCh := make(chan error, 2)
	go func() {
		for i := 0; i < frames; i++ {
			if err := cst.SendFrame(Frame{Kind: "c2s", Payload: payload}); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	go func() {
		for i := 0; i < frames; i++ {
			if err := sst.SendFrame(Frame{Kind: "s2c", Payload: payload}); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	for i := 0; i < frames; i++ {
		if f, err := sst.Recv(); err != nil || f.Kind != "c2s" {
			t.Fatalf("server frame %d: %v %q", i, err, f.Kind)
		}
		if f, err := cst.Recv(); err != nil || f.Kind != "s2c" {
			t.Fatalf("client frame %d: %v %q", i, err, f.Kind)
		}
	}
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	// After the ack the opener's send direction must be governed by the
	// acceptor's 64 KiB window, and vice versa.
	if ss := cst.Stats(); ss.SendWindow != 64<<10 {
		t.Fatalf("opener send window %d, want the acceptor's 64 KiB", ss.SendWindow)
	}
	if ss := sst.Stats(); ss.SendWindow != 4<<20 {
		t.Fatalf("acceptor send window %d, want the opener's 4 MiB", ss.SendWindow)
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
			go func() { // drain the ack (or nothing) so the pipe never blocks the session
				for {
					if _, err := peer.Recv(); err != nil {
						return
					}
				}
			}()
			payload, err := EncodePayload(openMsg{Round: 7, Label: "hostile", Window: DefaultWindow})
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

// TestMuxOpenAckAfterWindowUpdateKeepsCredit pins the opener's credit
// arithmetic when a window update overtakes the open-ack (the ack
// rides the acceptor's control queue; refunds are written straight
// from its Recv). The ack must adjust the budget by the difference to
// the window the opener assumed at open — rebasing on a sendWindow the
// update already raised discarded a full window of credit and wedged
// both ends. The two frames are delivered to one stream by hand, in
// both orders, so nothing here depends on scheduling.
func TestMuxOpenAckAfterWindowUpdateKeepsCredit(t *testing.T) {
	const assumed, grant, raised = 1 << 20, 300 << 10, 2 << 20
	for _, ackWin := range []int64{assumed, assumed / 2, 4 * assumed} {
		for _, updateFirst := range []bool{true, false} {
			a, b := Pipe(WithWindow(assumed))
			sess := NewSession(a, true)
			st := newStream(sess, 1, 1, "opener")
			update := func() { st.onWinUpdate(winUpdate{Credit: grant, Window: raised}) } // Seq 0: no echo
			ack := func() { st.onOpenAck(openAck{Window: ackWin}) }
			if updateFirst {
				update()
				ack()
			} else {
				ack()
				update()
			}
			st.mu.Lock()
			credit, window := st.sendCredit, st.sendWindow
			st.mu.Unlock()
			if want := assumed + (ackWin - assumed) + grant; credit != want {
				t.Errorf("ack window %d, update first %v: send credit %d, want assumed + delta + grant = %d",
					ackWin, updateFirst, credit, want)
			}
			if want := max(ackWin, raised); window != want {
				t.Errorf("ack window %d, update first %v: send window %d, want %d", ackWin, updateFirst, window, want)
			}
			sess.Close()
			b.Close()
		}
	}
}

// TestMuxOpenerStreamsFromFirstFrame streams opener → acceptor from the
// first frame on sixteen adaptive-window sessions at once — the
// direction TS → CP mix input and TS → DC configure frames take, and
// the shape that used to lose a window of credit to a late open-ack.
// The deadline turns a wedge into a failure instead of a hung run.
func TestMuxOpenerStreamsFromFirstFrame(t *testing.T) {
	const sessions, frames = 16, 192 // 6 MiB per stream: several windows
	payload := make([]byte, 32<<10)
	errCh := make(chan error, 2*sessions)
	for i := 0; i < sessions; i++ {
		client, server := pipeSessions(WithAdaptiveWindow(0))
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
