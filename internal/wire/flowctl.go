package wire

import "time"

// Receiver-driven credit-window autotuning. A static per-stream window
// caps throughput at window/RTT regardless of link capacity — a 1 MiB
// window over a 600 ms Tor-like round trip moves at most ~1.7 MB/s no
// matter how fat the pipe is. The controller grows the receive window
// toward the measured bandwidth-delay product and backs off when RTT
// inflation says queues are building: AIMD, the TCP shape, driven
// entirely from the receiving end because credit is the receiver's
// resource to grant.
//
// Measurement rides the existing credit loop: the receiver tags an
// occasional window update with a sequence number (one probe
// outstanding at a time), the sender echoes it, and the round trip —
// grant leaving to echo returning — is the same path credit itself
// travels, so it prices exactly the latency that stalls a
// window-limited sender.

// DefaultWindowCap bounds window growth unless WithAdaptiveWindow
// sets another cap. 16 MiB covers the
// bandwidth-delay product of a 10 MB/s link at 1.6 s RTT — beyond the
// unfavorable end of the Tor deployment envelope — while bounding
// worst-case per-stream buffering.
const DefaultWindowCap = 16 << 20

// flowIncrement is the additive growth step once slow-start ends.
const flowIncrement = 256 << 10

// winController holds the AIMD state for one stream's receive window.
// Callers serialize access (it lives under the stream mutex).
type winController struct {
	initial int64
	cap     int64
	win     int64

	minRTT time.Duration
	srtt   time.Duration

	slowStart bool
	// decreases counts multiplicative backoffs, exposed through
	// StreamStats for tests and gauges.
	decreases int64
}

func newWinController(initial, cap int64) *winController {
	if cap < initial {
		cap = initial
	}
	return &winController{initial: initial, cap: cap, win: initial, slowStart: true}
}

// observe feeds one completed probe: the credit-grant round-trip time
// and the bytes the application consumed while the probe was in
// flight. It returns the new target window.
//
// Congestion is inferred from delay, not loss: the transport is
// reliable, so loss reaches us only as retransmit stalls, which is to
// say as RTT inflation — a sample beyond 2× the minimum observed RTT
// halves the window (floor: the initial window). Otherwise, if the
// sender was window-limited during the probe (it moved at least half
// a window in one round trip), the window grows: doubling while in
// slow-start, one increment per probe after the first backoff. A
// sender that cannot fill half the window is limited by the link or
// itself, and growing the window further would only buy buffering.
func (c *winController) observe(rtt time.Duration, bytes int64) int64 {
	if rtt <= 0 {
		return c.win
	}
	if c.minRTT == 0 || rtt < c.minRTT {
		c.minRTT = rtt
	}
	if c.srtt == 0 {
		c.srtt = rtt
	} else {
		c.srtt = (7*c.srtt + rtt) / 8
	}
	switch {
	case rtt > 2*c.minRTT:
		c.slowStart = false
		c.decreases++
		c.win /= 2
		if c.win < c.initial {
			c.win = c.initial
		}
	case 2*bytes >= c.win:
		if c.slowStart {
			c.win *= 2
		} else {
			c.win += flowIncrement
		}
		if c.win > c.cap {
			c.win = c.cap
		}
	}
	return c.win
}
