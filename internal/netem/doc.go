// Package netem is the WAN emulation subsystem: it wraps transport
// connections with configurable one-way latency, bandwidth pacing,
// jitter, and probabilistic loss, so every protocol in this repository
// can be measured over links shaped like the deployment the paper
// describes — mutually distrusting operators connected by Tor-adjacent
// paths with hundreds of milliseconds of delay and single-digit MB/s of
// bandwidth — instead of loopback pipes.
//
// The shaping engine is deterministic under a seeded RNG: the same
// Profile (including Seed) applied to the same write sequence produces
// the identical delivery schedule, so emulation-driven tests and
// benchmarks are reproducible.
//
// Wrap shapes a net.Conn's write direction: bytes are split into
// MTU-sized chunks, paced through a token bucket at the profile's
// bandwidth, and delivered after the one-way latency plus jitter. The
// protocols in this repository assume a reliable transport, so there is
// one loss model: a "lost" chunk is emulated the way TCP surfaces loss
// to the application — a retransmit stall (RTO) that delays the chunk
// and everything queued behind it. Nothing is dropped or reordered.
// Wrapping both ends of a connection yields a full round trip of 2× the
// one-way latency.
//
// Profiles are named presets (lan, wan-good, wan-tor — the clearnet /
// good-WAN / Tor rows of the gethrelay tor-performance table) parsed
// by ParseProfile, which also accepts key=value overrides such as
// "wan-tor,seed=42,loss=0". WireOption converts a profile into a
// wire.Option so listeners and dialers shape every accepted or dialed
// connection; the -netem flag on the daemons is exactly that.
package netem
