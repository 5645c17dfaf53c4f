// Package event defines the vocabulary of measurement events emitted by
// instrumented Tor relays, mirroring the PrivCount Tor patch the paper
// deploys (§3.1): stream-end, circuit-end, and connection-end events plus
// the new onion-service-directory and rendezvous events the authors added.
//
// Events are produced by the simulator (internal/tornet, internal/onion),
// carried in-process over a Bus or as Tor control-port lines
// (internal/torctl), and consumed by PrivCount and PSC data collectors
// which turn them into counter increments or set items.
//
// # Key types
//
//   - Event and its concrete kinds (StreamEnd, CircuitEnd,
//     ConnectionEnd, DescPublished, DescFetched, RendezvousEnd), each
//     carrying its observing relay and simtime timestamp.
//   - Bus: the in-process fan-out with per-relay filtered
//     subscriptions.
//
// # Invariants
//
//   - The Type numbering and field layout are the codec's format: do
//     not reorder or renumber; the codec fuzz tests pin decode
//     crash-freedom.
//   - Events are immutable after publication: a Bus delivers the same
//     value to every subscriber, concurrently.
package event
