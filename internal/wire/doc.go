// Package wire is the message transport shared by the PrivCount and PSC
// deployments: length-framed messages over TCP, optionally wrapped in
// TLS with ephemeral self-signed certificates authenticated by pinned
// public-key hashes (the way a research deployment pins its tally
// server and share keepers to known operators).
//
// The same Conn type also runs over an in-memory pipe so protocol tests
// exercise identical code paths without sockets.
//
// # Frame layout
//
// A frame on the wire is a binary envelope around an opaque payload,
// in network byte order:
//
//	[u32 body length] [u16 kind length] [kind] [u64 SID] [payload]
//
// The body is everything after the length prefix and is what the frame
// cap bounds; the payload is whatever follows the SID. SendFrame
// assembles the frame in a buffer the Conn reuses under its write lock
// and hands it to the transport in one Write. Recv reads the body into
// one buffer and returns Payload as a sub-slice of it.
//
// Sending allocates nothing per frame. Send encodes into a buffer the
// sender owns and reuses: Conn.Send straight into its write buffer,
// behind the envelope, and Stream.Send into the stream's own buffer,
// which SendFrame copies into the write buffer before returning.
// Receiving allocates the body, except where ExpectFunc lends it (see
// the ownership rule below).
//
// # Payload codecs
//
// EncodePayload and DecodePayload pick the codec from the message's
// type, never from a setting. The bulk messages — the ones that are
// nothing but integers and byte strings and carry nearly all of a
// round's bytes (privcount.ValueChunkMsg; psc.ChunkMsg, BlockOutMsg,
// BlockShadowMsg, NoiseChunkMsg, BlindChunkMsg, ShareChunkMsg: every
// message that holds a ciphertext, a share or a proof, proofs packed
// at a fixed width) — implement WireAppender and
// WireParser: fields in declaration order, integers as eight
// little-endian bytes, byte strings behind a uint32 length (AppendInt,
// AppendBytes, Parser). So do the mux control messages (mux/open,
// mux/window, mux/winack, mux/reset), so nothing on the mux plane goes
// through gob. Everything else — the ~25 protocol control messages —
// is gob-encoded: those frames are few and small, and gob keeps them
// type-safe and free to grow fields.
//
// # Body ownership
//
// A received frame owns its body: Payload is a sub-slice of it, and so
// are the byte fields of a message ParseWire parses from it, each
// capped at its own length so an append reallocates. Nothing else
// refers to the body, so whoever receives the frame — through Recv or
// Expect — may keep it, or anything parsed from it, for as long as it
// likes. A payload is therefore written once on the way out (a
// stream's is copied once more, into the write buffer, without
// allocating) and allocated once on the way in.
//
// ExpectFunc is the one exception, and the one way to receive without
// allocating. It lends the payload to its callback only until the
// callback returns, then clears the body and returns it to a receive
// pool. Recv takes a body from that pool only in Go's 32 KiB size
// class (28 673 to 32 768 bytes, where a full PrivCount chunk frame
// lands); every other size is allocated for its frame alone. The pool
// handle rides in the Frame, unexported, so a Messenger that wraps
// another and passes its frames through lends as well, and no Release
// is exported: a frame never given to ExpectFunc keeps its body, at
// the cost of one allocation, as before. A consumer that hands
// anything parsed from a frame to work that outlives the callback —
// the PSC tally's shard jobs do — uses Expect instead.
//
// # Key types
//
//   - Frame: the unit of exchange — a kind tag, an encoded payload, and
//     a stream ID for multiplexed sessions.
//   - Conn: a framed connection with a per-connection frame cap.
//   - WireAppender / WireParser / Parser: the binary payload hook and
//     the bounds-checked cursor its implementations read through.
//   - Session / Stream: HTTP/2-in-miniature multiplexing — one
//     persistent connection carries one logical Stream per (round,
//     role), each with credit-based flow control: every stream starts
//     at DefaultWindow in both directions, its receiver autotunes the
//     window toward the measured bandwidth-delay product, and every
//     credit grant is one frame kind (mux/window). Session.Done is the
//     churn signal the engine's party registry watches.
//   - Messenger: the interface every protocol role speaks, satisfied by
//     both Conn and Stream, so a role runs unchanged over a dedicated
//     connection or one stream of a shared session.
//   - Identity / Listener / Dial: the TLS layer with SPKI-fingerprint
//     pinning.
//
// # Invariants
//
//   - No frame exceeds the connection's cap (DefaultMaxFrame, 1 MiB):
//     vector-valued protocol phases chunk their payloads, and a peer
//     demanding a larger allocation is dropped, not accommodated. The
//     cap is tested before the receive allocation and before the send;
//     a body shorter than its own header, or a kind length that
//     overruns it, is ErrBadFrame.
//   - A ParseWire never sizes an allocation or a slice from a length
//     it has not compared with the bytes remaining, and rejects
//     trailing bytes (ErrBadPayload). It checks framing only: what the
//     fields must say is decided where it always was, by the protocol
//     code that consumes the message. The one exception is the mux's
//     own window update, whose parser refuses a negative credit or
//     window; a credit grant saturates the sender's credit rather
//     than wrapping it.
//   - A stream sender may have at most one flow-control window in
//     flight: DefaultWindow at open, afterwards whatever the receiver
//     has granted, never past the window cap (DefaultWindowCap unless
//     WithAdaptiveWindow sets another). The session read loop never
//     writes, so two sessions cannot deadlock exchanging window
//     updates, and a stream has at most one winack queued for the
//     control writer, so a peer flooding probes cannot grow its queue.
//   - Stream IDs are split by parity — the initiator opens odd IDs,
//     the acceptor even ones — and an open that arrives with zero or the
//     receiver's own parity fails the session: it could otherwise be
//     replaced by the receiver's next Open.
//   - The "mux/" frame-kind prefix is reserved for session control;
//     protocol kinds are namespaced ("psc/...", "privcount/...",
//     "engine/...").
//   - Send and Recv are each safe for one concurrent caller (a reader
//     goroutine plus a writer goroutine — the shape every chunked
//     phase uses). Concurrent Sends on one Conn or Stream are
//     serialised on the sender's buffer, never interleaved.
package wire
