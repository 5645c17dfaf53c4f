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
// one allocation and returns Payload as a sub-slice of it.
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
// AppendBytes, Parser). Everything else — the ~25 control messages —
// is gob-encoded: those frames are few and small, and gob keeps them
// type-safe and free to grow fields.
//
// The aliasing rule: a message parsed by ParseWire owns its frame's
// body — its byte fields are sub-slices of it, capped at their own
// length so an append reallocates — and nothing else refers to that
// body. A payload is therefore copied once on the way out (into the
// encoded payload, then into the write buffer without allocating) and
// allocated once on the way in.
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
//     code that consumes the message.
//   - A stream sender may have at most one flow-control window in
//     flight: DefaultWindow at open, afterwards whatever the receiver
//     has granted, never past the window cap (DefaultWindowCap unless
//     WithAdaptiveWindow sets another). The session read loop never
//     writes, so two sessions cannot deadlock exchanging window
//     updates.
//   - Stream IDs are split by parity — the initiator opens odd IDs,
//     the acceptor even ones — and an open that arrives with zero or the
//     receiver's own parity fails the session: it could otherwise be
//     replaced by the receiver's next Open.
//   - The "mux/" frame-kind prefix is reserved for session control;
//     protocol kinds are namespaced ("psc/...", "privcount/...",
//     "engine/...").
//   - Send and Recv are each safe for one concurrent caller (a reader
//     goroutine plus a writer goroutine — the shape every chunked
//     phase uses).
package wire
