// Package engine is the multi-round scheduler shared by the in-process
// experiment harness and the deployed daemons. Parties register their
// multiplexed sessions once; the tally-side Engine then schedules any
// number of PSC and PrivCount rounds, sequentially or concurrently,
// each round riding its own streams of the persistent per-party
// connections. A failed or aborted round resets only its own streams —
// the sessions, party keys, and every other in-flight round survive.
//
// # Key types
//
//   - Engine: the tally-side scheduler. Sessions attach via
//     AcceptSession (the acked hello handshake; the in-process harness
//     runs the same one over pipes); StartPSC and StartPrivCount
//     schedule rounds over the registered fleet.
//   - Hello / HelloAck: the session-registration exchange. A Hello
//     carries the party's role, name, pinned identity (ID, defaulting
//     to the name), and registration token.
//   - Round: one scheduled measurement round, and one
//     context.Context. Wait* blocks for the outcome, Abort cancels it
//     in isolation, Absent lists parties the round completed without.
//   - QuorumPolicy: the per-protocol degradation rule (MinDCs); see
//     below.
//   - ServeCP, ServeSK, ServeDC: the party side, three functions over
//     one skeleton (the acked hello, then ServeRounds with the role's
//     stream labels). ServeDC owns a data collector's round from Setup
//     to Finish; its host supplies only the collection (DCHost).
//   - ReconnectLoop: the party-daemon dial/serve/backoff loop.
//
// # Party churn
//
// The engine keeps an identity-pinned registry rather than a fixed
// party set. Every party is keyed by (role, ID) and bound to its
// registration token on first contact; a party whose session dies
// enters the disconnected state, and a reconnecting daemon presenting
// the same identity and token is rebound to its registry entry —
// latest-wins, with any previous live session closed. A token mismatch
// is rejected (ErrRejected, constant-time comparison), and so is any
// rejoin of an identity pinned without a token: token-less identities
// stay bound to their first session, since an empty token would let
// anyone who knows the name hijack it. Rounds snapshot their
// membership at scheduling time: a party that drops mid-round may
// resume on its rejoined session while its contribution barrier has
// not been passed (the engine waits up to the SetRejoinGrace window
// and reopens the round stream); past the barrier the party is
// declared absent and the round degrades under the QuorumPolicy —
// completing with the absence annotated — aborting only when quorum is
// genuinely lost.
//
// # Invariants
//
//   - PSC rounds require every CP (the joint ElGamal key is an n-of-n
//     threshold) and PrivCount rounds require every SK (each holds
//     blinding state nobody else can reproduce): QuorumPolicy tunes
//     only data-collector coverage.
//   - A round is stopped by one mechanism: cancelling its context,
//     with the reason as the cause. Abort, the SetRoundDeadline timeout
//     and a failed tally all do exactly that; the cancellation resets
//     the round's streams (one context.AfterFunc), wakes the PSC
//     pipeline (the tally runs under the round's context) and ends any
//     rejoin wait.
//   - A round claims exactly one outcome. finish detaches the stream
//     reset from the context, and whether that detach came first is the
//     claim: if it did the tally's result stands (completed, possibly
//     degraded, or failed); otherwise the cancellation cause is the
//     round's error, whatever the tally returned. Degradation is
//     counted only for completed rounds.
//   - Aborting or failing a round never tears down sessions; only
//     Engine.Close does.
package engine
