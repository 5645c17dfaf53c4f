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
//     carries the party's role and name — its pinned identity, and the
//     one place it says who it is — and its registration token.
//   - Round: one scheduled measurement round, and one
//     context.Context. Wait* blocks for the outcome, Abort cancels it
//     in isolation, Absent lists, sorted, the parties the round
//     completed without — the round's one record of absence.
//   - ServeCP, ServeSK, ServeDC: the party side, three functions over
//     one skeleton (the acked hello, then ServeRounds with the role's
//     stream labels). ServeDC owns a data collector's round from Setup
//     to Finish; its host supplies only the collection (DCHost).
//   - ReconnectLoop: the party-daemon dial/serve/backoff loop.
//
// # Party churn
//
// The engine keeps an identity-pinned registry rather than a fixed
// party set. Every party is keyed by (role, name), so a name is unique
// within its role, and bound to its registration token on first
// contact; every round hands its tally the pinned names of its
// membership snapshot beside the streams, so nothing a party sends
// inside a round can claim another's name; a party whose session dies
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
// declared absent and the round degrades down to the MinDCs floor of
// the config it was started with — completing with the absence
// annotated — and fails, naming the DC, only when that floor is lost.
//
// # Invariants
//
//   - PSC rounds require every CP (the joint ElGamal key is an n-of-n
//     threshold) and PrivCount rounds require every SK (each holds
//     blinding state nobody else can reproduce): the config's MinDCs
//     tunes only data-collector coverage.
//   - Each degradation decision has one owner. The caller's config
//     owns the floor: the engine passes MinDCs through unchanged and
//     has no quorum setting of its own. The engine owns recovery: its
//     Recover callback returns a replacement stream, or nil for a DC
//     it recorded absent. The tally owns the verdict: a cancelled
//     round's cause, a failure naming the DC that breaks the floor, or
//     a degraded completion.
//   - A round is stopped by one mechanism: cancelling its context,
//     with the reason as the cause. Abort, the SetRoundDeadline timeout
//     and a failed tally all do exactly that; the cancellation resets
//     the round's streams (one context.AfterFunc), wakes both tallies
//     (each runs under the round's context) and ends any rejoin
//     wait.
//   - A round claims exactly one outcome. finish detaches the stream
//     reset from the context, and whether that detach came first is the
//     claim: if it did the tally's result stands (completed, possibly
//     degraded, or failed); otherwise the cancellation cause is the
//     round's error, whatever the tally returned. Degradation is
//     counted only for completed rounds.
//   - Aborting or failing a round never tears down sessions; only
//     Engine.Close does.
package engine
