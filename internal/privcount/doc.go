// Package privcount implements the PrivCount distributed measurement
// protocol (Jansen & Johnson, CCS 2016) as deployed in the paper: a
// tally server (TS), data collectors (DCs) attached to instrumented Tor
// relays, and share keepers (SKs). DCs maintain counters blinded with
// one share vector per SK, so no single party ever sees a true count;
// DCs add calibrated Gaussian noise so the aggregate is differentially
// private; the TS learns only the noisy totals.
//
// Counters live in ℤ₂⁶⁴ with binary fixed-point scaling so the
// real-valued noise survives modular blinding exactly, following the
// PrivCount design. Multi-bin histogram counters provide the
// set-membership counting the paper added for its domain, country, and
// onion-service measurements (§3.1).
//
// # Key types
//
//   - TallyConfig / Tally: one round from the TS's perspective,
//     including the MinDCs quorum floor and the engine's Recover
//     callback. Run has one flow under the round's context: it takes
//     its messengers positionally (SKs first, then DCs), with the
//     parties' pinned names beside them, and puts every DC failure to
//     Recover for a replacement. A DC not replaced is absent, and Run
//     alone decides what that means: the context's cause if the round
//     is cancelled, a failed round naming the DC if the absentees
//     would leave fewer than the floor, a degraded round otherwise. It
//     counts absentees and lists none: the engine's Round.Absent is
//     the one list.
//   - DC: the per-relay collector — Setup distributes sealed blinding
//     seeds and blinds with their expansions, Increment counts events,
//     Finish reports noised blinded totals.
//   - SK: the share keeper, holding one seed per DC so the collect
//     request can expand exactly the DCs that reported.
//   - Schema / Counters: the statistic layout and fixed-point counter
//     vector.
//   - StatConfig / StatShape: a statistic as the operator configures it
//     (with bin labels) and as a DC is told about it (name, bin count,
//     sigma).
//
// # Invariants
//
//   - A DC learns shapes, never labels. It counts into bins by index,
//     so its configure frame carries (name, bin count, sigma) per
//     statistic and its size follows the number of statistics, not of
//     bins; labels stay with the TS and whoever reads its output. The
//     one ceiling on a schema is maxSlots: the DC checks every bin
//     count and the running total against it before allocating a
//     counter, the SK checks the slot count it is given, and NewSchema
//     applies the same bound on the TS.
//   - Counter vectors travel as ValueChunkMsg frames in a fixed binary
//     layout (slot offset, then the slots, eight little-endian bytes
//     apiece), not gob. A sender encodes them straight from the
//     counter vector; the chunk reader receives each through
//     wire.ExpectFunc and lends its slots to a callback that copies
//     (a spill write) or folds (a sum) them, so receive bodies are
//     recycled. The chunk reader, not the codec, decides whether a
//     chunk continues the vector.
//   - The aggregate telescopes only when DC reports and SK sums cover
//     the same DC set: the collect message's DC list keeps both sides
//     aligned when churn drops a DC after share distribution. An SK
//     refuses a collect naming fewer DCs than the quorum floor the TS
//     declared at configure time, so the TS cannot adaptively subset
//     the aggregate toward a single DC's under-noised counters.
//   - Share vectors never travel. A DC draws one fresh 32-byte
//     seed per (DC, SK, round), seals it to the SK, and both sides
//     expand it locally: slot i is bytes [8i, 8i+8) of the AES-256-CTR
//     keystream under the seed with a zero IV, little-endian. The
//     blinding is therefore pseudorandom under AES — the assumption the
//     sealed boxes (AES-256-GCM) already placed between the shares and
//     the relaying TS.
//   - An SK holds one seed per DC; a later box from the same DC
//     replaces it — the restart semantics behind a rejoined DC
//     re-running setup with fresh seeds. A box that does not open to
//     exactly 32 bytes, or that announces a slot count other than
//     the configured one, fails the SK's round.
//   - Seeds are wiped once expanded: the DC's before Setup returns,
//     the SK's as each is expanded at collect (so a name repeated in
//     the collect list fails instead of counting twice) and the rest
//     when its round ends.
//   - The TS never holds a key that opens a sealed box; it checks that
//     a DC addressed exactly one box to every SK and relays them.
//   - A round may complete without a DC (its counts, blinds, and noise
//     share are all excluded) but never without an SK.
//   - A round's schema-sized vectors — a DC's counters, an SK's sums,
//     the TS's sum — are recycled through one package pool, so a
//     schema run round after round allocates none of them anew. Each
//     goes back when its round is done with it (the DC's once its last
//     chunk is sent or the send fails, the SK's once its sums are
//     sent, the TS's once AggregateSum has copied the totals out) and
//     is zeroed over its whole capacity first: it held blinded counts
//     or blinding totals, and the next vector handed out must be all
//     zeros whatever round or schema size used it before. A finished
//     DC refuses Increment and Finish, so nothing writes a released
//     vector; no caller releases anything.
//   - The TS's residency is one schema-sized modular sum plus
//     O(chunk) per in-flight stream: DC reports are collected
//     concurrently, each buffered whole on spill storage
//     (internal/spill) by its own goroutine and folded into the sum by
//     Run's goroutine, its one writer, only once complete — a DC that
//     dies mid-report contributes nothing, which the telescoping sum
//     requires, since its blinding is excluded from the SK sums. SK
//     sums fold directly: every SK is required, so a partial fold is
//     never observed.
package privcount
