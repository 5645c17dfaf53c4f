// Package psc implements the Private Set-Union Cardinality protocol
// (Fenske, Mani, Johnson, Sherr — CCS 2017) with the paper's extensions
// (§3.1): a tally server coordinating the data collectors (DCs) and
// computation parties (CPs), and ingestion of PrivCount events from
// instrumented relays.
//
// Each DC maintains an oblivious hash table: observed items (client
// IPs, domains, onion addresses) are hashed into bins and immediately
// discarded — no item is ever stored. Bins are encrypted bits under the
// CPs' joint ElGamal key. The protocol computes |⋃ᵢ Iᵢ| + noise:
//
//  1. DCs send encrypted bit tables; the TS homomorphically sums them,
//     turning per-bin sums into an OR in the exponent.
//  2. Each CP in turn appends fair-coin noise ciphertexts (with
//     Cramer–Damgård–Schoenmakers proofs they encrypt bits), then runs
//     the streaming verifiable shuffle: the vector is arranged as a
//     grid of 1024-element rows and permuted in two passes
//     (contiguous row blocks, then column groups — a transpose in
//     emission order). The geometry is a protocol constant, so every
//     party derives the same grid and no frame carries it. Every block is
//     independently permuted, re-randomized, and proven with its own
//     cut-and-choose argument whose shadows are hash-committed before
//     the challenge exists and whose challenge bits come from a
//     Fiat–Shamir transcript over all block commitments of the stage
//     (elgamal.ShuffleTranscript). Shadows never travel: a round's
//     frame carries only its opening (a uint16 index and a 32-byte
//     scalar per element), and the TS recomputes the shadow from the
//     opening and checks it against the commitment it already holds.
//     On a vector longer than one block, the CP and the TS each spill
//     the row pass's output (the TS spills the blocks it verified) and
//     read the column pass's input blocks back from their own copy, in
//     the same column-group walk, so the intermediate vector never
//     travels and the column pass is checked against exactly what the
//     TS verified. Final-pass blocks are exponent-blinded (one
//     Chaum–Pedersen proof per element, verified per block; a blind
//     of zero is refused whatever its proof says) and forwarded while
//     later blocks are still in flight, so only empty-vs-non-empty
//     survives, nobody can link bins, and no party ever holds more
//     than O(block) ciphertexts.
//  3. The CPs jointly decrypt, streamed: the TS re-streams the spilled
//     final vector per chunk to every CP, verifies each share chunk's
//     one proof on arrival, and recovers and counts plaintexts chunk by
//     chunk (behind the barrier that all mix verification finished).
//
// # One proof per share chunk, one per blinded element
//
// A CP raises every element of a share chunk to the same key, so the
// chunk carries a single Chaum–Pedersen proof over a hash-weighted fold
// of its ciphertexts and shares (elgamal.BatchProveShares; soundness
// 2⁻¹²⁸, argued in elgamal/proof.go). A rejection therefore tells the
// TS which CP and which chunk, never which share. Blinding cannot be
// folded the same way: the fold needs one secret across the chunk, and
// a shared blind s would leave equal plaintexts equal (s·M = s·M'),
// linkable after the shuffle — each element needs its own sᵢ and proof.
//
// The reported value is occupied-bins + Binomial(k·|CPs|, ½); the
// estimator in internal/stats removes the noise mean and inverts hash
// collisions to recover the distinct count with an exact CI (§3.3).
// Privacy holds if at least one CP is honest; correctness is enforced
// against all CPs by the attached proofs. A CP registers its key with a
// proof that it knows the secret, and the TS refuses an identity key or
// joint key: otherwise the last CP to register could pick the key that
// cancels the others' and read every ciphertext.
//
// # Key types
//
//   - Config: one round's parameters, including the MinDCs quorum
//     floor and the engine's Recover callback for churn tolerance.
//   - Tally: the TS role — chunk-pipelined relay and verifier; it
//     holds no decryption capability and never sees an unencrypted
//     bin. Run has one flow under the round's context: it takes its
//     messengers positionally (CPs first, then DCs) and puts every DC
//     failure to Recover for a replacement. A DC not replaced is
//     absent, and Run alone decides what that means: the context's
//     cause if the round is cancelled, a failed round naming the DC if
//     the absentees would leave fewer than the floor, a degraded round
//     otherwise.
//   - DC / CP: the party roles, each speaking over one wire.Messenger.
//   - Result: the round outcome, with AbsentDCs annotating degraded
//     coverage.
//
// # Invariants
//
//   - Every vector phase travels as a header plus bounded chunks or
//     blocks; no phase of the CP chain holds a whole vector of parsed
//     ciphertexts. Row-pass shuffle outputs (one per CP, and one per CP
//     stage on the TS), the pre-decrypt final vector, the TS's combined
//     gather table, and its per-DC table buffers all live as encoded
//     bytes in unlinked temp-file spills (internal/spill, -spill-dir),
//     so TS residency is O(chunk) end to end and a failed round still
//     closes every spill it opened. A spill read failure mid-re-stream
//     cancels the round's context with the read error and aborts
//     cleanly. No spill is shared: each has one owning goroutine at a
//     time. DC goroutines hand whole tables to the gather loop, the
//     combination's one writer, and each spilled vector the TS
//     re-streams has one reader that fans its chunks out.
//   - Run has one cancellation mechanism: a context derived from the
//     caller's. Every stage fails the round by cancelling it with its
//     error (first cause wins), every channel wait selects on its
//     Done, and Run returns the cause — the caller's, when the caller
//     cancelled.
//   - The tally's per-chunk verification and combination (noise bit
//     proofs, blind DLEQs, share-chunk proofs, recovery)
//     runs on bounded ordered worker pools (internal/parallel) sized
//     from GOMAXPROCS; results apply in submission order, so wire
//     order and the decrypt barrier are unchanged. Only the shuffle
//     transcript itself is sequential: each block's Fiat–Shamir
//     challenge binds every block before it.
//   - Every round is verified: Config.Validate requires
//     1 ≤ ShuffleProofRounds ≤ 128, a CP applies the same check to the
//     configure frame it is sent, and no code path skips a bit,
//     shuffle, blind or share proof. Shuffle soundness is per block: a
//     cheating block survives one argument with probability
//     2^-ShuffleProofRounds, and a stage makes blocks·passes attempts
//     (union bound) — size proof rounds to the table, not just to
//     2^-k.
//   - Decryption never starts before every CP's verification (noise
//     bit proofs, block arguments, blind proofs) has finished; blinded
//     blocks forwarded early are semantically secure ciphertexts, so a
//     late verification failure still aborts the round before any
//     share is produced.
//   - A round may complete without a DC (reduced coverage, annotated)
//     but never without a CP: the joint key is an n-of-n threshold.
//   - Every group element on the wire is SEC1 compressed: 33 bytes (an
//     identity one byte, or 33 zero bytes in a fixed-width proof slot),
//     so a ciphertext is 66 bytes, a share 33, a blind or share proof
//     98 and a noise bit proof 260. The receiver pays one square root
//     per point to recover y. What is hashed or spilled keeps the
//     65-byte uncompressed form: Fiat–Shamir transcripts and block
//     commitments do not depend on the wire encoding, and a spill slot
//     is 130 bytes that read back without a root.
//   - A DC's upload can be restarted on a rejoined session until its
//     table completes: the tally buffers each table privately and
//     merges it into the shared combination only as a whole, so a
//     DC declared absent contributed nothing — Result.AbsentDCs is an
//     exact coverage boundary, never "partially included".
package psc
