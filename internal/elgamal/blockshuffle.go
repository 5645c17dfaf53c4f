package elgamal

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
)

// Block-wise verifiable shuffle support. The streaming PSC shuffle
// arranges the vector as a grid and permutes each fixed-size block
// independently, so neither prover nor verifier ever holds more than a
// block of ciphertexts. Each block gets its own cut-and-choose argument
// whose shadow vectors are hash-committed before the challenge exists:
// challenges derive from a running Fiat–Shamir transcript over every
// block commitment seen so far, so a prover cannot grind a block's
// challenge without changing a commitment that is itself hashed.
//
// Shadows are committed, never sent. A round's opening is only the
// permutation and randomizers of the challenged side, and both sides
// determine the shadow from public data: challenge 0 opens in→shadow
// (shadow = rerandomize(permute(in))), challenge 1 opens shadow→out
// (out[i] = rerandomize(shadow[perm[i]]), so shadow[perm[i]] is out[i]
// with the randomizer subtracted). The verifier recomputes the shadow
// from the opening and accepts the round only if its hash equals the
// commitment it already holds.
//
// Soundness: per block, a cheating prover survives with probability
// 2^-rounds. Each commitment is fixed before its challenge bit exists.
// A prover able to answer both bit values for one commitment holds two
// openings whose recomputed shadows hash to it:
// either the two shadows differ — a SHA-256 collision — or they are
// one shadow that is at once a shuffle of in and an un-shuffle
// of out, which makes out a shuffle of in. So for a false statement
// every commitment can be opened for at most one bit value and each
// round catches the prover with probability 1/2. By a union bound over
// the blocks·passes block arguments of a stage, the stage soundness
// error is at most blocks·passes·2^-rounds. Size rounds to the table,
// not just to 2^-rounds: a 2¹⁶-element stage at the default geometry
// runs ~2⁷ block arguments, so the deployment default of 8 rounds
// bounds the stage error only at ~2⁻¹ — large tables want 16+ rounds
// (2⁷·2⁻¹⁶ ≈ 2⁻⁹). Proof bytes are one opening (an index and a scalar
// per element) per round; ciphertext residency is O(block) on both
// sides — the prover hashes each shadow as it is made and drops it,
// keeping only the openings, and the verifier rebuilds one shadow at a
// time.

// HashBlock commits to a ciphertext block: SHA-256 over the element
// count and each ciphertext's encoding. It is the commitment scheme of
// the block shuffle argument.
func HashBlock(cts []Ciphertext) [32]byte {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(cts)))
	h.Write(n[:])
	var buf [2 * uncompressedLen]byte
	for _, c := range cts {
		h.Write(c.C2.appendUncompressed(c.C1.appendUncompressed(buf[:0])))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// ShuffleTranscript is the running Fiat–Shamir state of one party's
// block-shuffle stage. Prover and verifier advance identical
// transcripts block by block, in block order; each block's challenge
// bits bind the block's input, output, shadow commitments, and every
// block that came before.
type ShuffleTranscript struct {
	state [32]byte
}

// shuffleTranscriptDomain separates block-shuffle challenges from every
// other Fiat–Shamir use of SHA-256 in this package.
const shuffleTranscriptDomain = "psc/block-shuffle/v1"

// NewShuffleTranscript initializes a stage transcript over the public
// stage parameters: the joint key, total vector length, block size,
// pass count, and proof rounds.
func NewShuffleTranscript(pk Point, n, block, passes, rounds int) *ShuffleTranscript {
	h := sha256.New()
	h.Write([]byte(shuffleTranscriptDomain))
	h.Write(pk.uncompressed())
	var buf [8]byte
	for _, v := range []int{n, block, passes, rounds} {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	t := &ShuffleTranscript{}
	h.Sum(t.state[:0])
	return t
}

// maxTranscriptRounds bounds the challenge bits one block draw can
// yield (one SHA-256 output).
const maxTranscriptRounds = 256

// BlockChallenges absorbs one block record — pass and block indices,
// input and output commitments, and the shadow commitments — into the
// transcript and returns one challenge bit per proof round. It mutates
// the transcript: callers must invoke it exactly once per block, in
// block order.
func (t *ShuffleTranscript) BlockChallenges(pass, block int, inHash, outHash [32]byte, commits [][32]byte, rounds int) ([]byte, error) {
	if rounds <= 0 || rounds > maxTranscriptRounds {
		return nil, fmt.Errorf("elgamal: %d proof rounds outside [1,%d]", rounds, maxTranscriptRounds)
	}
	h := sha256.New()
	h.Write(t.state[:])
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(pass))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(block))
	h.Write(buf[:])
	h.Write(inHash[:])
	h.Write(outHash[:])
	for _, c := range commits {
		h.Write(c[:])
	}
	h.Sum(t.state[:0])
	bits := make([]byte, rounds)
	for i := range bits {
		bits[i] = (t.state[i/8] >> (i % 8)) & 1
	}
	return bits, nil
}

// BlockOpening opens one cut-and-choose round: the permutation and
// randomizers mapping input→shadow (challenge 0) or shadow→output
// (challenge 1). The verifier recomputes the challenge bit, and the
// shadow itself, from what it already holds.
type BlockOpening struct {
	Perm []int
	Rand []*big.Int
}

// BlockShuffleProof is the cut-and-choose argument for one block: the
// shadow commitments (hashed before the challenge exists) and one
// opening per challenge bit. The shadows themselves are not part of
// the proof.
type BlockShuffleProof struct {
	Commits  [][32]byte
	Openings []BlockOpening
}

// ProveShuffleBlock builds the block's argument: out must be a shuffle
// of in under the witness w (from Shuffle). The transcript advances by
// one block record; the caller must prove blocks in block order.
func ProveShuffleBlock(t *ShuffleTranscript, pass, block int, pk Point, in, out []Ciphertext, w ShuffleWitness, rounds int) (BlockShuffleProof, error) {
	n := len(in)
	proof := BlockShuffleProof{Commits: make([][32]byte, rounds), Openings: make([]BlockOpening, rounds)}
	for r := range proof.Openings {
		// Each shadow lives only long enough to be hashed.
		o := BlockOpening{Perm: randomPerm(n), Rand: RandomScalars(n)}
		proof.Commits[r] = HashBlock(rerandomizePermuted(pk, in, o.Perm, o.Rand))
		proof.Openings[r] = o
	}
	bits, err := t.BlockChallenges(pass, block, HashBlock(in), HashBlock(out), proof.Commits, rounds)
	if err != nil {
		return BlockShuffleProof{}, err
	}
	for r, o := range proof.Openings {
		if bits[r] == 0 {
			continue // input -> shadow opens as drawn
		}
		// Open shadow -> output: output i came from input w.Perm[i]
		// with randomizer w.Rand[i], which feeds shadow index
		// invShadow[w.Perm[i]]; the residual randomizer is the
		// difference.
		invShadow := invertPerm(o.Perm)
		open := BlockOpening{Perm: make([]int, n), Rand: make([]*big.Int, n)}
		for i := 0; i < n; i++ {
			idx := invShadow[w.Perm[i]]
			open.Perm[i] = idx
			d := new(big.Int).Sub(w.Rand[i], o.Rand[idx])
			open.Rand[i] = d.Mod(d, order)
		}
		proof.Openings[r] = open
	}
	return proof, nil
}

// ErrBadBlockShuffle is returned when a block's shuffle argument fails
// to verify.
var ErrBadBlockShuffle = errors.New("elgamal: block shuffle proof verification failed")

// VerifyShuffleBlock checks one block's argument against the verifier's
// own copy of the input block and the prover's claimed output block:
// every round's shadow, recomputed from its opening on the side the
// challenge selects, must hash to the commitment that fed the challenge
// derivation. The transcript advances by one block record; the caller
// must verify blocks in block order.
func VerifyShuffleBlock(t *ShuffleTranscript, pass, block int, pk Point, in, out []Ciphertext, proof BlockShuffleProof) error {
	n := len(in)
	if len(out) != n || len(proof.Openings) == 0 || len(proof.Commits) != len(proof.Openings) {
		return ErrBadBlockShuffle
	}
	for _, o := range proof.Openings {
		if len(o.Perm) != n || len(o.Rand) != n {
			return ErrBadBlockShuffle
		}
	}
	bits, err := t.BlockChallenges(pass, block, HashBlock(in), HashBlock(out), proof.Commits, len(proof.Openings))
	if err != nil {
		return err
	}
	for r, o := range proof.Openings {
		if !isPerm(o.Perm) {
			return ErrBadBlockShuffle
		}
		for _, rr := range o.Rand {
			if rr == nil || rr.Sign() < 0 || rr.Cmp(order) >= 0 {
				return ErrBadBlockShuffle
			}
		}
		// Rebuild the shadow in one batch (shared tables, one inversion
		// per window step) from the side the challenge opened.
		var shadow []Ciphertext
		if bits[r] == 0 {
			shadow = rerandomizePermuted(pk, in, o.Perm, o.Rand)
		} else {
			neg := make([]*big.Int, n)
			for i, rr := range o.Rand {
				neg[i] = new(big.Int).Sub(order, rr) // reduced by the batch call when rr is 0
			}
			shadow = make([]Ciphertext, n)
			for i, c := range BatchRerandomizeWith(pk, out, neg) {
				shadow[o.Perm[i]] = c
			}
		}
		if HashBlock(shadow) != proof.Commits[r] {
			return fmt.Errorf("%w: round %d opening does not reproduce its committed shadow", ErrBadBlockShuffle, r)
		}
	}
	return nil
}
