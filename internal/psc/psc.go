package psc

import (
	"fmt"

	"repro/internal/wire"
)

// Config describes one PSC round.
type Config struct {
	Round uint64
	// Bins is the hash-table size b. It must comfortably exceed the
	// expected distinct count; the estimator corrects residual
	// collisions.
	Bins int
	// NoisePerCP is how many fair-coin noise ciphertexts each CP
	// injects. Total noise is Binomial(NoisePerCP·NumCPs, 1/2); the
	// calibration comes from dp.PSCNoiseTrials.
	NoisePerCP int
	// ShuffleProofRounds is the per-block cut-and-choose soundness
	// parameter, in [1,128]: a cheating block survives with probability
	// 2^-rounds, and the stage error is at most blocks·passes·2^-rounds
	// by a union bound. Every round is verified — there is no setting
	// that skips the shuffle, blind, bit or share proofs; the deployment
	// default is 8.
	ShuffleProofRounds int
	// ShuffleBlockElems is the streaming shuffle's block size: the
	// mixed vector is arranged as rows of this many elements and each
	// pass permutes one block at a time, so CP and TS shuffle-phase
	// residency is O(block) ciphertexts instead of O(bins·rounds). Zero
	// selects DefaultShuffleBlock.
	ShuffleBlockElems int
	// ShufflePasses is how many alternating row/column passes each CP
	// runs (zero: DefaultShufflePasses). Two passes give every element
	// full positional support; more passes tighten the composed
	// permutation toward uniform at a linear cost.
	ShufflePasses  int
	NumDCs, NumCPs int
	// ChunkElems is how many ciphertexts travel per chunk frame; zero
	// selects DefaultChunk. Smaller chunks tighten the per-party memory
	// bound of the element-wise phases at the cost of more frames.
	ChunkElems int
	// MinDCs is the quorum floor for data collectors: the round
	// completes (with degraded coverage, annotated in
	// Result.AbsentDCs) as long as at least MinDCs tables arrive in
	// full and Recover declares the rest absent. Zero means every DC
	// is required. CPs have no quorum knob: the joint key is an n-of-n
	// threshold, so losing any CP loses the round.
	MinDCs int
	// Recover is consulted whenever the exchange with the DC at index
	// i of the Run slice (CPs first, then DCs) fails. canRetry reports
	// that a replacement messenger (a rejoined daemon's fresh round
	// stream) may restart the DC's exchange from registration; the
	// tally buffers each DC's table and merges it into the shared sum
	// only once complete, so a failed upload leaves no partial state
	// and every failure before the table's completion is retryable. A
	// nil replacement with absentOK=true declares the DC absent — none
	// of its table is included in the aggregate; absentOK=false fails
	// the round with the original error. Nil Recover means no
	// replacement and no absence: the first DC error fails the round.
	Recover func(i int, name string, canRetry bool) (replacement wire.Messenger, absentOK bool)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Bins <= 0 {
		return fmt.Errorf("psc: bins must be positive")
	}
	if c.NoisePerCP < 0 {
		return fmt.Errorf("psc: negative noise")
	}
	if c.NumDCs <= 0 {
		return fmt.Errorf("psc: need at least one DC")
	}
	if c.MinDCs < 0 || c.MinDCs > c.NumDCs {
		return fmt.Errorf("psc: DC quorum %d out of range for %d DCs", c.MinDCs, c.NumDCs)
	}
	if c.NumCPs <= 0 {
		return fmt.Errorf("psc: need at least one CP (privacy needs one honest CP)")
	}
	// The largest mixed vector is the last CP's: the table plus every
	// CP's appended noise.
	return checkShape(c.Bins+c.NumCPs*c.NoisePerCP, c.ChunkElems, c.ShuffleBlockElems, c.ShufflePasses, c.ShuffleProofRounds)
}

// checkShape checks a round's streaming geometry and proof count
// against the frame budget, for a mixed vector of total elements. The
// TS applies it to its own Config; a CP applies it to the configure
// frame it was sent, which is input from outside the process.
func checkShape(total, chunk, block, passes, rounds int) error {
	if total < 1 {
		return fmt.Errorf("psc: mixed vector of %d elements", total)
	}
	// A blind chunk carries ~330 bytes per element (ciphertext plus
	// DLEQ proof); past 2048 elements a chunk frame would approach the
	// wire frame cap and flow-control window.
	if chunk < 0 || chunk > 2048 {
		return fmt.Errorf("psc: chunk size %d outside the frame budget [0,2048]", chunk)
	}
	if block < 0 || block > maxBlockElems {
		return fmt.Errorf("psc: shuffle block %d outside the frame budget [0,%d]", block, maxBlockElems)
	}
	if passes < 0 || passes > 16 {
		return fmt.Errorf("psc: shuffle passes %d outside [0,16]", passes)
	}
	if rounds < 1 || rounds > 128 {
		return fmt.Errorf("psc: ShuffleProofRounds %d outside [1,128]: every round is verified, the unverified mode is gone", rounds)
	}
	// A column block carries one element per row, so the row count must
	// fit the frame budget too.
	block = blockOf(block)
	if total > maxBlockElems*block {
		return fmt.Errorf("psc: %d-element vectors over %d-element blocks give %d-element columns, exceeding the frame budget (max %d); raise the shuffle block size",
			total, block, (total-1)/block+1, maxBlockElems)
	}
	// A single pass over a multi-block vector never moves an element
	// out of its block, so the TS would learn which block every
	// occupied bin falls in — a silent downgrade of the privacy barrier
	// the shuffle exists to provide. (A vector that fits one block is
	// fine: one pass covers it entirely.)
	if passes == 1 && total > block {
		return fmt.Errorf("psc: 1 shuffle pass over a %d-element vector with %d-element blocks is block-local, not a full shuffle; use at least 2 passes",
			total, block)
	}
	return nil
}

// TotalNoiseTrials returns the total number of coin flips in a round's
// report, the parameter the estimator needs.
func (c Config) TotalNoiseTrials() int { return c.NoisePerCP * c.NumCPs }
