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
	NumDCs, NumCPs     int
	// MinDCs is the quorum floor for data collectors: the round
	// completes (with degraded coverage, annotated in
	// Result.AbsentDCs) as long as at least MinDCs tables arrive in
	// full. Zero means every DC is required. CPs have no quorum knob:
	// the joint key is an n-of-n threshold, so losing any CP loses the
	// round.
	MinDCs int
	// Recover is consulted whenever the exchange with the DC at index
	// i of the Run slice (CPs first, then DCs) fails. canRetry reports
	// that a replacement messenger (a rejoined daemon's fresh round
	// stream) may restart the DC's exchange from registration; the
	// tally buffers each DC's table and folds it into the round's
	// combination only once complete, so a failed upload leaves no
	// partial state and every failure before the table's completion is
	// retryable. A non-nil return is that replacement; nil, or a nil
	// Recover, declares the DC absent, and Run alone decides whether the
	// absence degrades or fails the round.
	Recover func(i int, canRetry bool) wire.Messenger
}

// floor is how many DCs must contribute: MinDCs, or every DC when it
// is zero.
func (c Config) floor() int {
	if c.MinDCs == 0 {
		return c.NumDCs
	}
	return c.MinDCs
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
	// CP's appended noise. The noise is bounded by division, before the
	// product is formed, so no product can wrap into the budget.
	if c.NoisePerCP > (maxVectorElems-c.Bins)/c.NumCPs {
		return fmt.Errorf("psc: %d bins plus %d noise elements from each of %d CPs exceed the %d-element vector budget",
			c.Bins, c.NoisePerCP, c.NumCPs, maxVectorElems)
	}
	return checkShape(c.Bins+c.NumCPs*c.NoisePerCP, c.ShuffleProofRounds)
}

// checkShape checks a round's mixed-vector length and proof count
// against the frame budget, for a mixed vector of total elements. The
// TS applies it to its own Config; a CP applies it to the configure
// frame it was sent, which is input from outside the process.
func checkShape(total, rounds int) error {
	if total < 1 {
		return fmt.Errorf("psc: mixed vector of %d elements", total)
	}
	if rounds < 1 || rounds > 128 {
		return fmt.Errorf("psc: ShuffleProofRounds %d outside [1,128]: every round is verified, the unverified mode is gone", rounds)
	}
	// A column block carries one element per row, so the row count must
	// fit the frame budget too.
	if total > maxVectorElems {
		return fmt.Errorf("psc: %d-element vectors over %d-element blocks give %d-element columns, exceeding the frame budget (max %d)",
			total, shuffleBlock, (total-1)/shuffleBlock+1, maxBlockElems)
	}
	return nil
}

// TotalNoiseTrials returns the total number of coin flips in a round's
// report, the parameter the estimator needs.
func (c Config) TotalNoiseTrials() int { return c.NoisePerCP * c.NumCPs }
