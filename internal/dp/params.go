package dp

import (
	"errors"
	"fmt"
	"math"
)

// Params is an (ε,δ) differential-privacy guarantee over 24 hours of a
// single user's bounded network activity.
type Params struct {
	Epsilon float64
	Delta   float64
}

// StudyParams returns the parameters the paper uses: ε = 0.3 (matching
// Tor's own onion-service statistics) and δ = 10⁻¹¹, chosen so that nδ
// stays small even for n ≈ 10⁶ users (§3.2).
func StudyParams() Params { return Params{Epsilon: 0.3, Delta: 1e-11} }

// Validate checks the parameters are usable.
func (p Params) Validate() error {
	if !(p.Epsilon > 0) || math.IsInf(p.Epsilon, 0) {
		return fmt.Errorf("dp: epsilon must be positive and finite, got %v", p.Epsilon)
	}
	if !(p.Delta > 0) || p.Delta >= 1 {
		return fmt.Errorf("dp: delta must be in (0,1), got %v", p.Delta)
	}
	return nil
}

// Split divides the budget evenly across n concurrently collected
// statistics (basic composition).
func (p Params) Split(n int) (Params, error) {
	if n <= 0 {
		return Params{}, errors.New("dp: split over non-positive count")
	}
	return Params{Epsilon: p.Epsilon / float64(n), Delta: p.Delta / float64(n)}, nil
}

// GaussianSigma returns the standard deviation required by the Gaussian
// mechanism to make a statistic with the given L2 sensitivity
// (ε,δ)-differentially private: σ = s·√(2·ln(1.25/δ))/ε.
func (p Params) GaussianSigma(sensitivity float64) float64 {
	if sensitivity <= 0 {
		return 0
	}
	return sensitivity * math.Sqrt(2*math.Log(1.25/p.Delta)) / p.Epsilon
}

// UserProtection reports the effective per-user delta when the network
// hosts n users; the paper argues δ·n must stay small for every user to
// be simultaneously protected (§3.2, citing Dwork & Roth).
func (p Params) UserProtection(users float64) float64 { return p.Delta * users }
