// Package stats implements the statistical methodology of the paper's
// §3.3: confidence intervals for noisy PrivCount counts, network-wide
// inference by dividing out the measuring relays' weight fraction, exact
// confidence intervals for PSC unique counts (binomial noise plus
// hash-table collisions, via dynamic programming), power-law Monte-Carlo
// extrapolation of unique counts, and the guards-per-client model used
// for Table 3.
package stats

import (
	"fmt"
	"math"
)

// Interval is a confidence interval [Lo, Hi] around a point estimate.
type Interval struct {
	Value  float64
	Lo, Hi float64
}

// String renders the interval in the paper's style.
func (iv Interval) String() string {
	return fmt.Sprintf("%.4g (CI: [%.4g; %.4g])", iv.Value, iv.Lo, iv.Hi)
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Scale multiplies the estimate and both endpoints by f, the operation
// behind network-wide inference from a weight fraction (§3.3).
func (iv Interval) Scale(f float64) Interval {
	return Interval{Value: iv.Value * f, Lo: iv.Lo * f, Hi: iv.Hi * f}
}

// Intersect returns the overlap of two intervals and whether it is
// non-empty. Table 3's model fitting keeps the parameter values whose
// predicted intervals intersect across both measurements.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	lo := math.Max(iv.Lo, other.Lo)
	hi := math.Min(iv.Hi, other.Hi)
	if lo > hi {
		return Interval{}, false
	}
	return Interval{Value: (lo + hi) / 2, Lo: lo, Hi: hi}, true
}

// z95 is the two-sided 95% standard normal quantile.
const z95 = 1.959963984540054

// NormalCI returns the 95% confidence interval for a value observed with
// additive Gaussian noise of the given standard deviation. This is the
// interval construction used for every PrivCount measurement (§3.3).
func NormalCI(value, sigma float64) Interval {
	if sigma < 0 {
		sigma = -sigma
	}
	return Interval{Value: value, Lo: value - z95*sigma, Hi: value + z95*sigma}
}

// InferTotal projects a locally observed noisy count to a network-wide
// total by dividing by the fraction of observations the measuring relays
// make, e.g. dividing an exit-stream count by the relays' combined exit
// weight (§3.3). It errors on a non-positive fraction.
func InferTotal(local Interval, fraction float64) (Interval, error) {
	if !(fraction > 0) || fraction > 1 {
		return Interval{}, fmt.Errorf("stats: observation fraction %v outside (0,1]", fraction)
	}
	return local.Scale(1 / fraction), nil
}

// ClampNonNegative truncates the interval (and estimate) at zero. The
// paper reports negative noisy counters as "most likely zero" (Figure 1b
// discussion); counts cannot be negative.
func (iv Interval) ClampNonNegative() Interval {
	c := iv
	if c.Lo < 0 {
		c.Lo = 0
	}
	if c.Hi < 0 {
		c.Hi = 0
	}
	if c.Value < 0 {
		c.Value = 0
	}
	return c
}

// RangeOnly returns the "no known frequency distribution" network-wide
// range [x, x/p] from §3.3: the lower end assumes every item was seen by
// all relays, the upper end assumes items are seen only once.
func RangeOnly(observed float64, fraction float64) (Interval, error) {
	if !(fraction > 0) || fraction > 1 {
		return Interval{}, fmt.Errorf("stats: observation fraction %v outside (0,1]", fraction)
	}
	return Interval{Value: observed, Lo: observed, Hi: observed / fraction}, nil
}
