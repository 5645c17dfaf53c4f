package stats

import (
	"errors"
	"fmt"
	"math"
)

// This file implements the PSC estimator of §3.3: the reported value is
// the number of non-empty hash-table bins plus Binomial(t, 1/2) noise,
// so recovering the distinct-item count must undo both the noise and the
// hash collisions. The paper computes 95% confidence intervals "using an
// exact algorithm based on dynamic programming"; UnionCardinalityCI
// inverts the full observation model through the occupancy's exact
// moments, which occupancy_test.go holds to that dynamic program
// (OccupancyPMF, O(n·b), kept there as the reference).

// OccupancyMoments returns the exact mean and variance of the number of
// occupied bins when n distinct items hash uniformly into b bins:
//
//	E[X]   = b(1 − (1−1/b)^n)
//	Var[X] = b(b−1)(1−2/b)^n + b(1−1/b)^n − b²(1−1/b)^{2n}
func OccupancyMoments(b, n int) (mean, variance float64) {
	if b <= 0 || n <= 0 {
		return 0, 0
	}
	fb := float64(b)
	q1 := math.Exp(float64(n) * math.Log1p(-1/fb))       // (1-1/b)^n
	q2 := math.Exp(float64(n) * math.Log1p(-2/fb))       // (1-2/b)^n
	q1sq := math.Exp(2 * float64(n) * math.Log1p(-1/fb)) // (1-1/b)^{2n}
	mean = fb * (1 - q1)
	variance = fb*(fb-1)*q2 + fb*q1 - fb*fb*q1sq
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// InvertOccupancy estimates the number of distinct items from an
// observed number of occupied bins: n̂ = ln(1 − m/b)/ln(1 − 1/b). When
// m ≥ b the estimate saturates (every bin full ⇒ unbounded), so it
// returns the n that fills all but an expected half bin.
func InvertOccupancy(b int, occupied float64) float64 {
	if b <= 0 || occupied <= 0 {
		return 0
	}
	fb := float64(b)
	if occupied >= fb {
		occupied = fb - 0.5
	}
	return math.Log1p(-occupied/fb) / math.Log1p(-1/fb)
}

// PSCObservation is a single PSC round result to be converted into a
// distinct-count estimate.
type PSCObservation struct {
	// Reported is the protocol output: occupied bins plus noise.
	Reported int
	// Bins is the hash-table size b.
	Bins int
	// NoiseTrials is the total number of fair coins t summed into the
	// report; the noise is Binomial(t, 1/2) with mean t/2.
	NoiseTrials int
}

// UnionCardinalityCI returns the point estimate and exact-model central
// 95% confidence interval for the number of distinct items, accounting
// for both the binomial noise and hash collisions (§3.3).
//
// For candidate counts n it combines the occupancy distribution (exact
// moments; the PMF is exactly normal-convergent at these sizes) with the
// Binomial(t,1/2) noise and finds the range of n for which the observed
// report is not in either 2.5% tail.
func UnionCardinalityCI(obs PSCObservation) (Interval, error) {
	if obs.Bins <= 0 {
		return Interval{}, errors.New("stats: PSC observation with no bins")
	}
	if obs.NoiseTrials < 0 {
		return Interval{}, errors.New("stats: negative noise trials")
	}
	noiseMean := float64(obs.NoiseTrials) / 2
	noiseVar := float64(obs.NoiseTrials) / 4
	occupied := float64(obs.Reported) - noiseMean
	point := InvertOccupancy(obs.Bins, occupied)

	// For candidate n, reported ~ Normal(E[X_n] + t/2, Var[X_n] + t/4)
	// (both components concentrate; exact at study scale). The covered
	// set {n : |reported − μ(n)| ≤ z·σ(n)} is an interval because μ is
	// strictly monotone in n, so each boundary is found by bisection on
	// a monotone criterion:
	//
	//	lower bound: smallest n with μ(n) + z·σ(n) ≥ reported
	//	upper bound: largest  n with μ(n) − z·σ(n) ≤ reported
	rep := float64(obs.Reported)
	upperEnvelope := func(n int) float64 {
		m, v := OccupancyMoments(obs.Bins, n)
		return m + noiseMean + z95*math.Sqrt(v+noiseVar)
	}
	lowerEnvelope := func(n int) float64 {
		m, v := OccupancyMoments(obs.Bins, n)
		return m + noiseMean - z95*math.Sqrt(v+noiseVar)
	}

	// Beyond ~4·b·ln b items the table is saturated and the expected
	// occupancy no longer moves.
	maxN := int(4*float64(obs.Bins)*math.Log(float64(obs.Bins)+2)) + obs.NoiseTrials + 16
	lo := smallestSatisfying(0, maxN, func(n int) bool { return upperEnvelope(n) >= rep })
	hi := largestSatisfying(0, maxN, func(n int) bool { return lowerEnvelope(n) <= rep })
	if lo < 0 {
		lo = maxN // report above everything reachable: saturated table
	}
	if hi < 0 {
		hi = 0 // report below even n=0's band: clamp at zero
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	return Interval{Value: math.Max(point, 0), Lo: float64(lo), Hi: float64(hi)}, nil
}

// smallestSatisfying returns the least n in [lo, hi] with pred(n) true,
// assuming pred is monotone (false…false true…true), or -1 if none.
func smallestSatisfying(lo, hi int, pred func(int) bool) int {
	if !pred(hi) {
		return -1
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pred(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// largestSatisfying returns the greatest n in [lo, hi] with pred(n)
// true, assuming pred is monotone (true…true false…false), or -1.
func largestSatisfying(lo, hi int, pred func(int) bool) int {
	if !pred(lo) {
		return -1
	}
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if pred(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// CollisionBias reports the expected shortfall E[n − X_n] (items minus
// occupied bins) for n items in b bins, the quantity the estimator must
// add back. Exposed for the table-size ablation benchmark.
func CollisionBias(b, n int) float64 {
	mean, _ := OccupancyMoments(b, n)
	return float64(n) - mean
}

// String implements fmt.Stringer for diagnostics.
func (o PSCObservation) String() string {
	return fmt.Sprintf("psc(reported=%d bins=%d noise-trials=%d)", o.Reported, o.Bins, o.NoiseTrials)
}
