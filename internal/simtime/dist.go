package simtime

import (
	"math"
	"math/rand/v2"
	"sort"
)

// This file holds the random-variate helpers shared by the workload and
// noise models: exponential inter-arrival times, Zipf-like power laws
// over finite supports, and weighted discrete choice.

// Exp draws an exponential variate with the given rate (events per
// second), returned as a duration. A non-positive rate returns a very
// large duration, effectively "never".
func Exp(r *rand.Rand, rate float64) Time {
	if rate <= 0 {
		return Time(math.MaxInt64 / 4)
	}
	secs := r.ExpFloat64() / rate
	return Time(secs * float64(Second))
}

// Zipf samples ranks in [1, n] following a power law with exponent s
// (P(rank=k) ∝ k^-s). It precomputes the CDF so sampling is O(log n).
// The paper relies on the observation that web-site popularity follows a
// power law (§3.3, [13,33]); the exit-domain workload and the Monte-Carlo
// extrapolation in internal/stats both sample from this distribution.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over ranks 1..n with exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("simtime: Zipf over empty support")
	}
	cdf := make([]float64, n)
	total := 0.0
	for k := 1; k <= n; k++ {
		total += math.Pow(float64(k), -s)
		cdf[k-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf}
}

// N returns the support size.
func (z *Zipf) N() int { return len(z.cdf) }

// Rank draws a rank in [1, N].
func (z *Zipf) Rank(r *rand.Rand) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cdf, u) + 1
}

// Prob returns the probability mass of the given rank (1-based).
func (z *Zipf) Prob(rank int) float64 {
	if rank < 1 || rank > len(z.cdf) {
		return 0
	}
	if rank == 1 {
		return z.cdf[0]
	}
	return z.cdf[rank-1] - z.cdf[rank-2]
}

// WeightedChoice selects an index in [0, len(weights)) with probability
// proportional to its weight. It is used for consensus-weighted relay
// selection. Panics if all weights are zero or negative.
type WeightedChoice struct {
	cdf []float64
}

// NewWeightedChoice builds a sampler from non-negative weights.
func NewWeightedChoice(weights []float64) *WeightedChoice {
	cdf := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("simtime: negative weight")
		}
		total += w
		cdf[i] = total
	}
	if total <= 0 {
		panic("simtime: weighted choice with zero total weight")
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &WeightedChoice{cdf: cdf}
}

// Pick draws an index.
func (w *WeightedChoice) Pick(r *rand.Rand) int {
	u := r.Float64()
	return sort.SearchFloat64s(w.cdf, u)
}

// Len returns the number of choices.
func (w *WeightedChoice) Len() int { return len(w.cdf) }

// LogNormal draws a log-normal variate with the given location mu and
// scale sigma of the underlying normal. Used for heavy-tailed page sizes
// and transfer volumes.
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(r.NormFloat64()*sigma + mu)
}

// Poisson draws a Poisson variate with the given mean. For large means it
// uses the normal approximation, which is more than adequate for workload
// generation.
func Poisson(r *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := r.NormFloat64()*math.Sqrt(mean) + mean
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	// Knuth's method for small means.
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
