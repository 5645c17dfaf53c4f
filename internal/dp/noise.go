package dp

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// NoiseSource draws the random noise required by the privacy mechanisms.
// It reads entropy from an io.Reader — crypto/rand in production, a
// seeded stream in tests — and converts it to uniform, normal, and
// binomial variates. A NoiseSource is for one goroutine: the cached
// Box–Muller variate and the entropy buffer are unsynchronized.
type NoiseSource struct {
	r io.Reader
	// cached second Box–Muller variate
	spare    float64
	hasSpare bool
	// u64 is Uniform's read buffer: a local array would escape through
	// the reader's interface and cost a heap allocation per draw.
	u64 [8]byte
}

// NewNoiseSource returns a source reading from r; a nil r selects
// crypto/rand, read 4 KiB at a time so a Uniform costs a buffer copy
// instead of a system read. A caller's reader is read unbuffered,
// exactly the bytes each variate needs, so sources sharing one seeded
// stream keep their byte order.
func NewNoiseSource(r io.Reader) *NoiseSource {
	if r == nil {
		r = bufio.NewReaderSize(rand.Reader, 4096)
	}
	return &NoiseSource{r: r}
}

// Uniform returns a uniform float64 in (0,1).
func (n *NoiseSource) Uniform() float64 {
	if _, err := io.ReadFull(n.r, n.u64[:]); err != nil {
		panic("dp: noise entropy source failed: " + err.Error())
	}
	// 53 random mantissa bits, then shift into (0,1) avoiding exactly 0.
	u := binary.LittleEndian.Uint64(n.u64[:]) >> 11
	return (float64(u) + 0.5) / (1 << 53)
}

// Normal returns a standard normal variate via Box–Muller.
func (n *NoiseSource) Normal() float64 {
	if n.hasSpare {
		n.hasSpare = false
		return n.spare
	}
	u1, u2 := n.Uniform(), n.Uniform()
	r := math.Sqrt(-2 * math.Log(u1))
	n.spare = r * math.Sin(2*math.Pi*u2)
	n.hasSpare = true
	return r * math.Cos(2*math.Pi*u2)
}

// Gaussian returns a normal variate with mean 0 and the given sigma.
func (n *NoiseSource) Gaussian(sigma float64) float64 {
	if sigma <= 0 {
		return 0
	}
	return n.Normal() * sigma
}

// Binomial returns a Binomial(trials, 1/2) variate by counting fair coin
// flips, the noise distribution PSC adds to the union count (§3.3). It is
// exact, not an approximation, because PSC's confidence intervals depend
// on the precise distribution.
func (n *NoiseSource) Binomial(trials int) int {
	count := 0
	buf := make([]byte, (trials+7)/8)
	if _, err := io.ReadFull(n.r, buf); err != nil {
		panic("dp: noise entropy source failed: " + err.Error())
	}
	for i := 0; i < trials; i++ {
		if buf[i/8]&(1<<(i%8)) != 0 {
			count++
		}
	}
	return count
}

// Statistic describes one statistic collected in a PrivCount round for
// the purpose of noise calibration: its name, its sensitivity (how much
// one user's bounded activity can change it), and an estimate of its
// expected magnitude used by the optimal budget allocation.
type Statistic struct {
	Name        string
	Sensitivity float64
	// Expected is an a-priori estimate of the statistic's value; only
	// its relative size across statistics matters. Zero means "use equal
	// allocation for this statistic".
	Expected float64
}

// Allocation holds the per-statistic noise calibration for one round.
type Allocation struct {
	Sigmas  map[string]float64
	Epsilon map[string]float64
	Delta   map[string]float64
}

// AllocationMode selects how the round budget is divided across the
// statistics collected together.
type AllocationMode int

const (
	// AllocateEqual splits ε and δ evenly across statistics.
	AllocateEqual AllocationMode = iota
	// AllocateOptimal splits ε in proportion to (s_i/E_i)^(2/3), which
	// minimizes the sum of squared relative errors Σ(σ_i/E_i)² subject
	// to Σε_i = ε — the PrivCount approach to keeping noise on small
	// statistics from drowning them (and the reason the paper's
	// per-country bins mostly report pure noise, §5.2).
	AllocateOptimal
)

// Allocate calibrates Gaussian noise for a set of statistics measured
// together under the round budget p.
func Allocate(p Params, stats []Statistic, mode AllocationMode) (Allocation, error) {
	if err := p.Validate(); err != nil {
		return Allocation{}, err
	}
	if len(stats) == 0 {
		return Allocation{}, errors.New("dp: no statistics to allocate")
	}
	seen := make(map[string]bool, len(stats))
	for _, s := range stats {
		if s.Name == "" {
			return Allocation{}, errors.New("dp: statistic with empty name")
		}
		if seen[s.Name] {
			return Allocation{}, fmt.Errorf("dp: duplicate statistic %q", s.Name)
		}
		seen[s.Name] = true
		if s.Sensitivity < 0 {
			return Allocation{}, fmt.Errorf("dp: negative sensitivity for %q", s.Name)
		}
	}

	n := float64(len(stats))
	alloc := Allocation{
		Sigmas:  make(map[string]float64, len(stats)),
		Epsilon: make(map[string]float64, len(stats)),
		Delta:   make(map[string]float64, len(stats)),
	}

	weights := make([]float64, len(stats))
	totalW := 0.0
	for i, s := range stats {
		w := 1.0
		if mode == AllocateOptimal && s.Expected > 0 && s.Sensitivity > 0 {
			w = math.Pow(s.Sensitivity/s.Expected, 2.0/3.0)
		}
		weights[i] = w
		totalW += w
	}

	for i, s := range stats {
		epsI := p.Epsilon * weights[i] / totalW
		deltaI := p.Delta / n // δ always splits evenly: tail events compose additively
		pi := Params{Epsilon: epsI, Delta: deltaI}
		alloc.Epsilon[s.Name] = epsI
		alloc.Delta[s.Name] = deltaI
		alloc.Sigmas[s.Name] = pi.GaussianSigma(s.Sensitivity)
	}
	return alloc, nil
}

// PSCNoiseTrials returns the number of fair-coin noise bins each of the
// numParties computation parties must contribute so that the total
// Binomial(k·parties, 1/2) noise makes the reported cardinality
// (ε,δ)-differentially private for a set whose membership one user can
// change by at most sensitivity items. Following the PSC analysis, a
// binomial with t total trials gives (ε,δ)-DP for sensitivity s when
// t ≥ 64·s²·ln(2/δ)/ε² (a standard Chernoff-based calibration); privacy
// must hold even if all but one party's noise is known, so the honest
// party alone must supply t trials.
func PSCNoiseTrials(p Params, sensitivity float64, numParties int) (perParty int, err error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if sensitivity <= 0 {
		return 0, errors.New("dp: non-positive sensitivity")
	}
	if numParties <= 0 {
		return 0, errors.New("dp: need at least one computation party")
	}
	t := 64 * sensitivity * sensitivity * math.Log(2/p.Delta) / (p.Epsilon * p.Epsilon)
	return int(math.Ceil(t)), nil
}
