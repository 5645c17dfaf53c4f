package privcount

import (
	"fmt"
	"math"
)

// FractionBits is the binary fixed-point precision: counter unit 1.0 is
// represented as 1<<FractionBits. 16 bits of fraction leave 47 bits of
// signed integer range, comfortably above any single relay's daily
// event or byte counts.
const FractionBits = 16

const fpScale = float64(uint64(1) << FractionBits)

// toFixed converts a real value to fixed point in ℤ₂⁶⁴ (two's
// complement for negatives, which modular addition handles for free).
func toFixed(v float64) uint64 {
	return uint64(int64(math.Round(v * fpScale)))
}

// fromFixed decodes a ℤ₂⁶⁴ accumulator back to a real value,
// interpreting the high bit as sign.
func fromFixed(v uint64) float64 {
	return float64(int64(v)) / fpScale
}

// StatConfig describes one statistic collected in a round: a name, its
// histogram bins (a single-valued counter has exactly one bin), and the
// Gaussian noise sigma the round allocated to it.
type StatConfig struct {
	Name  string
	Bins  []string
	Sigma float64
}

// NumBins returns the bin count.
func (s StatConfig) NumBins() int { return len(s.Bins) }

// Schema is the ordered set of statistics in a round. The flat order
// (statistic-major, then bin) defines the layout of every share and
// report vector on the wire.
type Schema struct {
	Stats []StatConfig
	index map[string]statSpan
	total int
}

// statSpan locates one statistic in the flat vector: the offset of its
// first bin and its bin count.
type statSpan struct{ base, bins int }

// NewSchema validates and indexes the statistic list.
func NewSchema(stats []StatConfig) (*Schema, error) {
	s := &Schema{Stats: stats, index: make(map[string]statSpan, len(stats))}
	for _, st := range stats {
		if st.Name == "" {
			return nil, fmt.Errorf("privcount: statistic with empty name")
		}
		if len(st.Bins) == 0 {
			return nil, fmt.Errorf("privcount: statistic %q has no bins", st.Name)
		}
		if st.Sigma < 0 {
			return nil, fmt.Errorf("privcount: statistic %q has negative sigma", st.Name)
		}
		if _, dup := s.index[st.Name]; dup {
			return nil, fmt.Errorf("privcount: duplicate statistic %q", st.Name)
		}
		s.index[st.Name] = statSpan{base: s.total, bins: len(st.Bins)}
		s.total += len(st.Bins)
	}
	if s.total == 0 {
		return nil, fmt.Errorf("privcount: empty schema")
	}
	return s, nil
}

// Size returns the total number of counter slots.
func (s *Schema) Size() int { return s.total }

// Offset returns the flat index of (stat, bin), or an error for unknown
// coordinates.
func (s *Schema) Offset(stat string, bin int) (int, error) {
	span, ok := s.index[stat]
	if !ok {
		return 0, fmt.Errorf("privcount: unknown statistic %q", stat)
	}
	if bin < 0 || bin >= span.bins {
		return 0, fmt.Errorf("privcount: statistic %q has no bin %d", stat, bin)
	}
	return span.base + bin, nil
}

// Counters is a DC's counter vector over ℤ₂⁶⁴.
type Counters struct {
	schema *Schema
	vals   []uint64
}

// NewCounters allocates a zeroed counter vector for the schema.
func NewCounters(schema *Schema) *Counters {
	return &Counters{schema: schema, vals: make([]uint64, schema.Size())}
}

// Increment adds delta (in natural units, e.g. events or bytes) to the
// given statistic bin.
func (c *Counters) Increment(stat string, bin int, delta float64) error {
	off, err := c.schema.Offset(stat, bin)
	if err != nil {
		return err
	}
	c.vals[off] += toFixed(delta)
	return nil
}

// AddBlinding adds a whole share vector (mod 2⁶⁴) into the counters.
func (c *Counters) AddBlinding(shares []uint64) error {
	if len(shares) != len(c.vals) {
		return fmt.Errorf("privcount: share vector length %d, want %d", len(shares), len(c.vals))
	}
	return c.AddBlindingAt(0, shares)
}

// AddBlindingAt adds a share slice (mod 2⁶⁴) into the counter slots
// starting at off — the step a seed expansion takes, one chunk at a
// time.
func (c *Counters) AddBlindingAt(off int, shares []uint64) error {
	if off < 0 || off+len(shares) > len(c.vals) {
		return fmt.Errorf("privcount: share slice [%d,%d) outside %d slots", off, off+len(shares), len(c.vals))
	}
	for i, s := range shares {
		c.vals[off+i] += s
	}
	return nil
}

// AddNoise adds Gaussian noise to every bin: each statistic's sigma is
// scaled by sqrt(weight), the DC's share of the round's noise
// responsibility, so the DCs jointly produce the full calibrated sigma.
func (c *Counters) AddNoise(gaussian func(sigma float64) float64, weight float64) {
	if weight <= 0 {
		return
	}
	scale := math.Sqrt(weight)
	i := 0
	for _, st := range c.schema.Stats {
		for b := 0; b < len(st.Bins); b++ {
			if st.Sigma > 0 {
				c.vals[i] += toFixed(gaussian(st.Sigma * scale))
			}
			i++
		}
	}
}

// Snapshot returns a copy of the raw vector for transmission.
func (c *Counters) Snapshot() []uint64 {
	out := make([]uint64, len(c.vals))
	copy(out, c.vals)
	return out
}

// Aggregate sums report vectors mod 2⁶⁴ and decodes fixed point. Inputs
// are the DC reports (blinded counts plus noise) and the SK sums
// (negated blinding totals); their modular sum telescopes to counts
// plus noise.
func Aggregate(schema *Schema, vectors ...[]uint64) (map[string][]float64, error) {
	sum := make([]uint64, schema.Size())
	for _, v := range vectors {
		if len(v) != len(sum) {
			return nil, fmt.Errorf("privcount: aggregate vector length %d, want %d", len(v), len(sum))
		}
		for i, x := range v {
			sum[i] += x
		}
	}
	return AggregateSum(schema, sum)
}

// AggregateSum decodes an already-telescoped modular accumulator — the
// streaming tolerant flow folds every report and blinding vector into
// one sum chunk-wise instead of buffering them, then decodes it here.
func AggregateSum(schema *Schema, sum []uint64) (map[string][]float64, error) {
	if len(sum) != schema.Size() {
		return nil, fmt.Errorf("privcount: aggregate sum length %d, want %d", len(sum), schema.Size())
	}
	out := make(map[string][]float64, len(schema.Stats))
	i := 0
	for _, st := range schema.Stats {
		vals := make([]float64, len(st.Bins))
		for b := range vals {
			vals[b] = fromFixed(sum[i])
			i++
		}
		out[st.Name] = vals
	}
	return out, nil
}
