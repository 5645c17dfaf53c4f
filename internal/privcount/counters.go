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

// StatShape is what a DC is told about a statistic: its name, how many
// bins it has, and its noise sigma. A DC counts into bins by index and
// never reads a label, so the configure frame carries no labels — its
// size depends on the number of statistics, not the number of bins.
type StatShape struct {
	Name  string
	Bins  int
	Sigma float64
}

// shapesOf strips the bin labels from a statistic list.
func shapesOf(stats []StatConfig) []StatShape {
	out := make([]StatShape, len(stats))
	for i, st := range stats {
		out[i] = StatShape{Name: st.Name, Bins: len(st.Bins), Sigma: st.Sigma}
	}
	return out
}

// Schema is the ordered set of statistics in a round. The flat order
// (statistic-major, then bin) defines the layout of every share and
// report vector on the wire.
type Schema struct {
	stats []statSpan
	index map[string]int // statistic name -> position in stats
	total int
}

// statSpan locates one statistic in the flat vector: the offset of its
// first bin and its bin count.
type statSpan struct {
	name       string
	base, bins int
	sigma      float64
}

// NewSchema validates and indexes the statistic list.
func NewSchema(stats []StatConfig) (*Schema, error) {
	return newSchema(shapesOf(stats))
}

// newSchema validates and indexes a label-free statistic list — the
// form a DC receives. Every bin count is checked, and the running total
// held to maxSlots, before anything is sized from them, so a hostile
// configuration costs its own frame and nothing more.
func newSchema(shapes []StatShape) (*Schema, error) {
	s := &Schema{stats: make([]statSpan, 0, len(shapes)), index: make(map[string]int, len(shapes))}
	for _, st := range shapes {
		if st.Name == "" {
			return nil, fmt.Errorf("privcount: statistic with empty name")
		}
		if st.Bins <= 0 {
			return nil, fmt.Errorf("privcount: statistic %q has no bins", st.Name)
		}
		if st.Bins > maxSlots-s.total {
			return nil, fmt.Errorf("privcount: schema exceeds %d counter slots at statistic %q", maxSlots, st.Name)
		}
		if st.Sigma < 0 {
			return nil, fmt.Errorf("privcount: statistic %q has negative sigma", st.Name)
		}
		if _, dup := s.index[st.Name]; dup {
			return nil, fmt.Errorf("privcount: duplicate statistic %q", st.Name)
		}
		s.index[st.Name] = len(s.stats)
		s.stats = append(s.stats, statSpan{name: st.Name, base: s.total, bins: st.Bins, sigma: st.Sigma})
		s.total += st.Bins
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
	i, ok := s.index[stat]
	if !ok {
		return 0, fmt.Errorf("privcount: unknown statistic %q", stat)
	}
	span := s.stats[i]
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
	for _, st := range c.schema.stats {
		if st.sigma <= 0 {
			continue
		}
		vals := c.vals[st.base : st.base+st.bins]
		for b := range vals {
			vals[b] += toFixed(gaussian(st.sigma * scale))
		}
	}
}

// AggregateSum decodes a telescoped modular accumulator from fixed
// point. The tally folds every DC report (blinded counts plus noise)
// and every SK sum (negated blinding totals) into one sum mod 2⁶⁴
// chunk-wise; the blinding cancels, leaving counts plus noise.
func AggregateSum(schema *Schema, sum []uint64) (map[string][]float64, error) {
	if len(sum) != schema.Size() {
		return nil, fmt.Errorf("privcount: aggregate sum length %d, want %d", len(sum), schema.Size())
	}
	out := make(map[string][]float64, len(schema.stats))
	for _, st := range schema.stats {
		vals := make([]float64, st.bins)
		for b, x := range sum[st.base : st.base+st.bins] {
			vals[b] = fromFixed(x)
		}
		out[st.name] = vals
	}
	return out, nil
}
