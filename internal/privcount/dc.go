package privcount

import (
	"fmt"

	"repro/internal/dp"
	"repro/internal/wire"
)

// DC is a data collector: the process attached to one instrumented Tor
// relay. Between Setup and Finish the relay (or simulator) feeds it
// events via Increment; everything it ultimately sends to the tally
// server is blinded and noised.
type DC struct {
	Name string

	m        wire.Messenger
	schema   *Schema
	counters *Counters
	round    uint64
	weight   float64
	noise    *dp.NoiseSource
	ready    bool
}

// NewDC creates a data collector speaking on m — a dedicated connection
// or one round's stream of a multiplexed session. The noise source may
// be nil to use cryptographic randomness. A DC serves exactly one
// round; daemons create one per round stream.
func NewDC(name string, m wire.Messenger, noise *dp.NoiseSource) *DC {
	if noise == nil {
		noise = dp.NewNoiseSource(nil)
	}
	return &DC{Name: name, m: m, noise: noise}
}

// Setup receives the round configuration from the tally server,
// distributes sealed blinding seeds and blinds its counters with their
// expansions, and waits for the begin signal. On return the DC is ready
// to count.
func (dc *DC) Setup() error {
	var cfg ConfigureMsg
	if err := dc.m.Expect(kindConfigure, &cfg); err != nil {
		return fmt.Errorf("privcount dc %s: configure: %w", dc.Name, err)
	}
	schema, err := newSchema(cfg.Shapes)
	if err != nil {
		return err
	}
	dc.schema = schema
	dc.counters = NewCounters(schema)
	dc.round = cfg.Round
	dc.weight = cfg.NoiseWeight

	if err := dc.blind(cfg); err != nil {
		return err
	}
	var begin BeginMsg
	if err := dc.m.Expect(kindBegin, &begin); err != nil {
		return fmt.Errorf("privcount dc %s: begin: %w", dc.Name, err)
	}
	dc.ready = true
	return nil
}

// blind draws one fresh seed per SK, ships the sealed seeds to the TS
// for relay in a single frame — its size depends on the SK count, not
// the schema — and adds every seed's expansion into the counters. The
// share vectors themselves never travel; each SK will subtract its own
// expansion at aggregation time. The seeds are wiped on return.
func (dc *DC) blind(cfg ConfigureMsg) error {
	pubs := make([][]byte, len(cfg.SKNames))
	seeds := make([][]byte, len(cfg.SKNames))
	defer func() {
		for _, seed := range seeds {
			clear(seed)
		}
	}()
	for i, sk := range cfg.SKNames {
		pub, ok := cfg.SKKeys[sk]
		if !ok {
			return fmt.Errorf("privcount dc %s: no seal key for SK %s", dc.Name, sk)
		}
		pubs[i] = pub
		seeds[i] = newSeed()
	}
	sealed, err := SealBatch(pubs, seeds)
	if err != nil {
		return fmt.Errorf("privcount dc %s: seal seeds: %w", dc.Name, err)
	}
	boxes := make(map[string][]byte, len(cfg.SKNames))
	for i, sk := range cfg.SKNames {
		boxes[sk] = sealed[i]
	}
	size := dc.schema.Size()
	if err := dc.m.Send(kindShares, SharesMsg{N: size, Boxes: boxes}); err != nil {
		return fmt.Errorf("privcount dc %s: shares: %w", dc.Name, err)
	}
	for _, seed := range seeds {
		if err := expandSeed(seed, size, dc.counters.AddBlindingAt); err != nil {
			return err
		}
	}
	return nil
}

// Increment adds delta to a statistic bin; it must only be called
// between Setup and Finish.
func (dc *DC) Increment(stat string, bin int, delta float64) error {
	if !dc.ready {
		return fmt.Errorf("privcount dc %s: increment before setup", dc.Name)
	}
	return dc.counters.Increment(stat, bin, delta)
}

// Schema returns the round schema (nil before Setup).
func (dc *DC) Schema() *Schema { return dc.schema }

// Finish adds this DC's share of the Gaussian noise and streams the
// blinded report to the tally server in bounded chunks.
func (dc *DC) Finish() error {
	if !dc.ready {
		return fmt.Errorf("privcount dc %s: finish before setup", dc.Name)
	}
	dc.ready = false
	dc.counters.AddNoise(dc.noise.Gaussian, dc.weight)
	// The counters stream straight from where they were counted: the DC
	// serves one round, so nothing writes them again.
	vals := dc.counters.vals
	if err := dc.m.Send(kindReport, ReportMsg{Round: dc.round, N: len(vals)}); err != nil {
		return err
	}
	return sendValues(dc.m, vals)
}
