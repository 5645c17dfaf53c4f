// Package tornet simulates the Tor network as seen by a small set of
// instrumented measurement relays. It does not simulate every packet of
// a 6,500-relay network; it reproduces, exactly in distribution, the
// event streams the paper's 16 relays observed: which clients pick a
// measuring relay as a guard, which circuits exit through a measuring
// exit, what streams those circuits carry, and how much data flows.
//
// The consensus model plants the measurement relays with the observed
// weight fractions the paper reports for each experiment (e.g. 1.5% of
// exit weight for the Figure 1 stream measurements), so the statistical
// inference pipeline divides by the same fractions the paper does.
package tornet

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/event"
	"repro/internal/simtime"
)

// Flag is a relay capability flag from the consensus.
type Flag uint8

// Relay flags.
const (
	FlagGuard Flag = 1 << iota
	FlagExit
	FlagHSDir
)

// Relay is one consensus entry.
type Relay struct {
	ID        event.RelayID
	Nickname  string
	Flags     Flag
	Weight    float64 // consensus bandwidth weight
	Measuring bool    // one of our instrumented relays
}

// Has reports whether the relay carries the flag.
func (r Relay) Has(f Flag) bool { return r.Flags&f != 0 }

// Fractions configures the combined weight fractions of the measuring
// relays, per position. These are the paper's per-experiment observed
// fractions (§4–§6).
type Fractions struct {
	// Exit is the measuring relays' share of exit weight (e.g. 0.015
	// for the Figure 1 measurement).
	Exit float64
	// Guard is the share of guard weight (0.0119 for Table 5).
	Guard float64
	// HSDirFrac is the share of HSDir slots, which drives both the
	// publish and fetch observation probabilities (0.00534 reproduces
	// the paper's 2.75% publish / 0.534% fetch weights).
	HSDirFrac float64
	// Rend is the share of middle/rendezvous weight (0.0088, §6.3).
	Rend float64
}

// Validate checks all fractions are probabilities.
func (f Fractions) Validate() error {
	for _, v := range []float64{f.Exit, f.Guard, f.HSDirFrac, f.Rend} {
		if v < 0 || v >= 1 {
			return fmt.Errorf("tornet: weight fraction %v outside [0,1)", v)
		}
	}
	return nil
}

// StudyFractions returns fractions matching the paper's deployment at
// its most common configuration.
func StudyFractions() Fractions {
	return Fractions{Exit: 0.015, Guard: 0.0119, HSDirFrac: 0.00534, Rend: 0.0088}
}

// Consensus is the synthetic network directory.
type Consensus struct {
	Relays []Relay

	fractions Fractions

	measuringExits  []event.RelayID
	measuringGuards []event.RelayID
	measuringHSDirs []event.RelayID

	exitPick  *simtime.WeightedChoice // over measuringExits
	guardPick *simtime.WeightedChoice // over measuringGuards

	numHSDirs int
}

// ConsensusConfig sizes the synthetic network.
type ConsensusConfig struct {
	// TotalRelays approximates the live network size (~6,500 in 2018).
	TotalRelays int
	// MeasuringExits and MeasuringNonExits reproduce the deployment: 6
	// exit relays and 10 non-exit (guard/HSDir) relays.
	MeasuringExits    int
	MeasuringNonExits int
	Fractions         Fractions
	Seed              uint64
}

// DefaultConsensusConfig mirrors the paper's deployment.
func DefaultConsensusConfig() ConsensusConfig {
	return ConsensusConfig{
		TotalRelays:       6500,
		MeasuringExits:    6,
		MeasuringNonExits: 10,
		Fractions:         StudyFractions(),
		Seed:              2018,
	}
}

// NewConsensus builds the directory. Measuring relays receive weights
// that realize the configured fractions exactly in expectation; the
// remaining weight spreads over background relays with a heavy-tailed
// profile.
func NewConsensus(cfg ConsensusConfig) (*Consensus, error) {
	if err := cfg.Fractions.Validate(); err != nil {
		return nil, err
	}
	if cfg.MeasuringExits <= 0 || cfg.MeasuringNonExits <= 0 {
		return nil, fmt.Errorf("tornet: need measuring exits and non-exits")
	}
	if cfg.TotalRelays < cfg.MeasuringExits+cfg.MeasuringNonExits+10 {
		return nil, fmt.Errorf("tornet: network too small")
	}
	r := simtime.Rand(cfg.Seed, "consensus")
	c := &Consensus{fractions: cfg.Fractions}

	id := event.RelayID(0)
	addRelay := func(nick string, flags Flag, weight float64, measuring bool) Relay {
		rel := Relay{ID: id, Nickname: nick, Flags: flags, Weight: weight, Measuring: measuring}
		c.Relays = append(c.Relays, rel)
		id++
		return rel
	}

	// Measuring relays. Individual weights vary around the mean so the
	// per-relay selection distribution is not degenerate.
	for i := 0; i < cfg.MeasuringExits; i++ {
		w := 0.8 + 0.4*r.Float64()
		rel := addRelay(fmt.Sprintf("measure-exit-%d", i), FlagExit, w, true)
		c.measuringExits = append(c.measuringExits, rel.ID)
	}
	for i := 0; i < cfg.MeasuringNonExits; i++ {
		w := 0.8 + 0.4*r.Float64()
		rel := addRelay(fmt.Sprintf("measure-relay-%d", i), FlagGuard|FlagHSDir, w, true)
		c.measuringGuards = append(c.measuringGuards, rel.ID)
		c.measuringHSDirs = append(c.measuringHSDirs, rel.ID)
	}

	// Background relays: heavy-tailed weights, mixed flags.
	background := cfg.TotalRelays - cfg.MeasuringExits - cfg.MeasuringNonExits
	for i := 0; i < background; i++ {
		w := simtime.LogNormal(r, 0, 1.2)
		var flags Flag
		switch {
		case i%5 == 0:
			flags = FlagExit
		case i%2 == 0:
			flags = FlagGuard | FlagHSDir
		default:
			flags = FlagGuard
		}
		addRelay(fmt.Sprintf("relay-%d", i), flags, w, false)
	}

	// The HSDir ring size drives the observation fractions for
	// descriptor events; count HSDir-flagged relays and record it.
	for _, rel := range c.Relays {
		if rel.Has(FlagHSDir) {
			c.numHSDirs++
		}
	}

	// Per-measuring-relay selection distributions.
	c.exitPick = pickerFor(c.Relays, c.measuringExits)
	c.guardPick = pickerFor(c.Relays, c.measuringGuards)
	return c, nil
}

func pickerFor(relays []Relay, ids []event.RelayID) *simtime.WeightedChoice {
	w := make([]float64, len(ids))
	for i, id := range ids {
		w[i] = relays[id].Weight
	}
	return simtime.NewWeightedChoice(w)
}

// Fractions returns the configured observation fractions.
func (c *Consensus) Fractions() Fractions { return c.fractions }

// MeasuringExits returns the instrumented exit relay IDs.
func (c *Consensus) MeasuringExits() []event.RelayID { return c.measuringExits }

// MeasuringGuards returns the instrumented guard relay IDs.
func (c *Consensus) MeasuringGuards() []event.RelayID { return c.measuringGuards }

// MeasuringHSDirs returns the instrumented HSDir relay IDs.
func (c *Consensus) MeasuringHSDirs() []event.RelayID { return c.measuringHSDirs }

// MeasuringRelays returns all instrumented relay IDs.
func (c *Consensus) MeasuringRelays() []event.RelayID {
	var out []event.RelayID
	for _, rel := range c.Relays {
		if rel.Measuring {
			out = append(out, rel.ID)
		}
	}
	return out
}

// NumHSDirs returns the HSDir ring size.
func (c *Consensus) NumHSDirs() int { return c.numHSDirs }

// PickMeasuringExit samples one of the measuring exits in proportion to
// its weight, for use on streams already known to be observed.
func (c *Consensus) PickMeasuringExit(r *rand.Rand) event.RelayID {
	return c.measuringExits[c.exitPick.Pick(r)]
}

// PickGuard samples one guard: a measuring guard with probability equal
// to the guard fraction (weighted among them), otherwise a background
// pseudo-guard identified by a negative index. The int result is usable
// as a map key for distinctness; measuring guards additionally return
// their relay ID.
func (c *Consensus) PickGuard(r *rand.Rand) GuardRef {
	if r.Float64() < c.fractions.Guard {
		id := c.measuringGuards[c.guardPick.Pick(r)]
		return GuardRef{Key: int(id), Relay: id, Measuring: true}
	}
	// ~2000 background guards; identity matters only for distinctness.
	return GuardRef{Key: -1 - int(r.Uint64()%2000)}
}

// GuardRef identifies a selected guard.
type GuardRef struct {
	Key       int
	Relay     event.RelayID
	Measuring bool
}
