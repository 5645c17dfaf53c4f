package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/dp"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/netem"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/stats"
	"repro/internal/tornet"
	"repro/internal/wire"
)

// This file is the deployment harness. The protocol parties — 3
// computation parties, 3 share keepers, one data-collector host per
// measuring relay — are built once per Env as an engine.Fleet, each
// registering a persistent multiplexed session; every experiment then
// schedules its rounds over those sessions, attaches the per-round DCs
// to the simulator's event bus, runs the virtual measurement period,
// and gathers results. Concurrent experiments share the same party
// fleet, and a failed round is isolated to its own streams.
//
// Noise scaling: the dp package computes the calibrated noise for the
// real network; the harness divides sigma by the scale divisor (and
// PSC coin trials by its square) so the *relative* noise level in the
// scaled simulation matches the paper's deployment. EXPERIMENTS.md
// documents this regime.

// Incrementer updates a PrivCount statistic bin.
type Incrementer func(stat string, bin int, delta float64)

// CounterSpec declares one PrivCount statistic for a round.
type CounterSpec struct {
	Name string
	Bins []string
	// Sensitivity at paper scale, derived from the Table 1 action
	// bounds (documented per experiment).
	Sensitivity float64
	// Expected magnitude at paper scale, for optimal allocation; zero
	// selects equal allocation weighting for this statistic.
	Expected float64
}

// Fleet sizes matching the paper's deployment (§3.1).
const (
	harnessCPs = 3
	harnessSKs = 3
)

// fleet returns the Env's party fleet, built on first use, with its CPs
// and SKs and at least numDCs data collectors.
func (e *Env) fleet(numDCs int) (*engine.Fleet, error) {
	e.fleetMu.Lock()
	defer e.fleetMu.Unlock()
	if e.parties == nil {
		var opts []wire.Option
		if p, err := netem.ParseProfile(e.Netem); err != nil {
			return nil, err
		} else if p != nil {
			opts = append(opts, netem.WireOption(*p))
		}
		e.parties = engine.NewFleet(e.dcNoise, opts...)
	}
	f := e.parties
	cps, sks, dcs := f.Counts()
	var err error
	for _, g := range []struct {
		role, prefix string
		have, want   int
	}{{engine.RoleCP, "cp", cps, harnessCPs}, {engine.RoleSK, "sk", sks, harnessSKs}, {engine.RoleDC, "dc", dcs, numDCs}} {
		// The identities carry no token, so a duplicate name is refused.
		for i := g.have; i < g.want && err == nil; i++ {
			_, err = f.Join(engine.Hello{Role: g.role, Name: fmt.Sprintf("%s-%d", g.prefix, i)})
		}
	}
	return f, err
}

// dcNoise returns the noise source for one DC's round: nil (crypto/rand)
// unless the Env pins NoiseSeed, then a ChaCha8 stream keyed by the
// seed, the DC and the round.
func (e *Env) dcNoise(name string, round uint64) *dp.NoiseSource {
	if e.NoiseSeed == 0 {
		return nil
	}
	key := sha256.Sum256(fmt.Appendf(nil, "noise/%d/%s/%d", e.NoiseSeed, name, round))
	return dp.NewNoiseSource(rand.NewChaCha8(key))
}

// measure runs one round over relays: start schedules it on the Env's
// fleet, each of its DCs — dc-i for relays[i] — gets its relay's events
// through observe for the measurement days, and then every DC is
// released. Each finishes its own round, so uploads run concurrently:
// one at a time could stall against the tally's collection order.
func (e *Env) measure(sim *Sim, relays []event.RelayID, days int, start func(*engine.Fleet) (*engine.Round, error), observe func(engine.DCDelivery) func(event.Event)) (*engine.Round, error) {
	f, err := e.fleet(len(relays))
	if err != nil {
		return nil, err
	}
	round, err := start(f)
	if err != nil {
		return nil, err
	}
	dcs, err := f.DCs(round, len(relays))
	if err != nil {
		return nil, err
	}
	relayOf := make(map[string]event.RelayID, len(relays))
	for i, r := range relays {
		relayOf[fmt.Sprintf("dc-%d", i)] = r
	}
	for _, d := range dcs {
		sim.Net.Bus.SubscribeFiltered([]event.RelayID{relayOf[d.Name]}, nil, observe(d))
	}
	sim.Driver.Run(days)
	for _, d := range dcs {
		d.Release()
	}
	return round, nil
}

// Close stops the Env's party fleet and returns once every party has
// stopped. Safe to call multiple times; experiments started afterwards
// rebuild it.
func (e *Env) Close() {
	e.fleetMu.Lock()
	defer e.fleetMu.Unlock()
	if e.parties != nil {
		e.parties.Close()
		e.parties = nil
	}
}

// PrivCountRun describes one PrivCount measurement round.
type PrivCountRun struct {
	Fractions tornet.Fractions
	Days      int
	Counters  []CounterSpec
	// Handle converts an observed event into counter increments. It
	// runs in the context of the observing relay's DC.
	Handle func(e event.Event, inc Incrementer)
	// Salt decorrelates this round's population from other rounds.
	Salt uint64
}

// PrivCountResult carries a round's noisy totals and the sigmas used,
// both at simulation scale.
type PrivCountResult struct {
	Values map[string][]float64
	Sigmas map[string]float64
	Sim    *Sim
}

// Interval builds the 95% CI for a statistic bin at simulation scale.
func (r *PrivCountResult) Interval(stat string, bin int) stats.Interval {
	return stats.NormalCI(r.Values[stat][bin], r.Sigmas[stat])
}

// RunPrivCount executes a full PrivCount round over the simulation: 3
// share keepers, one DC per measuring relay, one tally server, all
// speaking the real protocol over the Env's persistent sessions.
func (e *Env) RunPrivCount(run PrivCountRun) (*PrivCountResult, error) {
	return e.RunPrivCountWithSim(run, nil)
}

// RunPrivCountWithSim is RunPrivCount with a hook invoked after the
// simulation is built but before any events flow, letting experiments
// capture simulation state their handlers need (e.g. the ahmia index).
func (e *Env) RunPrivCountWithSim(run PrivCountRun, onSim func(*Sim)) (*PrivCountResult, error) {
	if run.Days <= 0 {
		run.Days = 1
	}
	sim, err := e.BuildSim(run.Fractions, run.Salt)
	if err != nil {
		return nil, err
	}
	if onSim != nil {
		onSim(sim)
	}

	// Noise calibration at paper scale, then scaled down.
	dpStats := make([]dp.Statistic, len(run.Counters))
	mode := dp.AllocateEqual
	for i, c := range run.Counters {
		dpStats[i] = dp.Statistic{Name: c.Name, Sensitivity: c.Sensitivity, Expected: c.Expected}
		if c.Expected > 0 {
			mode = dp.AllocateOptimal
		}
	}
	alloc, err := dp.Allocate(dp.StudyParams(), dpStats, mode)
	if err != nil {
		return nil, err
	}
	cfgStats := make([]privcount.StatConfig, len(run.Counters))
	sigmas := make(map[string]float64, len(run.Counters))
	for i, c := range run.Counters {
		sigma := alloc.Sigmas[c.Name] / e.Scale * float64(run.Days)
		sigmas[c.Name] = sigma
		cfgStats[i] = privcount.StatConfig{Name: c.Name, Bins: c.Bins, Sigma: sigma}
	}

	relays := sim.Net.Consensus.MeasuringRelays()
	round, err := e.measure(sim, relays, run.Days, func(f *engine.Fleet) (*engine.Round, error) {
		return f.StartPrivCount(privcount.TallyConfig{Stats: cfgStats, NumDCs: len(relays), NumSKs: harnessSKs}, nil)
	}, func(d engine.DCDelivery) func(event.Event) {
		inc := func(stat string, bin int, delta float64) {
			// Unknown statistics are a programming error in the
			// experiment; surface loudly.
			if err := d.PrivCount.Increment(stat, bin, delta); err != nil {
				panic(err)
			}
		}
		return func(ev event.Event) { run.Handle(ev, inc) }
	})
	if err != nil {
		return nil, err
	}
	res, err := round.WaitPrivCount()
	if err != nil {
		return nil, err
	}
	return &PrivCountResult{Values: res, Sigmas: sigmas, Sim: sim}, nil
}

// PSCRun describes one PSC unique-count round.
type PSCRun struct {
	Fractions tornet.Fractions
	Days      int
	// Relays restricts the DC deployment to relays in a position to
	// observe the events of interest (§3.1); nil uses all measuring
	// relays.
	Relays []event.RelayID
	// Item extracts the set item from an event ("", false to skip).
	Item func(e event.Event) (string, bool)
	// Sensitivity is the per-day action bound for the item type.
	Sensitivity float64
	// ExpectedUnique estimates the observed distinct count, used to
	// size the hash table (bins ≈ 4× expected, clamped).
	ExpectedUnique int
	Salt           uint64
}

// PSCResult carries the protocol output and the derived interval, both
// at simulation scale.
type PSCResult struct {
	Raw      psc.Result
	Interval stats.Interval
	Sim      *Sim
}

// RunPSC executes a full PSC round over the simulation: 3 computation
// parties, one DC per selected relay, one tally server.
func (e *Env) RunPSC(run PSCRun) (*PSCResult, error) {
	return e.RunPSCWithSim(run, nil)
}

// RunPSCWithSim is RunPSC with a hook invoked after the simulation is
// built but before any events flow.
func (e *Env) RunPSCWithSim(run PSCRun, onSim func(*Sim)) (*PSCResult, error) {
	if run.Days <= 0 {
		run.Days = 1
	}
	sim, err := e.BuildSim(run.Fractions, run.Salt)
	if err != nil {
		return nil, err
	}
	if onSim != nil {
		onSim(sim)
	}
	relays := run.Relays
	if relays == nil {
		relays = sim.Net.Consensus.MeasuringRelays()
	}

	// Full-deployment coin trials, then scaled by Scale² so relative
	// noise matches; floor keeps the noise model non-degenerate.
	fullTrials, err := dp.PSCNoiseTrials(dp.StudyParams(), run.Sensitivity*float64(run.Days), harnessCPs)
	if err != nil {
		return nil, err
	}
	perCP := int(math.Ceil(float64(fullTrials) / (e.Scale * e.Scale)))
	if perCP < 16 {
		perCP = 16
	}

	bins := 256
	for bins < 4*run.ExpectedUnique {
		bins *= 2
	}
	if bins > 1<<16 {
		bins = 1 << 16
	}

	round, err := e.measure(sim, relays, run.Days, func(f *engine.Fleet) (*engine.Round, error) {
		return f.StartPSC(psc.Config{
			Bins:               bins,
			NoisePerCP:         perCP,
			ShuffleProofRounds: e.ProofRounds,
			NumDCs:             len(relays),
			NumCPs:             harnessCPs,
		}, nil)
	}, func(d engine.DCDelivery) func(event.Event) {
		return func(ev event.Event) {
			if item, ok := run.Item(ev); ok {
				if err := d.PSC.Observe(item); err != nil {
					panic(err)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	res, err := round.WaitPSC()
	if err != nil {
		return nil, err
	}
	iv, err := stats.UnionCardinalityCI(stats.PSCObservation{
		Reported: res.Reported, Bins: res.Bins, NoiseTrials: res.NoiseTrials,
	})
	if err != nil {
		return nil, err
	}
	return &PSCResult{Raw: res, Interval: iv, Sim: sim}, nil
}

// paperScale converts a simulation-scale interval to paper scale.
func (e *Env) paperScale(iv stats.Interval) stats.Interval { return iv.Scale(e.Scale) }

// daySeconds is used for per-second rates.
const daySeconds = float64(24 * 60 * 60)
