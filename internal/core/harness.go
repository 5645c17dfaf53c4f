package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

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
// measuring relay — are built once per Env and register persistent
// multiplexed sessions with a round engine; every experiment then
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

// dcDelivery hands one round's DC role from its host session to the
// experiment driving the round. The experiment closes release once
// collection is over, and the host then finishes the DC itself.
type dcDelivery struct {
	engine.DCRound
	host    int
	release chan struct{}
}

// partyRuntime is an Env's persistent protocol fleet.
type partyRuntime struct {
	eng *engine.Engine
	// connOpts configures every party pipe: WAN emulation and window
	// tuning from the Env knobs.
	connOpts []wire.Option
	// noiseSeed is the Env's NoiseSeed; zero leaves DC noise to
	// crypto/rand.
	noiseSeed uint64

	mu         sync.Mutex
	numDCs     int
	deliveries map[uint64]chan dcDelivery
}

// runtime builds the Env's fleet on first use: CPs and SKs register
// immediately, DC hosts are added as experiments need them.
func (e *Env) runtime() (*partyRuntime, error) {
	e.rtMu.Lock()
	defer e.rtMu.Unlock()
	if e.rt != nil {
		return e.rt, nil
	}
	rt := &partyRuntime{eng: engine.New(), noiseSeed: e.NoiseSeed, deliveries: make(map[uint64]chan dcDelivery)}
	if p, err := netem.ParseProfile(e.Netem); err != nil {
		return nil, err
	} else if p != nil {
		rt.connOpts = append(rt.connOpts, netem.WireOption(*p))
	}
	if e.AdaptiveWindow {
		rt.connOpts = append(rt.connOpts, wire.WithAdaptiveWindow(e.WindowCap))
	}
	for i := 0; i < harnessCPs; i++ {
		h := engine.Hello{Name: fmt.Sprintf("cp-%d", i)}
		if err := rt.attach(func(sess *wire.Session) error { return engine.ServeCP(sess, h, nil) }); err != nil {
			return nil, err
		}
	}
	for i := 0; i < harnessSKs; i++ {
		h := engine.Hello{Name: fmt.Sprintf("sk-%d", i)}
		if err := rt.attach(func(sess *wire.Session) error { return engine.ServeSK(sess, h, nil) }); err != nil {
			return nil, err
		}
	}
	e.rt = rt
	return rt, nil
}

// attach wires one party to the engine over an in-memory pipe: serve
// runs the party side (hello, then its round loop) in the background
// while the engine side completes the same handshake the daemons use.
// The identities carry no token, so a duplicate name is refused.
func (rt *partyRuntime) attach(serve func(*wire.Session) error) error {
	tsConn, partyConn := wire.Pipe(rt.connOpts...)
	tsSess := wire.NewSession(tsConn, false)
	go serve(wire.NewSession(partyConn, true))
	if _, err := rt.eng.AcceptSession(tsSess); err != nil {
		tsSess.Close()
		return err
	}
	return nil
}

// ensureDCs grows the DC host pool to at least n sessions.
func (rt *partyRuntime) ensureDCs(n int) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for rt.numDCs < n {
		host := rt.numDCs
		h := engine.Hello{Name: fmt.Sprintf("dc-%d", host)}
		err := rt.attach(func(sess *wire.Session) error {
			return engine.ServeDC(sess, h, engine.DCHost{
				Noise: func(round uint64) *dp.NoiseSource { return rt.dcNoise(h.Name, round) },
				// Hand the DC to the experiment, then collect until it
				// releases the round or the round dies (abort, sibling
				// failure), whether or not it ever took the delivery.
				Collect: func(r engine.DCRound, failed <-chan struct{}) error {
					d := dcDelivery{DCRound: r, host: host, release: make(chan struct{})}
					select {
					case rt.delivery(r.Round) <- d:
						select {
						case <-d.release:
						case <-failed:
						}
					case <-failed:
					}
					return nil
				},
			})
		})
		if err != nil {
			return err
		}
		rt.numDCs++
	}
	return nil
}

// dcNoise returns the noise source for one DC's round: nil (crypto/rand)
// unless the Env pins NoiseSeed, then a ChaCha8 stream keyed by the
// seed, the DC and the round.
func (rt *partyRuntime) dcNoise(name string, round uint64) *dp.NoiseSource {
	if rt.noiseSeed == 0 {
		return nil
	}
	key := sha256.Sum256(fmt.Appendf(nil, "noise/%d/%s/%d", rt.noiseSeed, name, round))
	return dp.NewNoiseSource(rand.NewChaCha8(key))
}

// delivery returns (creating if needed) the round's DC hand-off
// channel. Host handlers and the scheduling experiment race to touch a
// round first, so creation is first-come.
func (rt *partyRuntime) delivery(round uint64) chan dcDelivery {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ch, ok := rt.deliveries[round]
	if !ok {
		ch = make(chan dcDelivery, 64)
		rt.deliveries[round] = ch
	}
	return ch
}

// releaseRound forgets a completed round's hand-off channel.
func (rt *partyRuntime) releaseRound(round uint64) {
	rt.mu.Lock()
	delete(rt.deliveries, round)
	rt.mu.Unlock()
}

// collectDCs waits for n DC roles of a round, watching for early round
// failure (e.g. a setup error aborting the round). A failed round has
// reset its streams, so every host it delivered to unwinds on its own.
func (rt *partyRuntime) collectDCs(r *engine.Round, n int) ([]dcDelivery, error) {
	ch := rt.delivery(r.ID)
	out := make([]dcDelivery, 0, n)
	for len(out) < n {
		select {
		case d := <-ch:
			out = append(out, d)
		case <-r.Done():
			err := r.Err()
			if err == nil {
				err = fmt.Errorf("core: round %d ended before all DCs attached", r.ID)
			}
			return nil, err
		}
	}
	return out, nil
}

// Close releases the Env's party fleet. Safe to call multiple times;
// experiments started afterwards rebuild it.
func (e *Env) Close() {
	e.rtMu.Lock()
	defer e.rtMu.Unlock()
	if e.rt != nil {
		e.rt.eng.Close()
		e.rt = nil
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
	rt, err := e.runtime()
	if err != nil {
		return nil, err
	}
	if err := rt.ensureDCs(len(relays)); err != nil {
		return nil, err
	}
	round, err := rt.eng.StartPrivCount(privcount.TallyConfig{
		Stats: cfgStats, NumDCs: len(relays), NumSKs: harnessSKs,
	}, nil)
	if err != nil {
		return nil, err
	}
	defer rt.releaseRound(round.ID)
	dcs, err := rt.collectDCs(round, len(relays))
	if err != nil {
		return nil, err
	}

	// Attach each round DC to its relay's event feed.
	for _, d := range dcs {
		dc := d.PrivCount
		inc := func(stat string, bin int, delta float64) {
			// Unknown statistics are a programming error in the
			// experiment; surface loudly.
			if err := dc.Increment(stat, bin, delta); err != nil {
				panic(err)
			}
		}
		sim.Net.Bus.SubscribeFiltered([]event.RelayID{relays[d.host]}, nil, func(ev event.Event) {
			run.Handle(ev, inc)
		})
	}

	sim.Driver.Run(run.Days)

	// Each released host finishes its own DC, so uploads run concurrently:
	// one at a time could stall against the tally's collection order.
	for _, d := range dcs {
		close(d.release)
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

	rt, err := e.runtime()
	if err != nil {
		return nil, err
	}
	if err := rt.ensureDCs(len(relays)); err != nil {
		return nil, err
	}
	round, err := rt.eng.StartPSC(psc.Config{
		Bins:               bins,
		NoisePerCP:         perCP,
		ShuffleProofRounds: e.ProofRounds,
		NumDCs:             len(relays),
		NumCPs:             harnessCPs,
	}, nil)
	if err != nil {
		return nil, err
	}
	defer rt.releaseRound(round.ID)
	dcs, err := rt.collectDCs(round, len(relays))
	if err != nil {
		return nil, err
	}

	for _, d := range dcs {
		dc := d.PSC
		sim.Net.Bus.SubscribeFiltered([]event.RelayID{relays[d.host]}, nil, func(ev event.Event) {
			if item, ok := run.Item(ev); ok {
				if err := dc.Observe(item); err != nil {
					panic(err)
				}
			}
		})
	}

	sim.Driver.Run(run.Days)

	// Released hosts upload concurrently; see RunPrivCountWithSim.
	for _, d := range dcs {
		close(d.release)
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
