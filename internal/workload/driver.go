package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/alexa"
	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/onion"
	"repro/internal/simtime"
	"repro/internal/tornet"
)

// Driver generates the network's daily activity and publishes the
// events the measuring relays observe.
type Driver struct {
	P      Params
	Net    *tornet.Network
	Alexa  *alexa.List
	Onions *onion.Population

	domains *DomainSampler

	countryPick *simtime.WeightedChoice
	countries   []string

	clients []*tornet.Client

	rng *rand.Rand
}

// New assembles a driver. The onion population is built from the
// params, scaled.
func New(p Params, net *tornet.Network, list *alexa.List) (*Driver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sampler, err := NewDomainSampler(p.Domains, list)
	if err != nil {
		return nil, err
	}
	ring := onion.NewRing(net.Consensus)
	// Address pools keep a floor so the set of ring positions stays
	// dense enough for stable observation rates at high scale factors;
	// unique-count experiments run at scales where the floor is moot.
	pop := onion.NewPopulation(onion.PopulationConfig{
		LiveServices:  atLeastN(p.scaled(p.OnionServices), 300),
		DeadAddresses: atLeastN(p.scaled(p.DeadAddresses), 3000),
		PublicShare:   p.PublicShare,
		FetchZipf:     0.7,
		Seed:          p.Seed,
	}, ring)

	countries := geo.Countries()
	weights := make([]float64, len(countries))
	for i, c := range countries {
		weights[i] = geo.ClientWeight(c)
	}

	d := &Driver{
		P:           p,
		Net:         net,
		Alexa:       list,
		Onions:      pop,
		domains:     sampler,
		countryPick: simtime.NewWeightedChoice(weights),
		countries:   countries,
		rng:         simtime.Rand(p.Seed, "workload"),
	}
	d.buildPopulation()
	return d, nil
}

func atLeast1(v float64) int { return atLeastN(v, 1) }

func atLeastN(v float64, floor int) int {
	n := int(v)
	if n < floor {
		n = floor
	}
	return n
}

// buildPopulation creates the day-zero client set.
func (d *Driver) buildPopulation() {
	selective := atLeast1(d.P.scaled(d.P.SelectiveClients))
	promiscuous := int(d.P.scaled(d.P.PromiscuousClients))
	d.clients = make([]*tornet.Client, 0, selective+promiscuous)
	for i := 0; i < selective; i++ {
		d.clients = append(d.clients, d.newClient(false))
	}
	for i := 0; i < promiscuous; i++ {
		d.clients = append(d.clients, d.newClient(true))
	}
}

func (d *Driver) newClient(promiscuous bool) *tornet.Client {
	country := d.countries[d.countryPick.Pick(d.rng)]
	c := d.Net.NewClient(d.rng, country)
	c.Promiscuous = promiscuous
	if country == d.P.BlockedCountry {
		c.Blocked = true
	}
	return c
}

// Run schedules and executes the given number of whole virtual days.
func (d *Driver) Run(days int) {
	for day := 0; day < days; day++ {
		day := day
		d.Net.Sched.At(simtime.Time(day)*simtime.Day, func(simtime.Time) {
			if day > 0 {
				d.churn()
			}
			d.runGuardActivity(day)
			d.runExitStreams(day)
			d.runOnionPublishes(day)
			d.runOnionFetches(day)
			d.runRendezvous(day)
		})
	}
	d.Net.Sched.Run(simtime.Time(days) * simtime.Day)
}

// churn replaces a fraction of clients with fresh IPs, the §5.1 client
// turnover: each replaced slot keeps its behavioral role but arrives
// from a new address.
func (d *Driver) churn() {
	for i, c := range d.clients {
		if d.rng.Float64() < d.P.ChurnPerDay {
			d.clients[i] = d.newClient(c.Promiscuous)
		}
	}
}

// runGuardActivity emits one day of connection and circuit events at
// measuring guards, plus the per-client byte volumes (Table 4, Table 5,
// Figure 4).
func (d *Driver) runGuardActivity(day int) {
	p := d.P
	guardFrac := d.Net.Consensus.Fractions().Guard
	numGuards := float64(len(d.Net.Consensus.MeasuringGuards()))
	for _, c := range d.clients {
		obs := d.Net.ObservedGuards(c)
		if len(obs) == 0 {
			continue
		}
		dirFactor := 1.0
		dataFactor := 1.0
		connFactor := 1.0
		byteFactor := 1.0
		if c.Blocked {
			dirFactor = p.BlockedDirFactor
			dataFactor = 0.02
			byteFactor = p.BlockedByteFactor
		}
		if c.Promiscuous {
			// A bridge-like client spreads PromiscuousActivity× the
			// normal load across every guard in the network; each
			// measuring guard sees its weighted per-guard share, so the
			// network-wide inference stays unbiased while the client is
			// still observed at every guard essentially every day.
			share := p.PromiscuousActivity * guardFrac / numGuards
			dirFactor *= share
			dataFactor *= share
			connFactor *= share
			byteFactor *= share
		}
		// Daily entry volume, heavy-tailed, mostly via the data guard.
		mu := math.Log(p.EntryMiBMean*MiB) - p.EntryLogSigma*p.EntryLogSigma/2
		dayBytes := simtime.LogNormal(d.rng, mu, p.EntryLogSigma) * byteFactor

		for _, g := range obs {
			if g.Data {
				conns := 1 + simtime.Poisson(d.rng, p.DataConnsPerClient*connFactor-1)
				circs := simtime.Poisson(d.rng, p.DataCircuitsPerClient*dataFactor)
				recv := uint64(dayBytes * 6 / 7)
				sent := uint64(dayBytes / 7)
				for i := 0; i < conns; i++ {
					at := d.timeInDay(day)
					share := uint32(circs / max(conns, 1))
					d.Net.EmitConnection(at, g.Relay, c, share, sent/uint64(max(conns, 1)), recv/uint64(max(conns, 1)))
				}
				for i := 0; i < circs; i++ {
					streams := uint32(simtime.Poisson(d.rng, 2))
					d.Net.EmitCircuit(d.timeInDay(day), g.Relay, c, event.CircuitData,
						streams, sent/uint64(max(circs, 1)), recv/uint64(max(circs, 1)))
				}
			}
			if g.Directory {
				conns := simtime.Poisson(d.rng, p.DirConnsPerGuard)
				circs := simtime.Poisson(d.rng, p.DirCircuitsPerGuard*dirFactor)
				for i := 0; i < conns; i++ {
					d.Net.EmitConnection(d.timeInDay(day), g.Relay, c, uint32(circs/max(conns, 1)), 2048, 512*1024)
				}
				for i := 0; i < circs; i++ {
					d.Net.EmitCircuit(d.timeInDay(day), g.Relay, c, event.CircuitDirectory, 1, 1024, 256*1024)
				}
			}
		}
	}
}

// runExitStreams emits one day of exit-side stream events: only the
// streams whose circuits exit through a measuring relay, drawn
// per-circuit from the consensus exit fraction (§4.1).
func (d *Driver) runExitStreams(day int) {
	p := d.P
	// Expected network-wide initial streams this day, scaled.
	totalInitial := p.scaled(p.SelectiveClients * p.InitialStreamsPerClient)
	observedInitial := simtime.Poisson(d.rng, totalInitial*d.Net.Consensus.Fractions().Exit)

	muStream := math.Log(p.StreamKiBMean*1024) - p.StreamLogSigma*p.StreamLogSigma/2
	for i := 0; i < observedInitial; i++ {
		relay := d.Net.Consensus.PickMeasuringExit(d.rng)
		at := d.timeInDay(day)
		target, port, host := d.drawStreamType()
		recv := uint64(simtime.LogNormal(d.rng, muStream, p.StreamLogSigma))
		circ := d.Net.EmitStream(at, relay, 0, true, target, port, host, recv/10+1, recv)
		// Subsequent streams multiplex on the same circuit (Figure 1a).
		for s := simtime.Poisson(d.rng, p.SubsequentPerInitial); s > 0; s-- {
			jitter := time.Duration(d.rng.Int64N(int64(30 * time.Minute)))
			sub := uint64(simtime.LogNormal(d.rng, muStream-1, p.StreamLogSigma))
			d.Net.EmitStream(at.Add(jitter), relay, circ,
				false, event.TargetHostname, 443, "", sub/10+1, sub)
		}
	}
}

// drawStreamType samples the Figure 1b/1c breakdown: almost all initial
// streams carry a hostname and a web port.
func (d *Driver) drawStreamType() (event.TargetKind, uint16, string) {
	p := d.P
	u := d.rng.Float64()
	switch {
	case u < p.IPv4Share:
		return event.TargetIPv4, 443, ""
	case u < p.IPv4Share+p.IPv6Share:
		return event.TargetIPv6, 443, ""
	case u < p.IPv4Share+p.IPv6Share+p.NonWebShare:
		// Hostname on a non-web port (e.g. SSH, mail).
		ports := []uint16{22, 25, 993, 5222, 6667}
		return event.TargetHostname, ports[d.rng.IntN(len(ports))], d.domains.Hostname(d.rng)
	default:
		port := uint16(443)
		if d.rng.Float64() < 0.35 {
			port = 80
		}
		return event.TargetHostname, port, d.domains.Hostname(d.rng)
	}
}

// runOnionPublishes emits descriptor publications for services whose
// responsible HSDir sets include measuring relays (§6.1).
func (d *Driver) runOnionPublishes(day int) {
	for i := range d.Onions.Services {
		svc := &d.Onions.Services[i]
		// The descriptor occupies the day's position and rotates to the
		// next day's position at a per-address offset, which is what
		// lets relays observe more addresses than their static ring
		// share (§6.1 extrapolation).
		d.Onions.PublishDay(d.Net, d.rng, svc, day, d.P.PublishRoundsPerDay/2)
		d.Onions.PublishDay(d.Net, d.rng, svc, day+1, d.P.PublishRoundsPerDay/2)
	}
}

// runOnionFetches emits the day's descriptor fetch attempts: a botnet-
// dominated stream in which ~91% of lookups target missing descriptors
// or are malformed (§6.2, Table 7).
func (d *Driver) runOnionFetches(day int) {
	p := d.P
	total := int(p.scaled(p.FetchesPerDay))
	for i := 0; i < total; i++ {
		useDay := day
		if d.rng.Float64() < 0.5 {
			useDay = day + 1 // post-rotation period
		}
		if d.rng.Float64() < p.FetchFailShare {
			outcome := event.FetchNotFound
			if d.rng.Float64() < p.MalformedFailShare {
				outcome = event.FetchMalformed
			}
			d.Onions.Fetch(d.Net, d.rng, d.Onions.DeadAddress(d.rng), useDay, outcome)
			continue
		}
		svc := d.Onions.PickService(d.rng)
		d.Onions.Fetch(d.Net, d.rng, svc.Addr, useDay, event.FetchOK)
	}
}

// runRendezvous emits the day's rendezvous circuits observed at
// measuring rendezvous points (§6.3, Table 8).
func (d *Driver) runRendezvous(day int) {
	p := d.P
	total := p.scaled(p.RendCircuitsPerDay)
	observed := simtime.Poisson(d.rng, total*d.Net.Consensus.Fractions().Rend)
	rendRelays := d.Net.Consensus.MeasuringRelays()
	for i := 0; i < observed; i++ {
		relay := rendRelays[d.rng.IntN(len(rendRelays))]
		outcome, cells, bytes := p.Rend.Draw(d.rng)
		version := uint8(2)
		if d.rng.Float64() < 0.2 {
			version = 3
		}
		d.Net.Bus.Publish(&event.RendezvousEnd{
			Header:       event.Header{At: d.timeInDay(day), Relay: relay},
			CircuitID:    d.Net.NextCircuitID(),
			Version:      version,
			Outcome:      outcome,
			PayloadCells: cells,
			PayloadBytes: bytes,
		})
	}
}

// timeInDay draws a uniform virtual timestamp within the day.
func (d *Driver) timeInDay(day int) simtime.Time {
	return simtime.Time(day)*simtime.Day + simtime.Time(d.rng.Uint64()%uint64(simtime.Day))
}

// String summarizes the driver configuration.
func (d *Driver) String() string {
	return fmt.Sprintf("workload(scale=%g clients=%d services=%d)",
		d.P.Scale, len(d.clients), len(d.Onions.Services))
}
