package onion

import (
	"math/rand/v2"

	"repro/internal/event"
	"repro/internal/simtime"
	"repro/internal/tornet"
)

// Service is one live v2 onion service.
type Service struct {
	Addr string
	// Public means the address appears in the ahmia-style index; the
	// paper finds 56.8% of successful descriptor fetches target indexed
	// services (§6.2).
	Public bool
	// Rank orders services by fetch popularity (Zipf).
	Rank int
}

// Population models the live onion-service world plus the dead-address
// pool that botnets and stale scanners keep querying: the paper's
// explanation for the 90.9% descriptor-fetch failure rate (§6.2).
type Population struct {
	Services []Service
	// DeadAddresses is the size of the pool of addresses that no longer
	// (or never did) have descriptors.
	DeadAddresses int

	ring     *Ring
	popZipf  *simtime.Zipf
	deadZipf *simtime.Zipf
	index    *PublicIndex
}

// PopulationConfig sizes the onion world.
type PopulationConfig struct {
	// LiveServices is the number of published v2 services (Table 6:
	// ~70,826 network-wide, scaled).
	LiveServices int
	// DeadAddresses is the stale-address pool size.
	DeadAddresses int
	// PublicShare is the fraction of *fetch volume* that targets
	// indexed services; popular services are more likely indexed.
	PublicShare float64
	// FetchZipf is the popularity exponent for successful fetches.
	FetchZipf float64
	Seed      uint64
}

// NewPopulation builds the service world on the given ring.
func NewPopulation(cfg PopulationConfig, ring *Ring) *Population {
	if cfg.LiveServices <= 0 {
		cfg.LiveServices = 1
	}
	if cfg.DeadAddresses <= 0 {
		cfg.DeadAddresses = 1
	}
	r := simtime.Rand(cfg.Seed, "onion-services")
	p := &Population{
		Services:      make([]Service, cfg.LiveServices),
		DeadAddresses: cfg.DeadAddresses,
		ring:          ring,
		popZipf:       simtime.NewZipf(cfg.LiveServices, cfg.FetchZipf),
		// Stale botnet address lists hit their entries near-uniformly;
		// a flat exponent also keeps the observed failure mix stable
		// when the pool is scaled down.
		deadZipf: simtime.NewZipf(cfg.DeadAddresses, 0.3),
	}
	// Mark services public so that the fetch-weighted public share hits
	// the target: sample ranks by fetch popularity and flip until the
	// weighted share converges (popular sites are more likely indexed,
	// as on the real ahmia).
	weightedPublic := 0.0
	for i := range p.Services {
		p.Services[i] = Service{Addr: Address("live", i), Rank: i + 1}
	}
	totalW := 0.0
	for i := range p.Services {
		totalW += p.popZipf.Prob(i + 1)
	}
	for weightedPublic/totalW < cfg.PublicShare {
		i := p.popZipf.Rank(r) - 1
		if !p.Services[i].Public {
			p.Services[i].Public = true
			weightedPublic += p.popZipf.Prob(i + 1)
		}
	}
	p.index = newPublicIndex(p.Services)
	return p
}

// Ring returns the HSDir ring.
func (p *Population) Ring() *Ring { return p.ring }

// Index returns the public (ahmia-style) address index.
func (p *Population) Index() *PublicIndex { return p.index }

// PickService samples a live service by fetch popularity.
func (p *Population) PickService(r *rand.Rand) *Service {
	return &p.Services[p.popZipf.Rank(r)-1]
}

// DeadAddress samples a stale address by botnet-list popularity.
func (p *Population) DeadAddress(r *rand.Rand) string {
	return Address("dead", p.deadZipf.Rank(r))
}

// PublicIndex is the ahmia-style search index: a set of publicly known
// onion addresses (§6.2 checks each successfully fetched descriptor
// against the ahmia list).
type PublicIndex struct {
	addrs map[string]bool
}

func newPublicIndex(services []Service) *PublicIndex {
	idx := &PublicIndex{addrs: make(map[string]bool)}
	for _, s := range services {
		if s.Public {
			idx.addrs[s.Addr] = true
		}
	}
	return idx
}

// Contains reports whether the address is publicly indexed.
func (x *PublicIndex) Contains(addr string) bool { return x.addrs[addr] }

// Len returns the index size.
func (x *PublicIndex) Len() int { return len(x.addrs) }

// PublishDay emits descriptor-publish events for one service day: the
// service republishes its descriptor publishesPerDay times to all six
// responsible HSDirs; events fire only at measuring relays.
func (p *Population) PublishDay(net *tornet.Network, r *rand.Rand, svc *Service, day int, publishes int) {
	measuring := p.ring.MeasuringResponsible(svc.Addr, day)
	if len(measuring) == 0 {
		return
	}
	for i := 0; i < publishes; i++ {
		at := randomTimeInDay(r, day)
		for rep, relay := range measuring {
			net.Bus.Publish(&event.DescPublished{
				Header:  event.Header{At: at, Relay: relay},
				Address: svc.Addr,
				Version: 2,
				Replica: uint8(rep % Replicas),
			})
		}
	}
}

// Fetch emits one descriptor-fetch event if the chosen HSDir is
// measuring. Clients pick one replica and one of its Spread HSDirs.
// Returns whether the fetch was observed.
func (p *Population) Fetch(net *tornet.Network, r *rand.Rand, addr string, day int, outcome event.FetchOutcome) bool {
	rep := int(r.Uint64() % Replicas)
	resp := p.ring.Responsible(DescriptorID(addr, rep, day))
	if len(resp) == 0 {
		return false
	}
	relay := resp[r.IntN(len(resp))]
	if !p.ring.IsMeasuring(relay) {
		return false
	}
	net.Bus.Publish(&event.DescFetched{
		Header:  event.Header{At: randomTimeInDay(r, day), Relay: relay},
		Address: addr,
		Version: 2,
		Outcome: outcome,
	})
	return true
}

// randomTimeInDay draws a uniform virtual timestamp within the day.
func randomTimeInDay(r *rand.Rand, day int) simtime.Time {
	return simtime.Time(day)*simtime.Day + simtime.Time(r.Uint64()%uint64(simtime.Day))
}

// RendOutcomeModel draws rendezvous-circuit outcomes matching Table 8:
// ~8% of circuits carry payload, ~4.5% fail with a closed connection,
// and ~87.5% expire before the service completes the protocol.
type RendOutcomeModel struct {
	PSuccess, PClosed float64
	// Payload sizing for active circuits: lognormal parameters chosen
	// to produce the paper's mean of ~730 KiB per active circuit.
	PayloadMu, PayloadSigma float64
}

// DefaultRendOutcomeModel returns the Table 8 calibration.
func DefaultRendOutcomeModel() RendOutcomeModel {
	// mean of lognormal = exp(mu + sigma^2/2); with sigma=1.5 and mean
	// 730 KiB: mu = ln(730*1024) - 1.125 ≈ 12.40.
	return RendOutcomeModel{
		PSuccess:     0.0808,
		PClosed:      0.0455,
		PayloadMu:    12.40,
		PayloadSigma: 1.5,
	}
}

// CellPayload is the usable payload per Tor cell (§2.1).
const CellPayload = 498

// Draw samples one rendezvous circuit's fate.
func (m RendOutcomeModel) Draw(r *rand.Rand) (outcome event.RendOutcome, cells, bytes uint64) {
	u := r.Float64()
	switch {
	case u < m.PSuccess:
		payload := simtime.LogNormal(r, m.PayloadMu, m.PayloadSigma)
		bytes = uint64(payload)
		if bytes == 0 {
			bytes = 1
		}
		cells = (bytes + CellPayload - 1) / CellPayload
		return event.RendSucceeded, cells, bytes
	case u < m.PSuccess+m.PClosed:
		return event.RendConnClosed, 0, 0
	default:
		return event.RendExpired, 0, 0
	}
}
