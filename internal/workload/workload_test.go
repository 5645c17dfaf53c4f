package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/alexa"
	"repro/internal/asn"
	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/simtime"
	"repro/internal/tornet"
)

var (
	testList = alexa.Generate(alexa.Config{N: 100_000, Seed: 42})
	testGeo  = geo.Build(1)
	testASN  = asn.Build(testGeo, 1)
)

func newDriver(t *testing.T, scale float64, seed uint64) *Driver {
	t.Helper()
	cons, err := tornet.NewConsensus(tornet.DefaultConsensusConfig())
	if err != nil {
		t.Fatal(err)
	}
	net := tornet.NewNetwork(cons, testGeo, testASN)
	d, err := New(DefaultParams(scale, seed), net, testList)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

type collector struct {
	streams []*event.StreamEnd
	conns   []*event.ConnectionEnd
	circs   []*event.CircuitEnd
	pubs    []*event.DescPublished
	fetches []*event.DescFetched
	rends   []*event.RendezvousEnd
}

func collect(d *Driver) *collector {
	c := &collector{}
	d.Net.Bus.Subscribe(func(e event.Event) {
		switch v := e.(type) {
		case *event.StreamEnd:
			c.streams = append(c.streams, v)
		case *event.ConnectionEnd:
			c.conns = append(c.conns, v)
		case *event.CircuitEnd:
			c.circs = append(c.circs, v)
		case *event.DescPublished:
			c.pubs = append(c.pubs, v)
		case *event.DescFetched:
			c.fetches = append(c.fetches, v)
		case *event.RendezvousEnd:
			c.rends = append(c.rends, v)
		}
	})
	return c
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams(100, 1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams(100, 1)
	bad.Scale = 0.5
	if err := bad.Validate(); err == nil {
		t.Fatal("scale<1 must fail")
	}
	bad2 := DefaultParams(100, 1)
	bad2.ChurnPerDay = 2
	if err := bad2.Validate(); err == nil {
		t.Fatal("churn>1 must fail")
	}
	bad3 := DefaultParams(100, 1)
	bad3.Domains.OnionooShare = 0.9
	if err := bad3.Validate(); err == nil {
		t.Fatal("overweight mixture must fail")
	}
}

func TestDomainMixtureShares(t *testing.T) {
	s, err := NewDomainSampler(DefaultDomainMixture(), testList)
	if err != nil {
		t.Fatal(err)
	}
	r := simtime.Rand(1, "mix")
	psl := testList.PSL()
	counts := map[string]int{}
	const draws = 200000
	alexaHits := 0
	for i := 0; i < draws; i++ {
		h := s.Hostname(r)
		if h == "onionoo.torproject.org" {
			counts["onionoo"]++
		}
		reg, ok := psl.RegisteredDomain(h)
		if ok {
			if reg == "amazon.com" {
				counts["amazon.com"]++
			}
			if strings.Contains(reg, "amazon") {
				counts["amazon-family"]++
			}
			if testList.Contains(reg) || reg == "torproject.org" {
				alexaHits++
			}
		}
	}
	if got := float64(counts["onionoo"]) / draws; math.Abs(got-0.40) > 0.01 {
		t.Fatalf("onionoo share %v, want 0.40", got)
	}
	if got := float64(counts["amazon-family"]) / draws; math.Abs(got-0.097) > 0.01 {
		t.Fatalf("amazon family share %v, want ~0.097 (paper: 9.7%%)", got)
	}
	// ~80% of primary domains are on the Alexa list (§4.3).
	got := float64(alexaHits) / draws
	if got < 0.72 || got > 0.88 {
		t.Fatalf("alexa share %v, want ~0.80", got)
	}
}

func TestRunDayEventStructure(t *testing.T) {
	d := newDriver(t, 4000, 7)
	c := collect(d)
	d.Run(1)

	if len(c.streams) == 0 || len(c.conns) == 0 || len(c.circs) == 0 {
		t.Fatalf("missing event families: streams=%d conns=%d circs=%d",
			len(c.streams), len(c.conns), len(c.circs))
	}
	if len(c.fetches) == 0 || len(c.rends) == 0 {
		t.Fatalf("missing onion events: fetches=%d rends=%d", len(c.fetches), len(c.rends))
	}

	// Initial streams ≈ 5% of all streams (Figure 1a).
	initial := 0
	for _, s := range c.streams {
		if s.IsInitial {
			initial++
		}
	}
	frac := float64(initial) / float64(len(c.streams))
	if frac < 0.03 || frac > 0.08 {
		t.Fatalf("initial stream share %v, want ~0.05", frac)
	}

	// Subsequent streams reuse their initial stream's circuit.
	circuits := map[uint64]int{}
	for _, s := range c.streams {
		circuits[s.CircuitID]++
	}
	if len(circuits) >= len(c.streams) {
		t.Fatal("no circuit reuse observed")
	}

	// Fetch failures dominate (Table 7: 90.9%).
	failed := 0
	for _, f := range c.fetches {
		if f.Outcome != event.FetchOK {
			failed++
		}
	}
	failRate := float64(failed) / float64(len(c.fetches))
	if failRate < 0.78 || failRate > 0.98 {
		t.Fatalf("fetch failure rate %v, want ~0.909", failRate)
	}

	// Rendezvous outcomes: expiry dominates (Table 8).
	expired := 0
	for _, r := range c.rends {
		if r.Outcome == event.RendExpired {
			expired++
		}
	}
	expRate := float64(expired) / float64(len(c.rends))
	if expRate < 0.75 || expRate > 0.95 {
		t.Fatalf("rend expiry rate %v, want ~0.87", expRate)
	}
}

func TestEventsOnlyAtMeasuringRelays(t *testing.T) {
	d := newDriver(t, 4000, 8)
	measuring := map[event.RelayID]bool{}
	for _, id := range d.Net.Consensus.MeasuringRelays() {
		measuring[id] = true
	}
	bad := 0
	d.Net.Bus.Subscribe(func(e event.Event) {
		if !measuring[e.Observer()] {
			bad++
		}
	})
	d.Run(1)
	if bad != 0 {
		t.Fatalf("%d events at non-measuring relays", bad)
	}
}

func TestChurnReplacesClients(t *testing.T) {
	d := newDriver(t, 4000, 9)
	before := map[string]bool{}
	for _, c := range d.clients {
		before[c.IP.String()] = true
	}
	d.Run(2) // day 1 applies churn
	replaced := 0
	for _, c := range d.clients {
		if !before[c.IP.String()] {
			replaced++
		}
	}
	frac := float64(replaced) / float64(len(d.clients))
	if math.Abs(frac-d.P.ChurnPerDay) > 0.08 {
		t.Fatalf("churned fraction %v, want ~%v", frac, d.P.ChurnPerDay)
	}
}

func TestBlockedCountryCircuitSkew(t *testing.T) {
	// Blocked (AE) clients must show a much higher directory-circuit
	// to connection ratio than others — the Figure 4 anomaly.
	d := newDriver(t, 1000, 10)
	var aeDir, aeData, otherDir, otherData float64
	d.Net.Bus.Subscribe(func(e event.Event) {
		ce, ok := e.(*event.CircuitEnd)
		if !ok {
			return
		}
		if ce.Country == "AE" {
			if ce.Kind == event.CircuitDirectory {
				aeDir++
			} else {
				aeData++
			}
		} else {
			if ce.Kind == event.CircuitDirectory {
				otherDir++
			} else {
				otherData++
			}
		}
	})
	d.Run(1)
	if aeDir == 0 {
		t.Skip("no AE clients observed at this scale/seed")
	}
	aeRatio := aeDir / (aeData + 1)
	otherRatio := otherDir / (otherData + 1)
	if aeRatio < otherRatio*5 {
		t.Fatalf("AE dir-circuit skew %v vs %v; blocked clients must rebuild directory circuits", aeRatio, otherRatio)
	}
}

func TestPromiscuousClientsSeenEverywhere(t *testing.T) {
	d := newDriver(t, 400, 11)
	// Find one promiscuous client and count distinct guards observing it.
	var promIP string
	for _, c := range d.clients {
		if c.Promiscuous {
			promIP = c.IP.String()
			break
		}
	}
	if promIP == "" {
		t.Skip("no promiscuous clients at this scale")
	}
	guards := map[event.RelayID]bool{}
	d.Net.Bus.Subscribe(func(e event.Event) {
		if conn, ok := e.(*event.ConnectionEnd); ok && conn.ClientIP.String() == promIP {
			guards[conn.Observer()] = true
		}
	})
	d.Run(1)
	if len(guards) < len(d.Net.Consensus.MeasuringGuards())/2 {
		t.Fatalf("promiscuous client seen at %d guards, want most of %d",
			len(guards), len(d.Net.Consensus.MeasuringGuards()))
	}
}

func TestGuardObservationScalesWithFraction(t *testing.T) {
	// Doubling the guard fraction should roughly double the number of
	// distinct client IPs observed — the effect Table 3 exploits.
	countIPs := func(guardFrac float64, seed uint64) int {
		cfg := tornet.DefaultConsensusConfig()
		cfg.Fractions.Guard = guardFrac
		cons, err := tornet.NewConsensus(cfg)
		if err != nil {
			t.Fatal(err)
		}
		net := tornet.NewNetwork(cons, testGeo, testASN)
		d, err := New(DefaultParams(1000, seed), net, testList)
		if err != nil {
			t.Fatal(err)
		}
		ips := map[string]bool{}
		net.Bus.Subscribe(func(e event.Event) {
			if conn, ok := e.(*event.ConnectionEnd); ok {
				ips[conn.ClientIP.String()] = true
			}
		})
		d.Run(1)
		return len(ips)
	}
	small := countIPs(0.0042, 21)
	large := countIPs(0.0088, 22)
	if small == 0 {
		t.Fatal("no IPs observed at small fraction")
	}
	ratio := float64(large) / float64(small)
	if ratio < 1.4 || ratio > 2.8 {
		t.Fatalf("unique-IP ratio %v for 0.88%%/0.42%% weights; expected ~2", ratio)
	}
}

func TestDriverString(t *testing.T) {
	d := newDriver(t, 4000, 12)
	if !strings.Contains(d.String(), "workload(") {
		t.Fatal(d.String())
	}
}
