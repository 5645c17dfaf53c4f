package onion

import (
	"math"
	"regexp"
	"testing"

	"repro/internal/event"
	"repro/internal/simtime"
	"repro/internal/tornet"
)

// defaultPopulationConfig returns paper-scale values before scaling.
func defaultPopulationConfig() PopulationConfig {
	return PopulationConfig{
		LiveServices:  70826,
		DeadAddresses: 400000,
		PublicShare:   0.568,
		FetchZipf:     0.7,
		Seed:          2018,
	}
}

func testRing(t *testing.T) (*tornet.Consensus, *Ring) {
	t.Helper()
	c, err := tornet.NewConsensus(tornet.DefaultConsensusConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c, NewRing(c)
}

func TestAddressFormat(t *testing.T) {
	re := regexp.MustCompile(`^[a-z2-7]{16}$`)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		a := Address("live", i)
		if !re.MatchString(a) {
			t.Fatalf("address %q is not a v2 onion address", a)
		}
		if seen[a] {
			t.Fatalf("duplicate address %q", a)
		}
		seen[a] = true
	}
	if Address("live", 1) != Address("live", 1) {
		t.Fatal("addresses must be deterministic")
	}
	if Address("live", 1) == Address("dead", 1) {
		t.Fatal("namespaces must separate address pools")
	}
}

func TestDescriptorIDRotatesDaily(t *testing.T) {
	a := Address("live", 7)
	if DescriptorID(a, 0, 1) == DescriptorID(a, 0, 2) {
		t.Fatal("descriptor ID must rotate with the day")
	}
	if DescriptorID(a, 0, 1) == DescriptorID(a, 1, 1) {
		t.Fatal("replicas must have distinct descriptor IDs")
	}
}

func TestRingStructure(t *testing.T) {
	c, ring := testRing(t)
	if ring.Size() != c.NumHSDirs() {
		t.Fatalf("ring size %d, consensus HSDirs %d", ring.Size(), c.NumHSDirs())
	}
	if ring.NumMeasuring() != len(c.MeasuringHSDirs()) {
		t.Fatalf("measuring HSDirs on ring: %d want %d", ring.NumMeasuring(), len(c.MeasuringHSDirs()))
	}
}

func TestResponsibleSets(t *testing.T) {
	_, ring := testRing(t)
	addr := Address("live", 3)
	for rep := 0; rep < Replicas; rep++ {
		resp := ring.Responsible(DescriptorID(addr, rep, 5))
		if len(resp) != Spread {
			t.Fatalf("replica %d: %d responsible, want %d", rep, len(resp), Spread)
		}
	}
	all := ring.AllResponsible(addr, 5)
	if len(all) != StoredOn {
		t.Fatalf("full set: %d want %d", len(all), StoredOn)
	}
	// Deterministic.
	again := ring.AllResponsible(addr, 5)
	for i := range all {
		if all[i] != again[i] {
			t.Fatal("responsibility must be deterministic")
		}
	}
}

func TestResponsibleWrapAround(t *testing.T) {
	_, ring := testRing(t)
	// A descriptor ID beyond the last ring position wraps to the start.
	resp := ring.Responsible(^uint64(0))
	if len(resp) != Spread {
		t.Fatalf("wraparound set size %d", len(resp))
	}
}

func TestMeasuringCoverageMatchesRingShare(t *testing.T) {
	_, ring := testRing(t)
	// Fraction of addresses with at least one measuring HSDir across
	// both replicas ≈ 1 - (1-m/N)^6.
	m := float64(ring.NumMeasuring())
	n := float64(ring.Size())
	want := 1 - math.Pow(1-m/n, StoredOn)
	const addrs = 20000
	covered := 0
	for i := 0; i < addrs; i++ {
		if len(ring.MeasuringResponsible(Address("cov", i), 1)) > 0 {
			covered++
		}
	}
	got := float64(covered) / addrs
	if math.Abs(got-want) > want*0.25 {
		t.Fatalf("coverage %v, want ~%v", got, want)
	}
}

func TestPopulationPublicShare(t *testing.T) {
	_, ring := testRing(t)
	cfg := defaultPopulationConfig()
	cfg.LiveServices = 5000
	p := NewPopulation(cfg, ring)
	if len(p.Services) != 5000 {
		t.Fatalf("services: %d", len(p.Services))
	}
	// Fetch-weighted public share should approximate the target.
	r := simtime.Rand(5, "pub-share")
	public := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if p.PickService(r).Public {
			public++
		}
	}
	got := float64(public) / draws
	if math.Abs(got-cfg.PublicShare) > 0.05 {
		t.Fatalf("fetch-weighted public share %v, want ~%v", got, cfg.PublicShare)
	}
	// Index agrees with flags.
	for i := range p.Services {
		if p.Services[i].Public != p.Index().Contains(p.Services[i].Addr) {
			t.Fatal("index out of sync with service flags")
		}
	}
	if p.Index().Len() == 0 || p.Index().Len() >= len(p.Services) {
		t.Fatalf("index size: %d", p.Index().Len())
	}
}

func TestDeadAddressesDistinctFromLive(t *testing.T) {
	_, ring := testRing(t)
	cfg := defaultPopulationConfig()
	cfg.LiveServices = 100
	cfg.DeadAddresses = 100
	p := NewPopulation(cfg, ring)
	live := map[string]bool{}
	for _, s := range p.Services {
		live[s.Addr] = true
	}
	r := simtime.Rand(6, "dead")
	for i := 0; i < 1000; i++ {
		if live[p.DeadAddress(r)] {
			t.Fatal("dead address collides with a live service")
		}
	}
}

func TestFetchEmitsOnlyAtMeasuringRelays(t *testing.T) {
	c, ring := testRing(t)
	net := tornet.NewNetwork(c, nil, nil)
	var events []*event.DescFetched
	net.Bus.Subscribe(func(e event.Event) {
		if f, ok := e.(*event.DescFetched); ok {
			events = append(events, f)
		}
	})
	cfg := defaultPopulationConfig()
	cfg.LiveServices = 200
	p := NewPopulation(cfg, ring)
	r := simtime.Rand(7, "fetch")
	observed := 0
	const attempts = 30000
	// Distinct addresses: responsibility is fixed per address, so a
	// popularity-weighted draw would not estimate the ring share.
	for i := 0; i < attempts; i++ {
		if p.Fetch(net, r, Address("rate", i), 1, event.FetchOK) {
			observed++
		}
	}
	if observed != len(events) {
		t.Fatalf("observed %d, events %d", observed, len(events))
	}
	for _, e := range events {
		if !ring.IsMeasuring(e.Observer()) {
			t.Fatal("fetch event at non-measuring relay")
		}
		if e.Outcome != event.FetchOK || e.Version != 2 {
			t.Fatalf("event fields: %+v", e)
		}
	}
	// The observation rate should approximate the measuring ring share.
	rate := float64(observed) / attempts
	want := float64(ring.NumMeasuring()) / float64(ring.Size())
	if rate <= 0 || math.Abs(rate-want) > want {
		t.Fatalf("fetch observation rate %v, want ~%v", rate, want)
	}
}

func TestPublishDayEmitsForResponsibleServices(t *testing.T) {
	c, ring := testRing(t)
	net := tornet.NewNetwork(c, nil, nil)
	count := 0
	net.Bus.Subscribe(func(e event.Event) {
		if _, ok := e.(*event.DescPublished); ok {
			count++
		}
	})
	cfg := defaultPopulationConfig()
	cfg.LiveServices = 3000
	p := NewPopulation(cfg, ring)
	r := simtime.Rand(8, "publish")
	for i := range p.Services {
		p.PublishDay(net, r, &p.Services[i], 1, 4)
	}
	if count == 0 {
		t.Fatal("no publish events; some services must hit measuring HSDirs")
	}
}

func TestRendOutcomeModel(t *testing.T) {
	m := DefaultRendOutcomeModel()
	r := simtime.Rand(9, "rend")
	var succ, closed, expired int
	var totalBytes, totalCells float64
	const draws = 300000
	for i := 0; i < draws; i++ {
		outcome, cells, bytes := m.Draw(r)
		switch outcome {
		case event.RendSucceeded:
			succ++
			if bytes == 0 || cells == 0 {
				t.Fatal("successful circuit must carry payload")
			}
			if cells != (bytes+CellPayload-1)/CellPayload {
				t.Fatal("cells must cover bytes at 498 B per cell")
			}
			totalBytes += float64(bytes)
			totalCells += float64(cells)
		case event.RendConnClosed:
			closed++
			if bytes != 0 {
				t.Fatal("failed circuit must carry no payload")
			}
		case event.RendExpired:
			expired++
		}
	}
	if math.Abs(float64(succ)/draws-0.0808) > 0.005 {
		t.Fatalf("success rate %v, want ~0.0808", float64(succ)/draws)
	}
	if math.Abs(float64(closed)/draws-0.0455) > 0.005 {
		t.Fatalf("closed rate %v", float64(closed)/draws)
	}
	if expired == 0 {
		t.Fatal("no expirations")
	}
	// Mean payload per active circuit ≈ 730 KiB (Table 8).
	meanKiB := totalBytes / float64(succ) / 1024
	if meanKiB < 300 || meanKiB > 1600 {
		t.Fatalf("mean payload %v KiB, want ~730", meanKiB)
	}
}
