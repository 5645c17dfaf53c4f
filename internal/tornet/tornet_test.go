package tornet

import (
	"math"
	"testing"

	"repro/internal/asn"
	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/simtime"
)

func testConsensus(t *testing.T) *Consensus {
	t.Helper()
	c, err := NewConsensus(DefaultConsensusConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConsensusDeployment(t *testing.T) {
	c := testConsensus(t)
	if got := len(c.MeasuringExits()); got != 6 {
		t.Fatalf("measuring exits: %d want 6", got)
	}
	if got := len(c.MeasuringGuards()); got != 10 {
		t.Fatalf("measuring guards: %d want 10", got)
	}
	if got := len(c.MeasuringRelays()); got != 16 {
		t.Fatalf("measuring relays: %d want 16 (the paper's deployment)", got)
	}
	if len(c.Relays) != 6500 {
		t.Fatalf("relays: %d", len(c.Relays))
	}
	if c.NumHSDirs() < 100 {
		t.Fatalf("HSDir ring too small: %d", c.NumHSDirs())
	}
	// Every measuring exit has the exit flag; every measuring guard has
	// guard and HSDir flags.
	for _, id := range c.MeasuringExits() {
		if !c.Relays[id].Has(FlagExit) {
			t.Fatal("measuring exit without exit flag")
		}
	}
	for _, id := range c.MeasuringGuards() {
		if !c.Relays[id].Has(FlagGuard) || !c.Relays[id].Has(FlagHSDir) {
			t.Fatal("measuring guard missing flags")
		}
	}
}

func TestConsensusConfigValidation(t *testing.T) {
	bad := DefaultConsensusConfig()
	bad.Fractions.Exit = 1.5
	if _, err := NewConsensus(bad); err == nil {
		t.Fatal("invalid fraction must fail")
	}
	bad2 := DefaultConsensusConfig()
	bad2.MeasuringExits = 0
	if _, err := NewConsensus(bad2); err == nil {
		t.Fatal("no measuring exits must fail")
	}
	bad3 := DefaultConsensusConfig()
	bad3.TotalRelays = 10
	if _, err := NewConsensus(bad3); err == nil {
		t.Fatal("tiny network must fail")
	}
}

func TestPickGuardFraction(t *testing.T) {
	c := testConsensus(t)
	r := simtime.Rand(3, "guard-frac")
	const draws = 400000
	measuring := 0
	for i := 0; i < draws; i++ {
		if c.PickGuard(r).Measuring {
			measuring++
		}
	}
	got := float64(measuring) / draws
	if math.Abs(got-0.0119) > 0.0008 {
		t.Fatalf("guard observation rate %v, want 0.0119", got)
	}
}

func testNetwork(t *testing.T) *Network {
	t.Helper()
	g := geo.Build(1)
	return NewNetwork(testConsensus(t), g, asn.Build(g, 1))
}

func TestNewClientGuards(t *testing.T) {
	n := testNetwork(t)
	r := simtime.Rand(4, "clients")
	for i := 0; i < 200; i++ {
		c := n.NewClient(r, "US")
		if c.Country != "US" || !c.IP.IsValid() {
			t.Fatal("client identity")
		}
		if c.ASN == 0 {
			t.Fatal("client must resolve to an AS")
		}
		// Three distinct directory guards, first is the data guard.
		seen := map[int]bool{}
		for _, g := range c.DirGuards {
			if seen[g.Key] {
				t.Fatal("duplicate guard")
			}
			seen[g.Key] = true
		}
		if c.DataGuard.Key != c.DirGuards[0].Key {
			t.Fatal("data guard must be the first directory guard")
		}
	}
}

func TestObservedGuardsSelective(t *testing.T) {
	n := testNetwork(t)
	r := simtime.Rand(5, "obs")
	sawData, sawDirOnly := false, false
	for i := 0; i < 30000 && !(sawData && sawDirOnly); i++ {
		c := n.NewClient(r, "DE")
		for _, o := range n.ObservedGuards(c) {
			if o.Data {
				sawData = true
			} else if o.Directory {
				sawDirOnly = true
			}
		}
	}
	if !sawData || !sawDirOnly {
		t.Fatalf("guard observation roles: data=%v dirOnly=%v", sawData, sawDirOnly)
	}
}

func TestObservedGuardsPromiscuous(t *testing.T) {
	n := testNetwork(t)
	r := simtime.Rand(6, "prom")
	c := n.NewClient(r, "FR")
	c.Promiscuous = true
	obs := n.ObservedGuards(c)
	if len(obs) != len(n.Consensus.MeasuringGuards()) {
		t.Fatalf("promiscuous client observed at %d guards, want all %d",
			len(obs), len(n.Consensus.MeasuringGuards()))
	}
}

func TestEmitHelpersPublishTypedEvents(t *testing.T) {
	n := testNetwork(t)
	r := simtime.Rand(7, "emit")
	c := n.NewClient(r, "RU")
	var got []event.Event
	n.Bus.Subscribe(func(e event.Event) { got = append(got, e) })

	guard := n.Consensus.MeasuringGuards()[0]
	exit := n.Consensus.MeasuringExits()[0]
	n.EmitConnection(simtime.Hour, guard, c, 3, 100, 200)
	n.EmitCircuit(2*simtime.Hour, guard, c, event.CircuitDirectory, 1, 10, 20)
	circ := n.EmitStream(3*simtime.Hour, exit, 0, true, event.TargetHostname, 443, "example.com", 1, 2)
	n.EmitStream(3*simtime.Hour, exit, circ, false, event.TargetHostname, 443, "", 1, 2)

	if len(got) != 4 {
		t.Fatalf("events: %d", len(got))
	}
	conn := got[0].(*event.ConnectionEnd)
	if conn.Country != "RU" || conn.NumCircuits != 3 {
		t.Fatalf("connection event: %+v", conn)
	}
	circEv := got[1].(*event.CircuitEnd)
	if circEv.Kind != event.CircuitDirectory {
		t.Fatalf("circuit event: %+v", circEv)
	}
	s1 := got[2].(*event.StreamEnd)
	s2 := got[3].(*event.StreamEnd)
	if !s1.IsInitial || s2.IsInitial {
		t.Fatal("initial flags")
	}
	if s1.CircuitID != s2.CircuitID {
		t.Fatal("subsequent stream must share the circuit")
	}
	if s1.CircuitID == 0 {
		t.Fatal("circuit IDs start at 1")
	}
}

func TestCircuitIDsUnique(t *testing.T) {
	n := testNetwork(t)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := n.NextCircuitID()
		if seen[id] {
			t.Fatal("duplicate circuit ID")
		}
		seen[id] = true
	}
}

func TestStudyFractionsValid(t *testing.T) {
	if err := StudyFractions().Validate(); err != nil {
		t.Fatal(err)
	}
}
