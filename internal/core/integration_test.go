package core

import (
	"context"
	"crypto/tls"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/stats"
	"repro/internal/torctl"
	"repro/internal/tornet"
	"repro/internal/wire"
)

// These integration tests run the full multi-party deployments over
// real TCP sockets (loopback), optionally under TLS with pinned keys —
// the same code path as the cmd/ binaries, without process spawning.

// listenRole opens a loopback listener for one party role and accepts n
// connections on it in the background. Tally.Run takes its messengers
// positionally (share keepers or computation parties first, then data
// collectors), so each role dials its own listener and the caller
// drains the returned channels in role order.
func listenRole(t *testing.T, tlsCfg *tls.Config, n int) (addr string, accepted <-chan *wire.Conn) {
	t.Helper()
	ln, err := wire.Listen("127.0.0.1:0", tlsCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan *wire.Conn, n)
	go func() {
		for i := 0; i < n; i++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			ch <- c
		}
	}()
	return ln.Addr().String(), ch
}

// TestPrivCountOverTCPWithTLS runs a complete PrivCount round where
// every party dials the tally server over TLS and authenticates it by
// pinned SPKI.
func TestPrivCountOverTCPWithTLS(t *testing.T) {
	id, err := wire.GenerateIdentity("tally", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	const numDCs, numSKs = 4, 2
	skAddr, skAccepted := listenRole(t, id.ServerTLS(), numSKs)
	dcAddr, dcAccepted := listenRole(t, id.ServerTLS(), numDCs)
	clientTLS := func(addr string) *wire.Conn {
		c, err := wire.Dial(addr, wire.ClientTLS(id.SPKI()), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	statsCfg := []privcount.StatConfig{
		{Name: "events", Bins: []string{"a", "b"}, Sigma: 0},
	}
	tally, err := privcount.NewTally(privcount.TallyConfig{
		Round: 7, Stats: statsCfg, NumDCs: numDCs, NumSKs: numSKs,
	})
	if err != nil {
		t.Fatal(err)
	}

	// TLS handshakes complete lazily on the server side (the tally
	// reads only once it runs), so every party must dial in its own
	// goroutine; a sequential dial loop would deadlock on the first
	// client handshake.
	var skWG, setupWG sync.WaitGroup
	dcCh := make(chan *privcount.DC, numDCs)
	for i := 0; i < numSKs; i++ {
		i := i
		skWG.Add(1)
		go func() {
			defer skWG.Done()
			sk, err := privcount.NewSK(fmt.Sprintf("sk-%d", i), clientTLS(skAddr))
			if err != nil {
				t.Errorf("sk new: %v", err)
				return
			}
			if err := sk.Serve(); err != nil {
				t.Errorf("sk: %v", err)
			}
		}()
	}
	for i := 0; i < numDCs; i++ {
		i := i
		setupWG.Add(1)
		go func() {
			defer setupWG.Done()
			dc := privcount.NewDC(fmt.Sprintf("dc-%d", i), clientTLS(dcAddr), nil)
			if err := dc.Setup(); err != nil {
				t.Errorf("dc: %v", err)
				return
			}
			dcCh <- dc
		}()
	}

	tsConns := make([]wire.Messenger, 0, numDCs+numSKs)
	resCh := make(chan map[string][]float64, 1)
	go func() {
		for i := 0; i < numSKs; i++ {
			tsConns = append(tsConns, <-skAccepted)
		}
		for i := 0; i < numDCs; i++ {
			tsConns = append(tsConns, <-dcAccepted)
		}
		res, err := tally.Run(context.Background(), tsConns, append(roleNames("sk", numSKs), roleNames("dc", numDCs)...))
		if err != nil {
			t.Errorf("tally: %v", err)
			close(resCh)
			return
		}
		resCh <- res
	}()

	setupWG.Wait()
	close(dcCh)
	dcs := make([]*privcount.DC, 0, numDCs)
	for dc := range dcCh {
		dcs = append(dcs, dc)
	}
	if len(dcs) != numDCs {
		t.Fatalf("only %d DCs completed setup", len(dcs))
	}
	for i, dc := range dcs {
		for j := 0; j <= i; j++ {
			if err := dc.Increment("events", 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := dc.Increment("events", 1, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	var finWG sync.WaitGroup
	for _, dc := range dcs {
		finWG.Add(1)
		go func(dc *privcount.DC) {
			defer finWG.Done()
			if err := dc.Finish(); err != nil {
				t.Errorf("finish: %v", err)
			}
		}(dc)
	}
	finWG.Wait()
	skWG.Wait()
	res, ok := <-resCh
	if !ok {
		t.Fatal("tally failed")
	}
	// 1+2+3+4 = 10 in bin a; 4×0.5 = 2 in bin b; zero noise → exact.
	if got := res["events"][0]; got != 10 {
		t.Fatalf("bin a: %v want 10", got)
	}
	if got := res["events"][1]; got != 2 {
		t.Fatalf("bin b: %v want 2", got)
	}
}

// TestPSCOverTCP runs a complete PSC round over plain TCP loopback with
// proofs enabled and verifies the estimator output.
func TestPSCOverTCP(t *testing.T) {
	const numDCs, numCPs = 3, 2
	cpAddr, cpAccepted := listenRole(t, nil, numCPs)
	dcAddr, dcAccepted := listenRole(t, nil, numDCs)
	cfg := psc.Config{
		Round: 9, Bins: 1024, NoisePerCP: 16,
		ShuffleProofRounds: 2, NumDCs: numDCs, NumCPs: numCPs,
	}
	tally, err := psc.NewTally(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dial := func(addr string) *wire.Conn {
		c, err := wire.Dial(addr, nil, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	var cpWG, setupWG sync.WaitGroup
	for i := 0; i < numCPs; i++ {
		cp := psc.NewCP(fmt.Sprintf("cp-%d", i), dial(cpAddr), nil)
		cpWG.Add(1)
		go func() {
			defer cpWG.Done()
			if err := cp.Serve(); err != nil {
				t.Errorf("cp: %v", err)
			}
		}()
	}
	dcs := make([]*psc.DC, numDCs)
	for i := range dcs {
		dcs[i] = psc.NewDC(fmt.Sprintf("dc-%d", i), dial(dcAddr))
		setupWG.Add(1)
		go func(dc *psc.DC) {
			defer setupWG.Done()
			if err := dc.Setup(); err != nil {
				t.Errorf("dc: %v", err)
			}
		}(dcs[i])
	}
	tsConns := make([]wire.Messenger, 0, numDCs+numCPs)
	for i := 0; i < numCPs; i++ {
		tsConns = append(tsConns, <-cpAccepted)
	}
	for i := 0; i < numDCs; i++ {
		tsConns = append(tsConns, <-dcAccepted)
	}
	resCh := make(chan psc.Result, 1)
	go func() {
		res, err := tally.Run(context.Background(), tsConns, append(roleNames("cp", numCPs), roleNames("dc", numDCs)...))
		if err != nil {
			t.Errorf("tally: %v", err)
			close(resCh)
			return
		}
		resCh <- res
	}()
	setupWG.Wait()
	const distinct = 120
	for i := 0; i < distinct; i++ {
		dcs[i%numDCs].Observe(fmt.Sprintf("203.0.113.%d-client-%d", i%250, i))
	}
	var finWG sync.WaitGroup
	for _, dc := range dcs {
		finWG.Add(1)
		go func(dc *psc.DC) {
			defer finWG.Done()
			if err := dc.Finish(); err != nil {
				t.Errorf("finish: %v", err)
			}
		}(dc)
	}
	finWG.Wait()
	cpWG.Wait()
	res, ok := <-resCh
	if !ok {
		t.Fatal("tally failed")
	}
	iv, err := stats.UnionCardinalityCI(stats.PSCObservation{
		Reported: res.Reported, Bins: res.Bins, NoiseTrials: res.NoiseTrials,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A 95% interval misses ~1 run in 20; allow a small margin so a
	// single unlucky binomial draw does not flake the deployment test.
	if distinct < iv.Lo-8 || distinct > iv.Hi+8 {
		t.Fatalf("estimator CI %+v must (nearly) contain %d (reported %d)", iv, distinct, res.Reported)
	}
}

// TestEventFeedRoundTrip carries one simulated day over the event
// plane cmd/torsim serves and cmd/datacollector reads: every event,
// formatted as a control-port line (torctl.FormatEvent) and parsed back
// (torctl.LineParser), must come back field for field.
func TestEventFeedRoundTrip(t *testing.T) {
	env := &Env{Scale: 8000, Seed: 3, AlexaN: 5000, ProofRounds: 1}
	sim, err := env.BuildSim(tornet.StudyFractions(), 0)
	if err != nil {
		t.Fatal(err)
	}

	var p torctl.LineParser
	p.Time.Map(0) // simtime 0 is Unix time 0, the epoch lines are formatted at
	sent := 0
	sim.Net.Bus.Subscribe(func(e event.Event) {
		sent++
		line, err := torctl.FormatEvent(e, 0)
		if err != nil {
			t.Fatalf("format %+v: %v", e, err)
		}
		got, err := p.Parse("650 " + line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if !reflect.DeepEqual(e, got) {
			t.Fatalf("line %q:\n want %+v\n got  %+v", line, e, got)
		}
	})
	sim.Driver.Run(1)
	if sent == 0 {
		t.Fatal("no events simulated")
	}
}

// roleNames names n parties of one role as the engine's pinned hellos
// would: "<role>-0", "<role>-1", ...
func roleNames(role string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s-%d", role, i)
	}
	return names
}
