package main

import (
	"bufio"
	"errors"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/torctl"
	"repro/internal/tornet"
)

// TestPortsRouteAndReplay runs one simulated day through torsim's
// control ports and reads every port with torctl.DialSource: each relay
// port must deliver exactly the events its relay observed, in order,
// and the all port every event. The day is recorded as it runs, and a
// replay of the record through a fresh set of ports must deliver the
// same events, field for field.
func TestPortsRouteAndReplay(t *testing.T) {
	cons, err := tornet.NewConsensus(tornet.DefaultConsensusConfig())
	if err != nil {
		t.Fatal(err)
	}
	var want []event.Event
	var feed func(event.Event)
	driver, err := build(cons, 20000, 2018, 2000, func(ev event.Event) {
		want = append(want, ev)
		feed(ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	record := filepath.Join(t.TempDir(), "day.lines")

	simulated := drainPorts(t, cons.MeasuringRelays(), func(ts *torsim) {
		f, err := os.Create(record)
		if err != nil {
			t.Fatal(err)
		}
		ts.rec = bufio.NewWriter(f)
		feed = ts.feed
		driver.Run(1)
		if err := errors.Join(ts.rec.Flush(), f.Close()); err != nil {
			t.Fatal(err)
		}
	})
	if len(want) == 0 {
		t.Fatal("the simulated day has no events")
	}
	checkRouting(t, "simulated", want, simulated)

	replayed := drainPorts(t, cons.MeasuringRelays(), func(ts *torsim) {
		n, err := replay(record, ts.feed)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Fatalf("replayed %d lines, want %d", n, len(want))
		}
	})
	checkRouting(t, "replayed", want, replayed)
}

// drainPorts serves the events run feeds on a fresh set of ports, one
// controller on each, and returns what each controller read, by port
// name. The controllers attach before run, through the -wait gate.
func drainPorts(t *testing.T, relays []event.RelayID, run func(*torsim)) map[string][]event.Event {
	t.Helper()
	ts, err := serve("127.0.0.1:0", relays, torctl.MockConfig{}, len(relays)+1)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]*torctl.Source, len(ts.ports))
	for i, p := range ts.ports {
		var parser torctl.LineParser
		parser.Time.Map(epoch) // read times back on the simulation's clock
		srcs[i], err = torctl.DialSource(torctl.Config{Addr: p.Addr().String(), MaxDialFailures: 1}, parser)
		if err != nil {
			t.Fatal(err)
		}
		defer srcs[i].Close()
	}
	for range ts.ports {
		<-ts.accepts
	}
	run(ts)
	finished := make(chan int, 1)
	go func() { finished <- ts.finish(idleGrace) }()

	got := make(map[string][]event.Event)
	for i, src := range srcs {
		var evs []event.Event
		for ev := range src.Events() {
			evs = append(evs, ev)
		}
		got[ts.ports[i].name] = evs
		if err := src.Err(); err != nil {
			t.Fatalf("port %s: %v", ts.ports[i].name, err)
		}
	}
	select {
	case <-finished:
	case <-time.After(time.Minute):
		t.Fatal("torsim still serving after every controller drained its port")
	}
	return got
}

// checkRouting holds each port's events to the simulated ones: the all
// port carries every event and relay N's port those observed by relay
// N, each in simulation order and field for field.
func checkRouting(t *testing.T, what string, want []event.Event, got map[string][]event.Event) {
	t.Helper()
	for name, evs := range got {
		var exp []event.Event
		for _, ev := range want {
			if name == "all" || name == strconv.Itoa(int(ev.Observer())) {
				exp = append(exp, ev)
			}
		}
		if len(evs) != len(exp) {
			t.Fatalf("%s: port %s delivered %d events, want %d", what, name, len(evs), len(exp))
		}
		for i := range exp {
			if !reflect.DeepEqual(exp[i], evs[i]) {
				t.Fatalf("%s: port %s event %d:\n want %+v\n got  %+v", what, name, i, exp[i], evs[i])
			}
		}
	}
	if len(got["all"]) == 0 {
		t.Fatalf("%s: the all port delivered nothing", what)
	}
}

// TestFinishBoundsStalledPorts: a port whose controller never drains
// its trace (a probe that stays connected, or one that connects and
// leaves the way a killed data collector does) must not keep torsim
// serving once the trace has ended, while a port with a live
// controller still delivers its whole trace.
func TestFinishBoundsStalledPorts(t *testing.T) {
	relays := []event.RelayID{0, 1}
	ts, err := serve("127.0.0.1:0", relays, torctl.MockConfig{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := torctl.DialSource(torctl.Config{Addr: ts.ports[0].Addr().String(), MaxDialFailures: 1}, torctl.LineParser{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	probe, err := net.Dial("tcp", ts.relays[0].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	gone, err := net.Dial("tcp", ts.relays[1].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	gone.Close()
	for range 3 {
		<-ts.accepts
	}
	const n = 1000
	for i := range n {
		ts.feed(&event.ConnectionEnd{Header: event.Header{Relay: relays[i%2]}, ClientIP: netip.MustParseAddr("192.0.2.1"), Country: "us"})
	}

	finished := make(chan int, 1)
	go func() { finished <- ts.finish(100 * time.Millisecond) }()
	read := 0
	for range src.Events() {
		read++
	}
	if read != n {
		t.Fatalf("the all port delivered %d events, want %d", read, n)
	}
	select {
	case delivered := <-finished:
		if delivered != n {
			t.Fatalf("finish reported %d lines delivered, want %d", delivered, n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("torsim still serving 10 s after the trace ended, held by ports that never drain")
	}
}
