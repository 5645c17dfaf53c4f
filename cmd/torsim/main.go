// Command torsim runs the simulated Tor network and serves what its
// measuring relays observe the way the paper's PrivCount-patched relays
// do (§3.1): as PRIVCOUNT_* lines on a Tor control port, one
// torctl.MockRelay per measuring relay plus an "all" port at -listen
// (Tor's 127.0.0.1:9051, the data collector's default) that carries
// every relay's events. It prints "torsim: relay <id> control port
// <addr>" for each, the all port first.
//
//	torsim -days 1 -scale 2000 -wait 16
//
// It simulates (or, with -replay, serves a -record file) once -wait
// controllers have connected, counted across every port, and exits once
// every port that accepted one has delivered its whole trace and has no
// controller left, or once no port has delivered a line for 5 s. It
// keeps each port's trace in memory, about 200 bytes an event.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/alexa"
	"repro/internal/asn"
	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/torctl"
	"repro/internal/tornet"
	"repro/internal/workload"
)

// epoch is simtime 0 on recorded lines, 2018-01-01T00:00:00Z: the
// epoch a torctl.MockRelay serves by default (TestPortsRouteAndReplay).
const epoch = 1514764800 * int64(time.Second)

const idleGrace = 5 * time.Second // bounds finish's wait on ports that never go idle

func main() {
	log.SetFlags(log.Ltime)
	listen := flag.String("listen", "127.0.0.1:9051", "address of the all control port; relay ports are ephemeral ports on its host")
	days := flag.Int("days", 1, "virtual days to simulate")
	scale := flag.Float64("scale", 2000, "population scale divisor")
	seed := flag.Uint64("seed", 2018, "simulation seed")
	wait := flag.Int("wait", 1, "controller connections, across all ports, to wait for before simulating")
	alexaN := flag.Int("alexa", 100000, "synthetic Alexa list size")
	record := flag.String("record", "", "also write every event to this file as control-port lines")
	replayFile := flag.String("replay", "", "serve the events of a -record file instead of simulating")
	cookieFile := flag.String("cookie-file", "", "write a fresh auth cookie here and require COOKIE/SAFECOOKIE auth")
	password := flag.String("password", "", "require HASHEDPASSWORD auth with this password")
	dropAfter := flag.Int("drop-after", 0, "drop each port's controller once after N event lines (reconnect drill)")
	flag.Parse()

	ccfg := tornet.DefaultConsensusConfig()
	ccfg.Seed = *seed
	cons, err := tornet.NewConsensus(ccfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg := torctl.MockConfig{Password: *password, CookiePath: *cookieFile, DropAfter: *dropAfter, Logf: log.Printf}
	if *cookieFile != "" {
		if cfg.Cookie, err = torctl.GenerateCookie(); err == nil {
			err = os.WriteFile(*cookieFile, cfg.Cookie, 0o600)
		}
		if err != nil {
			log.Fatalf("torsim: cookie: %v", err)
		}
	}
	ts, err := serve(*listen, cons.MeasuringRelays(), cfg, *wait)
	if err != nil {
		log.Fatal(err)
	}
	var driver *workload.Driver
	if *replayFile == "" {
		if driver, err = build(cons, *scale, *seed, *alexaN, ts.feed); err != nil {
			log.Fatal(err)
		}
	}
	for _, p := range ts.ports {
		fmt.Printf("torsim: relay %s control port %s\n", p.name, p.Addr())
	}
	var rec *os.File
	if *record != "" {
		if rec, err = os.Create(*record); err != nil {
			log.Fatal(err)
		}
		ts.rec = bufio.NewWriterSize(rec, 1<<16)
	}

	log.Printf("torsim: waiting for %d controller connection(s)", *wait)
	for range *wait {
		<-ts.accepts
	}
	if driver != nil {
		log.Printf("torsim: running %d virtual day(s)", *days)
		driver.Run(*days)
	} else if _, err := replay(*replayFile, ts.feed); err != nil {
		log.Fatal(err)
	}
	if rec != nil {
		if err := errors.Join(ts.rec.Flush(), rec.Close()); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("torsim: done; %d event lines delivered\n", ts.finish(idleGrace))
}

// build makes the simulated network, with feed subscribed to its
// events, and its workload driver.
func build(cons *tornet.Consensus, scale float64, seed uint64, alexaN int, feed func(event.Event)) (*workload.Driver, error) {
	log.Printf("torsim: building network (scale=%g seed=%d)", scale, seed)
	g := geo.Build(seed)
	net0 := tornet.NewNetwork(cons, g, asn.Build(g, seed))
	net0.Bus.Subscribe(feed)
	return workload.New(workload.DefaultParams(scale, seed), net0, alexa.Generate(alexa.Config{N: alexaN, Seed: seed}))
}

// torsim is the set of control ports torsim serves: the all port
// first, then one per measuring relay.
type torsim struct {
	ports  []*port
	relays map[event.RelayID]*port
	// accepts holds a token per accepted controller, up to -wait; later ones drop.
	accepts chan struct{}
	rec     *bufio.Writer // -record, when set
}

// port is one control port: a mock relay behind a listener that tells
// the -wait gate of each controller it accepts.
type port struct {
	net.Listener
	name     string
	relay    *torctl.MockRelay
	accepts  chan<- struct{}
	accepted atomic.Bool
}

func (p *port) Accept() (net.Conn, error) {
	c, err := p.Listener.Accept()
	if err == nil {
		p.accepted.Store(true)
		select {
		case p.accepts <- struct{}{}:
		default: // the gate has opened
		}
	}
	return c, err
}

// serve binds the all port at listen and one ephemeral port per relay
// on its host, each serving an empty trace until feed fills it.
func serve(listen string, relays []event.RelayID, cfg torctl.MockConfig, wait int) (*torsim, error) {
	host, _, err := net.SplitHostPort(listen)
	if err != nil {
		return nil, err
	}
	ts := &torsim{relays: make(map[event.RelayID]*port), accepts: make(chan struct{}, max(wait, 0))}
	for i := -1; i < len(relays); i++ {
		name, addr := "all", listen
		if i >= 0 {
			name, addr = strconv.Itoa(int(relays[i])), net.JoinHostPort(host, "0")
		}
		m, err := torctl.NewMockRelay(cfg)
		var ln net.Listener
		if err == nil {
			ln, err = net.Listen("tcp", addr)
		}
		if err != nil {
			ts.close()
			return nil, err
		}
		p := &port{Listener: ln, name: name, relay: m, accepts: ts.accepts}
		go m.Serve(p)
		ts.ports = append(ts.ports, p)
		if i >= 0 {
			ts.relays[relays[i]] = p
		}
	}
	return ts, nil
}

// feed hands one event to the all port and its observer's port, and
// records it.
func (ts *torsim) feed(ev event.Event) {
	ts.ports[0].relay.Feed(ev)
	if p := ts.relays[ev.Observer()]; p != nil {
		p.relay.Feed(ev)
	}
	if ts.rec != nil {
		if line, err := torctl.FormatEvent(ev, epoch); err == nil {
			ts.rec.WriteString("650 " + line + "\r\n") // an error latches; Flush reports it
		}
	}
}

// finish ends every trace and waits until each port that accepted a
// controller is idle or no port has delivered a line for grace; closing
// the ports then ends every WaitIdle. It returns the lines delivered.
func (ts *torsim) finish(grace time.Duration) int {
	delivered := func() (n int) {
		for _, p := range ts.ports {
			n += p.relay.Delivered()
		}
		return n
	}
	idle, waiting, last := make(chan struct{}, len(ts.ports)), 0, delivered()
	for _, p := range ts.ports {
		p.relay.End()
		if p.accepted.Load() {
			waiting++
			go func() { p.relay.WaitIdle(); idle <- struct{}{} }()
		}
	}
	for waiting > 0 {
		select {
		case <-idle:
			waiting--
		case <-time.After(grace):
			if n := delivered(); n != last {
				last = n
				continue
			}
			log.Printf("torsim: %d control port(s) delivered nothing for %v; closing them", waiting, grace)
			waiting = 0
		}
	}
	ts.close()
	return delivered()
}

func (ts *torsim) close() {
	for _, p := range ts.ports {
		p.Close()
		p.relay.Close()
	}
}

// replay feeds every event line of a -record file to feed and returns
// how many there were.
func replay(path string, feed func(event.Event)) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var p torctl.LineParser
	p.Time.Map(epoch) // simtime 0 is the epoch the lines were recorded at
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		ev, err := p.Parse(strings.TrimSuffix(sc.Text(), "\r"))
		if err != nil {
			return n, fmt.Errorf("torsim: %s line %d: %w", path, n+1, err)
		}
		feed(ev)
		n++
	}
	return n, sc.Err()
}
