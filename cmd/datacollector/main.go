// Command datacollector runs one data collector as a long-lived
// daemon: it attaches to an event source as one measuring relay,
// registers a single multiplexed session with the tally server, and
// serves every measurement round the tally schedules over it —
// PrivCount and PSC rounds alike, concurrently when they overlap —
// mirroring the paper's one-DC-per-relay deployment (§3.1) run as a
// months-long daemon.
//
// Two event sources are supported:
//
//   - -torsim: the simulator's binary socket feed (the default), and
//   - -tor-control: a live Tor control port speaking PRIVCOUNT_*
//     events — a PrivCount-patched Tor or the cmd/mockrelay stand-in.
//     The connection authenticates via -tor-cookie (COOKIE/SAFECOOKIE)
//     or -tor-password, and survives relay churn by reconnecting with
//     backoff; the round fan-out never notices a dropped connection.
//
// Every event from the source fans out to all currently active rounds:
// PrivCount rounds count the Figure 1 stream statistics (the tally
// must be configured with the matching -stats spec, see below); PSC
// rounds observe unique client IPs from connection events (Table 5).
// When the source ends, all active rounds are finished and reported;
// rounds scheduled after that report empty observations. A round the
// tally aborts or resets leaves the fan-out at once and is reported
// failed, whether or not the source has ended.
//
// The daemon serves as many rounds as the tally schedules: like psc-cp
// and sharekeeper it runs on daemon.Party.Main, redials a dropped
// session, and exits 0 when the tally hangs up.
//
//	datacollector -tally 127.0.0.1:7001 -torsim 127.0.0.1:7000 \
//	              -relay 3 -name dc-3 [-pin <hex-spki>]
//	datacollector -tally 127.0.0.1:7001 -tor-control 127.0.0.1:9051 \
//	              -tor-cookie /var/lib/tor/control_auth_cookie -relay 3
//
// The matching tally spec for privcount rounds is:
//
//	exit-streams:initial,subsequent:SIGMA;initial-target:hostname,ipv4,ipv6:SIGMA;hostname-port:web,other:SIGMA
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/torctl"
	"repro/internal/wire"
)

func main() {
	p := daemon.PartyFlags(daemon.Spec{
		Prog: "datacollector", Role: engine.RoleDC,
		DefaultName: "dc-0", NameHelp: "data collector name",
		ReconnectHelp: "max consecutive tally reconnect attempts before giving up",
		SpillHelp:     "directory for bounded-residency scratch files (empty: system temp)",
	})
	torsim := flag.String("torsim", "127.0.0.1:7000", "torsim event feed address")
	torControl := flag.String("tor-control", "", "Tor control-port address; replaces -torsim as the event source")
	torCookie := flag.String("tor-cookie", "", "control-auth cookie file (empty: path advertised by the relay)")
	torPassword := flag.String("tor-password", "", "control-port password")
	relay := flag.Int("relay", 0, "relay id to subscribe to (-1 = all; also the observer id for control-port events)")
	flag.Parse()
	name, timeout := p.Name(), p.Timeout()

	// Event source: live control port, or the simulator socket feed.
	var feed net.Conn
	var src *torctl.Source
	var err error
	if *torControl != "" {
		src, err = torctl.DialSource(torctl.Config{
			Addr:        *torControl,
			CookiePath:  *torCookie,
			Password:    *torPassword,
			DialTimeout: timeout,
			Logf:        log.Printf,
		}, torctl.LineParser{DefaultRelay: event.RelayID(*relay)})
		if err != nil {
			log.Fatalf("datacollector %s: tor control: %v", name, err)
		}
		defer src.Close()
		fmt.Printf("datacollector %s: control connection to %s established\n", name, *torControl)
	} else {
		feed, err = dialFeed(*torsim, *relay, timeout)
		if err != nil {
			log.Fatalf("datacollector %s: torsim: %v", name, err)
		}
		defer feed.Close()
	}

	c := &collector{
		name:     name,
		feedDone: make(chan struct{}),
		active:   make(map[engine.DCRound]core.Incrementer),
	}

	// Feed pump: every event reaches every active round.
	go func() {
		defer close(c.feedDone)
		var n int
		var err error
		if src != nil {
			n, err = c.pumpSource(src)
		} else {
			n, err = c.pump(feed)
		}
		if err != nil {
			log.Printf("datacollector %s: feed: %v", name, err)
		}
		fmt.Printf("datacollector %s: %d events consumed\n", name, n)
		if src != nil {
			parsed, skipped := src.Stats()
			fmt.Printf("datacollector %s: torctl reconnects=%d parsed=%d skipped=%d\n",
				name, src.Reconnects(), parsed, skipped)
		}
	}()

	// Round server: the tally opens one stream per round over one
	// session, redialed on churn, until it hangs up.
	host := engine.DCHost{
		Collect: c.collect,
		Served: func(round uint64, err error) {
			if err != nil {
				fmt.Printf("datacollector %s: round %d failed: %v\n", name, round, err)
				return
			}
			fmt.Printf("datacollector %s: round %d complete\n", name, round)
		},
	}
	p.Main(func(sess *wire.Session, hello engine.Hello) error {
		return engine.ServeDC(sess, hello, host)
	})
}

// collector fans feed events into every active round's DC.
type collector struct {
	name     string
	feedDone chan struct{}

	// active maps each collecting round to the Incrementer its
	// PrivCount DC counts through (nil for a PSC round).
	mu     sync.Mutex
	active map[engine.DCRound]core.Incrementer
}

// collect holds one round in the fan-out until the feed ends or the
// round fails.
func (c *collector) collect(r engine.DCRound, failed <-chan struct{}) error {
	fmt.Printf("datacollector %s: round %d started (%s)\n", c.name, r.Round, r.Label())
	var inc core.Incrementer
	if dc := r.PrivCount; dc != nil {
		inc = func(stat string, bin int, delta float64) { _ = dc.Increment(stat, bin, delta) }
	}
	c.mu.Lock()
	c.active[r] = inc
	c.mu.Unlock()
	select {
	case <-c.feedDone:
	case <-failed:
	}
	c.mu.Lock()
	delete(c.active, r)
	c.mu.Unlock()
	return nil
}

// dispatch routes one event to every active round.
func (c *collector) dispatch(ev event.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for r, inc := range c.active {
		if r.PrivCount != nil {
			core.Fig1Handle(ev, inc)
		} else if e, ok := ev.(*event.ConnectionEnd); ok {
			_ = r.PSC.Observe(e.ClientIP.String())
		}
	}
}

// pump decodes the torsim feed until EOF, dispatching each event to
// all active rounds, and returns the event count.
func (c *collector) pump(feed net.Conn) (int, error) {
	n := 0
	err := event.ReadFrames(bufio.NewReaderSize(feed, 1<<16), func(ev event.Event) error {
		n++
		c.dispatch(ev)
		return nil
	})
	return n, err
}

// pumpSource consumes the control-port source until the trace ends or
// the client dies.
func (c *collector) pumpSource(src *torctl.Source) (int, error) {
	n := 0
	for ev := range src.Events() {
		n++
		c.dispatch(ev)
	}
	return n, src.Err()
}

// dialFeed attaches to the torsim event stream for one relay.
func dialFeed(addr string, relay int, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	sel := fmt.Sprintf("relay %d\n", relay)
	if relay < 0 {
		sel = "relay all\n"
	}
	if _, err := io.WriteString(c, sel); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}
