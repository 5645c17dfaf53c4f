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
//	datacollector -tally 127.0.0.1:7001 -torsim 127.0.0.1:7000 \
//	              -relay 3 -name dc-3 -rounds 4 [-pin <hex-spki>]
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

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/privcount"
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
	rounds := flag.Int("rounds", 1, "number of rounds to serve before exiting")
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

	dial, err := p.Start()
	if err != nil {
		log.Fatalf("datacollector %s: %v", name, err)
	}

	c := &collector{
		name:     name,
		feedDone: make(chan struct{}),
		active:   make(map[engine.DCRound]bool),
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

	// Round server: the tally opens one stream per round. The session
	// loop survives tally churn — a dropped session is redialed with
	// backoff and the daemon re-registers under its pinned identity, so
	// rounds scheduled after the rejoin reach it again.
	type outcome struct {
		round uint64
		err   error
	}
	completed := make(chan outcome, *rounds)
	host := engine.DCHost{
		Collect: c.collect,
		Served:  func(round uint64, err error) { completed <- outcome{round, err} },
	}
	go func() {
		err := p.Loop(dial, func(sess *wire.Session) error { return engine.ServeDC(sess, p.Hello(), host) })
		if err != nil {
			log.Fatalf("datacollector %s: tally: %v", name, err)
		}
	}()

	// Count distinct rounds, not outcomes — and let a failure linger
	// before it consumes quota: a session blip delivers a failed outcome
	// from the dead stream while the reconnect loop may already be
	// resuming the same round on a fresh session, and that resumed
	// outcome is the one that should count. A success finalizes its
	// round immediately (superseding any lingering — or even already
	// finalized — failure); a failure finalizes, and is reported as a
	// failure, only when its linger window expires unsuperseded. Each
	// round arms at most one timer, and the timer finalizes under the
	// mutex with a non-blocking wakeup, so repeated failures across many
	// rounds can neither leak blocked goroutines nor miscount.
	const failLinger = 5 * time.Second
	const (
		pendingFail = iota + 1
		doneOK
		doneFailed
	)
	var (
		mu    sync.Mutex
		state = make(map[uint64]int)
		wake  = make(chan struct{}, 1)
	)
	poke := func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	tally := func() (finalized, failed int) {
		for _, s := range state {
			switch s {
			case doneOK:
				finalized++
			case doneFailed:
				finalized++
				failed++
			}
		}
		return
	}
	for {
		mu.Lock()
		finalized, _ := tally()
		mu.Unlock()
		if finalized >= *rounds {
			break
		}
		select {
		case out := <-completed:
			mu.Lock()
			if out.err != nil {
				fmt.Printf("datacollector %s: round %d failed: %v\n", name, out.round, out.err)
				if state[out.round] == 0 {
					state[out.round] = pendingFail
					r := out.round
					time.AfterFunc(failLinger, func() {
						mu.Lock()
						if state[r] == pendingFail {
							state[r] = doneFailed
						}
						mu.Unlock()
						poke()
					})
				}
			} else {
				fmt.Printf("datacollector %s: round %d complete\n", name, out.round)
				state[out.round] = doneOK
			}
			mu.Unlock()
		case <-wake:
		}
	}
	mu.Lock()
	finalized, failed := tally()
	mu.Unlock()
	if failed > 0 {
		fmt.Printf("datacollector %s: %d rounds served (%d completed, %d failed)\n",
			name, finalized, finalized-failed, failed)
	} else {
		fmt.Printf("datacollector %s: %d rounds served\n", name, finalized)
	}
}

// collector fans feed events into every active round's DC.
type collector struct {
	name     string
	feedDone chan struct{}

	mu     sync.Mutex
	active map[engine.DCRound]bool
}

// collect holds one round in the fan-out until the feed ends or the
// round fails.
func (c *collector) collect(r engine.DCRound, failed <-chan struct{}) error {
	fmt.Printf("datacollector %s: round %d started (%s)\n", c.name, r.Round, r.Label())
	c.mu.Lock()
	c.active[r] = true
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
	for r := range c.active {
		switch e := ev.(type) {
		case *event.ConnectionEnd:
			if r.PSC != nil {
				_ = r.PSC.Observe(e.ClientIP.String())
			}
		case *event.StreamEnd:
			if r.PrivCount != nil {
				incrementFig1(r.PrivCount, e)
			}
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

// incrementFig1 applies the Figure 1 stream-statistic mapping.
func incrementFig1(dc *privcount.DC, s *event.StreamEnd) {
	if !s.IsInitial {
		_ = dc.Increment("exit-streams", 1, 1)
		return
	}
	_ = dc.Increment("exit-streams", 0, 1)
	switch s.Target {
	case event.TargetHostname:
		_ = dc.Increment("initial-target", 0, 1)
		bin := 1
		if s.IsWebPort() {
			bin = 0
		}
		_ = dc.Increment("hostname-port", bin, 1)
	case event.TargetIPv4:
		_ = dc.Increment("initial-target", 1, 1)
	case event.TargetIPv6:
		_ = dc.Increment("initial-target", 2, 1)
	}
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
