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
// rounds scheduled after that report empty observations.
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
	"repro/internal/psc"
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
		name:       name,
		feedDone:   make(chan struct{}),
		pscActive:  make(map[*psc.DC]bool),
		privActive: make(map[*privcount.DC]bool),
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
	hello := p.Hello()
	go func() {
		err := p.Loop(dial, func(sess *wire.Session) error {
			if _, err := engine.SendHelloPinned(sess, hello); err != nil {
				return err
			}
			return engine.ServeRounds(sess, func(st *wire.Stream) error {
				err := c.serveRound(st)
				if err == nil {
					// Wait for the tally to finish the round and close
					// the stream before counting it served: this DC's
					// part ends at its upload, but exiting the process
					// while the round is still in flight would RST the
					// connection and discard table chunks the kernel
					// already delivered to the tally.
					st.Close()
					for {
						if _, rerr := st.Recv(); rerr != nil {
							break
						}
					}
				}
				completed <- outcome{round: st.Round(), err: err}
				return err
			})
		})
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

	mu         sync.Mutex
	pscActive  map[*psc.DC]bool
	privActive map[*privcount.DC]bool
}

// serveRound runs one round stream to completion: setup, collect until
// the feed ends, report.
func (c *collector) serveRound(st *wire.Stream) error {
	switch st.Label() {
	case engine.LabelPSC:
		dc := psc.NewDC(c.name, st)
		if err := dc.Setup(); err != nil {
			return err
		}
		fmt.Printf("datacollector %s: round %d started (%s)\n", c.name, st.Round(), st.Label())
		c.mu.Lock()
		c.pscActive[dc] = true
		c.mu.Unlock()
		<-c.feedDone
		c.mu.Lock()
		delete(c.pscActive, dc)
		c.mu.Unlock()
		return dc.Finish()
	case engine.LabelPrivCount:
		dc := privcount.NewDC(c.name, st, nil)
		if err := dc.Setup(); err != nil {
			return err
		}
		fmt.Printf("datacollector %s: round %d started (%s)\n", c.name, st.Round(), st.Label())
		c.mu.Lock()
		c.privActive[dc] = true
		c.mu.Unlock()
		<-c.feedDone
		c.mu.Lock()
		delete(c.privActive, dc)
		c.mu.Unlock()
		return dc.Finish()
	default:
		return fmt.Errorf("datacollector %s: unexpected stream %q", c.name, st.Label())
	}
}

// dispatch routes one event to every active round.
func (c *collector) dispatch(ev event.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e := ev.(type) {
	case *event.ConnectionEnd:
		for dc := range c.pscActive {
			_ = dc.Observe(e.ClientIP.String())
		}
	case *event.StreamEnd:
		for dc := range c.privActive {
			incrementFig1(dc, e)
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
