// Package daemon is the part of a command's main that every daemon
// repeats: the -netem transport flag and its wire.Option, the metrics
// endpoint and spill directory, and — for the party daemons — the
// pinned dial to the tally wrapped in engine.ReconnectLoop. A
// command keeps only what is its own: its role, its default name, its
// extra flags and the function that serves a session.
package daemon

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/spill"
	"repro/internal/wire"
)

// Flags is the flag set all four daemons share: -netem shapes their
// connections, -metrics-addr and -spill-dir their operation.
type Flags struct {
	netemSpec, metricsAddr, spillDir *string
}

// CommonFlags registers the shared flags on the command line.
// netemScope completes the -netem help text with what the profile
// shapes ("the tally connection" for a party, "every connection" for
// the tally); spillHelp is the -spill-dir help text, and an empty one
// omits the flag (a share keeper spills nothing).
func CommonFlags(netemScope, spillHelp string) *Flags {
	f := &Flags{
		metricsAddr: flag.String("metrics-addr", "", "serve the ops metrics registry over HTTP at this address (empty: disabled)"),
		netemSpec:   flag.String("netem", "", "WAN emulation profile shaping "+netemScope+" (lan, wan-good, wan-tor, or key=value spec; empty: none)"),
	}
	if spillHelp != "" {
		f.spillDir = flag.String("spill-dir", "", spillHelp)
	}
	return f
}

// Start applies the parsed flags: it points the process at its spill
// directory, serves the metrics registry if asked (announcing the
// bound address as "<prefix>: metrics on http://<addr>/metrics"), and
// returns the options every connection of the daemon is built with.
func (f *Flags) Start(prefix string) ([]wire.Option, error) {
	if f.spillDir != nil && *f.spillDir != "" {
		spill.SetDir(*f.spillDir)
	}
	var opts []wire.Option
	p, err := netem.ParseProfile(*f.netemSpec)
	if err != nil {
		return nil, err
	}
	if p != nil {
		opts = append(opts, netem.WireOption(*p))
	}
	if *f.metricsAddr != "" {
		addr, _, err := metrics.Serve(*f.metricsAddr, metrics.Default())
		if err != nil {
			return nil, err
		}
		fmt.Printf("%s: metrics on http://%s/metrics\n", prefix, addr)
	}
	return opts, nil
}

// Spec is what distinguishes one party daemon's command line from
// another's.
type Spec struct {
	// Prog is the command name; with the party name it prefixes every
	// line the daemon prints or logs.
	Prog string
	// Role is the engine role the daemon registers as.
	Role string
	// DefaultName and NameHelp describe the -name flag.
	DefaultName, NameHelp string
	// ReconnectHelp is the -reconnect help text.
	ReconnectHelp string
	// SpillHelp is the -spill-dir help text; empty omits the flag.
	SpillHelp string
}

// Party is a daemon that keeps one pinned, multiplexed session to the
// tally: -tally, -name, -id, -token, -pin, -timeout and -reconnect on
// top of the common Flags.
type Party struct {
	prog, role                  string
	tally, name, id, token, pin *string
	timeout                     *time.Duration
	reconnect                   *int
	common                      *Flags
}

// PartyFlags registers a party daemon's flags on the command line; the
// command adds its own and calls flag.Parse.
func PartyFlags(spec Spec) *Party {
	return &Party{
		prog:      spec.Prog,
		role:      spec.Role,
		tally:     flag.String("tally", "127.0.0.1:7001", "tally server address"),
		name:      flag.String("name", spec.DefaultName, spec.NameHelp),
		id:        flag.String("id", "", "pinned party identity (empty: the name)"),
		token:     flag.String("token", "", "registration token binding the identity across reconnects (required to rejoin)"),
		pin:       flag.String("pin", "", "tally SPKI fingerprint (hex) for TLS pinning; empty for plain TCP"),
		timeout:   flag.Duration("timeout", 10*time.Second, "dial timeout"),
		reconnect: flag.Int("reconnect", 8, spec.ReconnectHelp),
		common:    CommonFlags("the tally connection", spec.SpillHelp),
	}
}

// Name is the party name (-name).
func (p *Party) Name() string { return *p.name }

// Timeout is the dial timeout (-timeout).
func (p *Party) Timeout() time.Duration { return *p.timeout }

// Prefix is "<prog> <name>", the start of every line the daemon prints.
func (p *Party) Prefix() string { return p.prog + " " + *p.name }

// Hello is the registration the party presents to the tally.
func (p *Party) Hello() engine.Hello {
	return engine.Hello{Role: p.role, Name: *p.name, ID: *p.id, Token: *p.token}
}

// Start applies the parsed flags (see Flags.Start) and the TLS pin,
// and returns the function that dials one fresh session to the tally,
// announcing each connection it makes.
func (p *Party) Start() (dial func() (*wire.Session, error), err error) {
	connOpts, err := p.common.Start(p.Prefix())
	if err != nil {
		return nil, err
	}
	tlsCfg, err := wire.ClientTLSPin(*p.pin)
	if err != nil {
		return nil, err
	}
	return func() (*wire.Session, error) {
		conn, err := wire.Dial(*p.tally, tlsCfg, *p.timeout, connOpts...)
		if err != nil {
			return nil, err
		}
		fmt.Printf("%s: connected to %s\n", p.Prefix(), *p.tally)
		return wire.NewSession(conn, true), nil
	}, nil
}

// Loop serves sessions from dial until the tally hangs up, redialing
// under engine.ReconnectLoop with the -reconnect bound and the
// daemon's log prefix.
func (p *Party) Loop(dial func() (*wire.Session, error), serve func(*wire.Session) error) error {
	return engine.ReconnectLoop(dial, serve, *p.reconnect, func(format string, args ...any) {
		log.Printf(p.Prefix()+": "+format, args...)
	})
}

// Main is the whole main of a party daemon whose only job is serving
// rounds: Start, then Loop over serve, announcing the final hang-up
// and exiting non-zero on any error.
func (p *Party) Main(serve func(sess *wire.Session, hello engine.Hello) error) {
	dial, err := p.Start()
	if err != nil {
		log.Fatalf("%s: %v", p.Prefix(), err)
	}
	err = p.Loop(dial, func(sess *wire.Session) error { return serve(sess, p.Hello()) })
	if err != nil {
		log.Fatalf("%s: %v", p.Prefix(), err)
	}
	fmt.Printf("%s: session closed by tally\n", p.Prefix())
}
