package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dp"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/wire"
)

// Party-side serve loops: each accepts round streams off a persistent
// session and serves them concurrently. Long-term key material (a CP's
// ElGamal share, an SK's seal keypair) lives in the party value and
// spans every round of the session, the way the deployed daemons hold
// one key across a whole measurement study.

// ServeCP registers a computation party under its pinned identity and
// serves PSC rounds until the session closes. It returns the session's
// terminal error.
func ServeCP(sess *wire.Session, h Hello, noise *dp.NoiseSource) error {
	cp := psc.NewCP(h.Name, nil, noise)
	return serveParty(sess, h, RoleCP, map[string]func(*wire.Stream) error{
		LabelPSC: func(st *wire.Stream) error { return cp.ServeRound(st) },
	}, nil)
}

// ServeSK registers a share keeper under its pinned identity and serves
// PrivCount rounds until the session closes. The SK value may be reused
// across reconnects so the seal keypair survives session churn (nil
// creates a fresh one).
func ServeSK(sess *wire.Session, h Hello, sk *privcount.SK) error {
	if sk == nil {
		var err error
		if sk, err = privcount.NewSK(h.Name, nil); err != nil {
			return err
		}
	}
	return serveParty(sess, h, RoleSK, map[string]func(*wire.Stream) error{
		LabelPrivCount: func(st *wire.Stream) error { return sk.ServeRound(st) },
	}, nil)
}

// DCRound is a set-up data-collector role as ServeDC hands it to its
// host. Exactly one of PSC and PrivCount is set.
type DCRound struct {
	Round     uint64
	PSC       *psc.DC
	PrivCount *privcount.DC
}

// Label is the round's stream label: LabelPSC or LabelPrivCount.
func (r DCRound) Label() string {
	if r.PSC != nil {
		return LabelPSC
	}
	return LabelPrivCount
}

// DCHost is what a data-collector host plugs into ServeDC.
type DCHost struct {
	// Noise returns a PrivCount round's noise source; nil means crypto/rand.
	Noise func(round uint64) *dp.NoiseSource
	// Collect feeds the DC until collection ends, returning promptly once
	// failed (the stream's Failed) closes; an error fails the round.
	Collect func(r DCRound, failed <-chan struct{}) error
	// Served, if set, gets each round's outcome: nil once the tally has
	// closed the stream after the upload, else what ended the round.
	Served func(round uint64, err error)
}

// ServeDC registers a data collector under its pinned identity and
// serves PSC and PrivCount rounds until the session closes. Per round it
// builds the DC, runs Setup, Collect and — unless the round failed —
// Finish, then waits for the tally to close the stream: exiting earlier
// would reset chunks the tally has not yet read.
func ServeDC(sess *wire.Session, h Hello, host DCHost) error {
	return serveParty(sess, h, RoleDC, map[string]func(*wire.Stream) error{
		LabelPSC: func(st *wire.Stream) error {
			dc := psc.NewDC(h.Name, st)
			return host.serveRound(st, DCRound{Round: st.Round(), PSC: dc}, dc.Setup, dc.Finish)
		},
		LabelPrivCount: func(st *wire.Stream) error {
			var noise *dp.NoiseSource
			if host.Noise != nil {
				noise = host.Noise(st.Round())
			}
			dc := privcount.NewDC(h.Name, st, noise)
			return host.serveRound(st, DCRound{Round: st.Round(), PrivCount: dc}, dc.Setup, dc.Finish)
		},
	}, host.Served)
}

// serveRound runs one DC round to the end of its stream: the tally
// closing it is success, a reset or a dead session the round's error.
func (host DCHost) serveRound(st *wire.Stream, r DCRound, setup, finish func() error) error {
	if err := setup(); err != nil {
		return err
	}
	if err := host.Collect(r, st.Failed()); err != nil {
		return err
	}
	select {
	case <-st.Failed(): // nothing to upload; the drain reads why
	default:
		if err := finish(); err != nil {
			return err
		}
		st.Close()
	}
	for {
		if _, err := st.Recv(); err != nil {
			select {
			case <-st.Failed():
				return err
			default:
				return nil
			}
		}
	}
}

// serveParty is the skeleton under every Serve*: the acked hello (a
// token mismatch is an immediate error, not a dead session), then each
// round stream to the handler for its label, or reset with a reason
// naming the party. served, if set, gets every round's outcome.
func serveParty(sess *wire.Session, h Hello, role string, handlers map[string]func(*wire.Stream) error, served func(round uint64, err error)) error {
	h.Role = role
	if _, err := SendHelloPinned(sess, h); err != nil {
		return err
	}
	return ServeRounds(sess, func(st *wire.Stream) error {
		var err error
		if handle, ok := handlers[st.Label()]; ok {
			err = handle(st)
		} else {
			err = fmt.Errorf("%s %s: unexpected stream %q", role, h.Name, st.Label())
		}
		if served != nil {
			served(st.Round(), err)
		}
		return err
	})
}

// ReconnectLoop is the party-daemon churn loop, mirroring torctl's
// relay-side reconnect on the party→tally edge: it dials a fresh
// session and serves it until the session dies, then redials with
// exponential backoff (250ms doubling to 5s). The engine's registry
// rebinds the re-registered identity, so rounds scheduled after the
// rejoin run at full strength. It returns nil when serve reports
// wire.ErrClosed (the tally hung up deliberately), the serve error when
// it wraps ErrRejected (retrying a refused identity cannot succeed),
// and the last error once maxAttempts consecutive failed cycles burn
// out. A session that survived five seconds resets the failure budget.
func ReconnectLoop(dial func() (*wire.Session, error), serve func(*wire.Session) error, maxAttempts int, logf func(string, ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	const baseBackoff, maxBackoff = 250 * time.Millisecond, 5 * time.Second
	backoff := baseBackoff
	attempts := 0
	for {
		sess, err := dial()
		if err == nil {
			start := time.Now()
			err = serve(sess)
			sess.Close()
			if err == nil || errors.Is(err, wire.ErrClosed) {
				return nil
			}
			if errors.Is(err, ErrRejected) {
				return err
			}
			if time.Since(start) >= 5*time.Second {
				attempts, backoff = 0, baseBackoff
			}
		}
		attempts++
		if attempts > maxAttempts {
			return err
		}
		logf("reconnecting in %v after: %v", backoff, err)
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// ServeRounds accepts round streams and dispatches each to handle in
// its own goroutine; a handler error resets only that round's stream.
// It returns when the session dies. ServeCP, ServeSK and ServeDC run
// on it; a host that builds its parties by hand can too.
func ServeRounds(sess *wire.Session, handle func(st *wire.Stream) error) error {
	for {
		st, err := sess.Accept()
		if err != nil {
			return err
		}
		go func(st *wire.Stream) {
			if err := handle(st); err != nil {
				// The tally sees the reason; sibling rounds are untouched.
				st.Reset(err.Error())
				return
			}
			st.Close()
		}(st)
	}
}
