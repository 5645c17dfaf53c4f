package engine

import (
	"errors"
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

// ServeCP registers a computation party under its pinned identity via
// the acked hello exchange — a token mismatch surfaces as an immediate
// error instead of a dead session — and serves PSC rounds until the
// session closes. It returns the session's terminal error.
func ServeCP(sess *wire.Session, h Hello, noise *dp.NoiseSource) error {
	h.Role = RoleCP
	if _, err := SendHelloPinned(sess, h); err != nil {
		return err
	}
	cp := psc.NewCP(h.Name, nil, noise)
	return ServeRounds(sess, func(st *wire.Stream) error {
		if st.Label() != LabelPSC {
			st.Reset("psc-cp: unexpected stream " + st.Label())
			return nil
		}
		return cp.ServeRound(st)
	})
}

// ServeSK registers a share keeper under its pinned identity and serves
// PrivCount rounds until the session closes. The SK value may be reused
// across reconnects so the seal keypair survives session churn (nil
// creates a fresh one).
func ServeSK(sess *wire.Session, h Hello, sk *privcount.SK) error {
	h.Role = RoleSK
	if _, err := SendHelloPinned(sess, h); err != nil {
		return err
	}
	if sk == nil {
		var err error
		if sk, err = privcount.NewSK(h.Name, nil); err != nil {
			return err
		}
	}
	return ServeRounds(sess, func(st *wire.Stream) error {
		if st.Label() != LabelPrivCount {
			st.Reset("sharekeeper: unexpected stream " + st.Label())
			return nil
		}
		return sk.ServeRound(st)
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
// It returns when the session dies. Data-collector hosts use this
// directly with handlers that create per-round DCs.
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
