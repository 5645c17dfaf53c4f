package engine

import (
	"crypto/subtle"
	"fmt"
	"time"

	"repro/internal/wire"
)

// Party registry: the engine's identity-pinned membership table, as the
// package documentation's "Party churn" describes it.

// PartyState describes one registered party's liveness.
type PartyState int

const (
	// StateConnected: the party has a live session.
	StateConnected PartyState = iota
	// StateDisconnected: the party's session died; a rejoin under the
	// pinned identity reconnects it.
	StateDisconnected
)

// member is one registry entry. The identity (role, name, token) is
// pinned at first registration; the session and generation change on
// every rejoin. gen guards against stale disconnect notifications: a
// watcher for session generation g must not mark generation g+1
// disconnected.
type member struct {
	role  string
	name  string
	token string

	sess  *wire.Session
	gen   uint64
	state PartyState

	// rejoinCh closes when the member reconnects; waiters grab the
	// current channel under the engine lock and re-check state after it
	// fires. It is replaced with a fresh channel on every rejoin.
	rejoinCh chan struct{}
}

// regKey builds the registry key: identities are pinned per role, so a
// data collector cannot rejoin as a computation party, and a name is
// unique within its role.
func regKey(role, name string) string { return role + "/" + name }

// register adds a new party or rebinds an existing identity to a fresh
// session (a rejoin). Two live sessions claiming the same identity
// resolve latest-wins: the newer session becomes the member's session
// and the older one is closed. Rejoining requires a token: an identity
// pinned without one stays bound to its first session and every rejoin
// attempt is refused, because with an empty token any peer that knows a
// party's name could hijack its session. Token comparison is
// constant-time. A registration whose token does not match the pinned
// token is rejected.
func (e *Engine) register(h Hello, sess *wire.Session) (rejoined bool, err error) {
	var stale *wire.Session
	e.mu.Lock()
	reg := e.reg
	m, ok := e.registry[regKey(h.Role, h.Name)]
	if ok {
		if m.token == "" {
			e.mu.Unlock()
			reg.Inc("engine/parties-rejected")
			return false, fmt.Errorf("engine: %s %q registered without a token and cannot rejoin; set -token to make the identity rejoin-capable", h.Role, h.Name)
		}
		if subtle.ConstantTimeCompare([]byte(m.token), []byte(h.Token)) != 1 {
			e.mu.Unlock()
			reg.Inc("engine/parties-rejected")
			return false, fmt.Errorf("engine: %s %q: registration token does not match pinned identity", h.Role, h.Name)
		}
		if m.sess != sess {
			stale = m.sess
		}
		m.sess = sess
		m.gen++
		m.state = StateConnected
		close(m.rejoinCh)
		m.rejoinCh = make(chan struct{})
		rejoined = true
	} else {
		m = &member{
			role: h.Role, name: h.Name, token: h.Token,
			sess: sess, state: StateConnected,
			rejoinCh: make(chan struct{}),
		}
		e.registry[regKey(h.Role, h.Name)] = m
		e.members[h.Role] = append(e.members[h.Role], m)
	}
	gen := m.gen
	e.bumpMembership()
	e.mu.Unlock()

	if rejoined {
		reg.Inc("engine/parties-rejoined")
	}
	if stale != nil && stale != sess {
		stale.Close()
	}
	go e.watch(m, sess, gen)
	return rejoined, nil
}

// watch marks the member disconnected when its current session dies.
// The generation check makes a watcher of an old session harmless after
// a rejoin has already installed a newer one.
func (e *Engine) watch(m *member, sess *wire.Session, gen uint64) {
	<-sess.Done()
	e.mu.Lock()
	if m.gen == gen && m.state == StateConnected {
		m.state = StateDisconnected
		reg := e.reg
		e.mu.Unlock()
		reg.Inc("engine/parties-disconnected")
		return
	}
	e.mu.Unlock()
}

// bumpMembership wakes WaitParties waiters. Caller holds e.mu.
func (e *Engine) bumpMembership() {
	close(e.membership)
	e.membership = make(chan struct{})
}

// WaitParties blocks until at least the given number of parties of each
// role have registered (in any state), or the timeout elapses (zero
// means wait forever). The tally daemon uses it to gate scheduling on
// fleet assembly while the accept loop keeps running for rejoins.
func (e *Engine) WaitParties(cps, sks, dcs int, timeout time.Duration) error {
	var deadline <-chan time.Time
	if timeout > 0 {
		deadline = time.After(timeout)
	}
	for {
		e.mu.Lock()
		ok := len(e.members[RoleCP]) >= cps && len(e.members[RoleSK]) >= sks && len(e.members[RoleDC]) >= dcs
		ch := e.membership
		e.mu.Unlock()
		if ok {
			return nil
		}
		select {
		case <-ch:
		case <-deadline:
			c, s, d := e.Counts()
			return fmt.Errorf("engine: fleet incomplete after %v: have %d CPs, %d SKs, %d DCs; want %d, %d, %d",
				timeout, c, s, d, cps, sks, dcs)
		}
	}
}

// SetRejoinGrace sets how long a round waits for a disconnected party
// to re-register before declaring it absent and degrading. Zero (the
// default) disables waiting: a dropped party is declared absent
// immediately, and only an already-rejoined session can replace it.
func (e *Engine) SetRejoinGrace(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.grace = d
}

// reopenFor tries to restore a round's link to a party whose stream
// failed: if the member has a live session (it already rejoined, or only
// the stream — not the session — died), a fresh round stream is opened
// on it; otherwise it waits up to the rejoin grace window for the party
// to re-register. It returns nil once the window closes or the round
// is cancelled, and opens nothing on a cancelled round; the caller then
// declares the party absent.
func (e *Engine) reopenFor(r *Round, m *member) *wire.Stream {
	e.mu.Lock()
	grace := e.grace
	e.mu.Unlock()
	var deadline <-chan time.Time
	if grace > 0 {
		deadline = time.After(grace)
	}
	tried := make(map[uint64]bool) // session generations already tried
	for {
		e.mu.Lock()
		state, sess, gen, ch := m.state, m.sess, m.gen, m.rejoinCh
		e.mu.Unlock()
		if state == StateConnected && !tried[gen] && r.ctx.Err() == nil {
			tried[gen] = true
			if st, err := sess.Open(r.ID, r.Label); err == nil {
				if r.addStream(st) {
					return st
				}
				st.Reset("round already finished")
				return nil
			}
			// The session is actually dead; fall through and wait for the
			// watcher to notice or the party to rejoin.
		}
		if grace <= 0 {
			return nil
		}
		select {
		case <-ch:
		case <-deadline:
			return nil
		case <-r.ctx.Done():
			return nil
		}
	}
}

// failedMessenger stands in for a party whose round stream could not be
// opened (its session was already dead at scheduling time). Every
// operation reports the open failure, so the tally's per-party recovery
// path handles a dead-at-start DC exactly like one that dies mid-round.
type failedMessenger struct{ err error }

func (f failedMessenger) Send(string, any) error     { return f.err }
func (f failedMessenger) SendFrame(wire.Frame) error { return f.err }
func (f failedMessenger) Recv() (wire.Frame, error)  { return wire.Frame{}, f.err }
func (f failedMessenger) Expect(string, any) error   { return f.err }
func (f failedMessenger) Close() error               { return nil }
