package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dp"
	"repro/internal/wire"
)

// Fleet is a whole deployment in one process: an Engine and the parties
// that join it, each over an in-memory pipe and one persistent session
// served by ServeCP, ServeSK or ServeDC — the handshake and round loops
// the daemons run over TCP. Its data collectors hand each round's DC to
// whoever drives the round (DCs), which feeds it and then releases it.
type Fleet struct {
	*Engine
	opts  []wire.Option
	noise func(dc string, round uint64) *dp.NoiseSource

	// parties counts the running Serve* loops; Close waits for them.
	parties sync.WaitGroup
	// rounds maps a round ID to its DC hand-off channel.
	rounds sync.Map
}

// DCDelivery is one data collector's role in one round, set up and
// collecting until Release. Name is the DC's pinned name.
type DCDelivery struct {
	DCRound
	Name    string
	release chan struct{}
	served  chan error // ServeDC's outcome of the round (DCHost.Served)
}

// Release ends the DC's collection, and it finishes its round. Call it
// once.
func (d DCDelivery) Release() { close(d.release) }

// NewFleet returns a fleet with no parties yet, whose connections take
// opts (netem shaping, say). noise, if set, gives a DC's PrivCount round
// its noise source by DC name and round; nil leaves it to crypto/rand.
func NewFleet(noise func(dc string, round uint64) *dp.NoiseSource, opts ...wire.Option) *Fleet {
	return &Fleet{Engine: New(), opts: opts, noise: noise}
}

// Join connects a party over a fresh pipe and registers it through the
// hello handshake, serving h.Role in the background with ServeCP,
// ServeSK or ServeDC; the engine refuses any other role. It returns the
// party's session: closing it is how the party dies, and joining again
// with the same Hello is how it rejoins.
func (f *Fleet) Join(h Hello) (*wire.Session, error) {
	return f.attach(func(s *wire.Session) error {
		switch h.Role {
		case RoleCP:
			return ServeCP(s, h, nil)
		case RoleSK:
			return ServeSK(s, h, nil)
		case RoleDC:
			return ServeDC(s, h, f.dcHost(h.Name))
		}
		_, err := SendHelloPinned(s, h)
		return err
	})
}

// attach connects one party: serve runs its side in the background
// while the engine side completes the hello handshake.
func (f *Fleet) attach(serve func(*wire.Session) error) (*wire.Session, error) {
	tsConn, partyConn := wire.Pipe(f.opts...)
	ts, party := wire.NewSession(tsConn, false), wire.NewSession(partyConn, true)
	f.parties.Add(1)
	go func() {
		defer f.parties.Done()
		serve(party)
	}()
	if _, err := f.AcceptSession(ts); err != nil {
		ts.Close() // and with it the party's
		return nil, err
	}
	return party, nil
}

// dcHost is the DCHost of one joined DC: it hands each round's DC to
// DCs, collects until the delivery is released or the round fails, and
// reports ServeDC's outcome on the delivery.
func (f *Fleet) dcHost(name string) DCHost {
	var served sync.Map // round -> the collecting delivery's served
	host := DCHost{
		Collect: func(r DCRound, failed <-chan struct{}) error {
			d := DCDelivery{DCRound: r, Name: name, release: make(chan struct{}), served: make(chan error, 1)}
			served.Store(r.Round, d.served)
			select {
			case f.deliveries(r.Round) <- d:
				select {
				case <-d.release:
				case <-failed:
				}
			case <-failed:
			}
			return nil
		},
		Served: func(round uint64, err error) {
			if ch, ok := served.LoadAndDelete(round); ok {
				ch.(chan error) <- err
			}
		},
	}
	if f.noise != nil {
		host.Noise = func(round uint64) *dp.NoiseSource { return f.noise(name, round) }
	}
	return host
}

// deliveries returns a round's DC hand-off channel, made by whichever of
// a DC and the caller of DCs touches the round first. Its buffer lets a
// round's DCs set up before DCs is called, not only one at a time.
func (f *Fleet) deliveries(round uint64) chan DCDelivery {
	ch, _ := f.rounds.LoadOrStore(round, make(chan DCDelivery, 64))
	return ch.(chan DCDelivery)
}

// DCs waits for n of round r's data collectors to be set up and returns
// them in the order they arrived, or r's error if it ends first. A
// later call takes further DCs of r, such as one that rejoined it.
func (f *Fleet) DCs(r *Round, n int) ([]DCDelivery, error) {
	ch := f.deliveries(r.ID)
	context.AfterFunc(r.ctx, func() { f.rounds.Delete(r.ID) })
	out := make([]DCDelivery, 0, n)
	for len(out) < n {
		select {
		case d := <-ch:
			out = append(out, d)
		case <-r.Done():
			err := r.Err()
			if err == nil {
				err = fmt.Errorf("engine: round %d ended with %d of %d DCs set up", r.ID, len(out), n)
			}
			return nil, err
		}
	}
	return out, nil
}

// Close closes the engine's sessions, and with them the parties', then
// waits for every party's Serve* to return.
func (f *Fleet) Close() {
	f.Engine.Close()
	f.parties.Wait()
}
