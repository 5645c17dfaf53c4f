package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/netem"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/wire"
)

// fleet is the whole deployment in one process, assembled through the
// public API only: a tally-side engine, and CP, SK and DC parties each
// holding one persistent multiplexed session to it, the way the
// daemons in cmd/ do.
type fleet struct {
	eng *engine.Engine

	ln       *wire.Listener
	mu       sync.Mutex
	sessions []*wire.Session
	parties  sync.WaitGroup

	// ready delivers each DC's per-round handle once its Setup
	// returned; the driver applies the load and releases it.
	ready chan *dcHandle
	// tr is consulted when a round stream is accepted: non-nil wraps
	// the stream in a recording messenger.
	tr atomic.Pointer[tracer]

	helloMs []float64 // one SendHelloPinned duration per party

	statMu     sync.Mutex
	windowPeak int64 // max receive window seen on any party stream
	decreases  int64 // AIMD backoffs summed over party streams
}

// dcHandle is one data collector's role in one round, handed to the
// driver between Setup and Finish.
type dcHandle struct {
	idx     int
	psc     *psc.DC
	priv    *privcount.DC
	release chan struct{}
}

const fleetTimeout = 60 * time.Second

// newFleet assembles and registers the fleet of w.
func newFleet(w *workload, in *inputs) (*fleet, error) {
	f := &fleet{eng: engine.New(), ready: make(chan *dcHandle, 2*w.DCs)}
	// A round that wedges fails on this deadline instead of hanging the
	// run; the slowest round here takes about 8 s.
	f.eng.SetRoundDeadline(fleetTimeout)
	opts := []wire.Option{wire.WithAdaptiveWindow(0)}
	if in.profile != nil {
		opts = append(opts, netem.WireOption(*in.profile))
	}
	// attach returns the party end of a fresh connection whose tally
	// end is being registered with the engine.
	var attach func() (*wire.Session, error)
	if w.TLS {
		id, err := wire.GenerateIdentity("tally", 24*time.Hour)
		if err != nil {
			return nil, err
		}
		ln, err := wire.Listen("127.0.0.1:0", id.ServerTLS(), opts...)
		if err != nil {
			return nil, err
		}
		f.ln = &ln
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return // listener closed with the fleet
				}
				go f.accept(wire.NewSession(c, false))
			}
		}()
		tlsCfg := wire.ClientTLS(id.SPKI())
		attach = func() (*wire.Session, error) {
			c, err := wire.Dial(ln.Addr().String(), tlsCfg, 10*time.Second, opts...)
			if err != nil {
				return nil, err
			}
			return wire.NewSession(c, true), nil
		}
	} else {
		attach = func() (*wire.Session, error) {
			ts, party := wire.Pipe(opts...)
			go f.accept(wire.NewSession(ts, false))
			return wire.NewSession(party, true), nil
		}
	}

	errs := make(chan error, w.CPs+w.SKs+w.DCs)
	join := func(role, name string, serve func(st *wire.Stream, m wire.Messenger) error) {
		f.parties.Add(1)
		go func() {
			defer f.parties.Done()
			sess, err := attach()
			if err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
				return
			}
			f.track(sess)
			t0 := time.Now()
			_, err = engine.SendHelloPinned(sess, engine.Hello{Role: role, Name: name, Token: "bench-" + name})
			if err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
				return
			}
			f.statMu.Lock()
			f.helloMs = append(f.helloMs, time.Since(t0).Seconds()*1e3)
			f.statMu.Unlock()
			errs <- nil
			// Returns when the session closes with the fleet.
			_ = engine.ServeRounds(sess, func(st *wire.Stream) error {
				return f.serveStream(name, st, serve)
			})
		}()
	}
	for i := 0; i < w.CPs; i++ {
		cp := psc.NewCP(fmt.Sprintf("cp-%d", i), nil, nil)
		join(engine.RoleCP, cp.Name, func(_ *wire.Stream, m wire.Messenger) error { return cp.ServeRound(m) })
	}
	for i := 0; i < w.SKs; i++ {
		sk, err := privcount.NewSK(fmt.Sprintf("sk-%d", i), nil)
		if err != nil {
			return nil, err
		}
		join(engine.RoleSK, sk.Name, func(_ *wire.Stream, m wire.Messenger) error { return sk.ServeRound(m) })
	}
	for i := 0; i < w.DCs; i++ {
		i, name := i, fmt.Sprintf("dc-%d", i)
		join(engine.RoleDC, name, func(st *wire.Stream, m wire.Messenger) error { return f.serveDC(i, name, st, m) })
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			f.close()
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}
	if err := f.eng.WaitParties(w.CPs, w.SKs, w.DCs, fleetTimeout); err != nil {
		f.close()
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return f, nil
}

func (f *fleet) track(s *wire.Session) {
	f.mu.Lock()
	f.sessions = append(f.sessions, s)
	f.mu.Unlock()
}

func (f *fleet) accept(sess *wire.Session) {
	f.track(sess)
	if _, err := f.eng.AcceptSession(sess); err != nil {
		sess.Close()
	}
}

// serveStream runs one party's side of one round, wrapped in a
// recording messenger when the run is traced.
func (f *fleet) serveStream(party string, st *wire.Stream, serve func(*wire.Stream, wire.Messenger) error) error {
	var m wire.Messenger = st
	tr := f.tr.Load()
	var id int
	if tr != nil {
		id = tr.begin(span{Parent: parentOfRound, Name: "party", Party: party, Round: st.Round()}, time.Now())
		m = &recMessenger{inner: st, tr: tr, parent: id, party: party, round: st.Round()}
	}
	err := serve(st, m)
	if tr != nil {
		tr.end(id, time.Now())
	}
	ss := st.Stats()
	f.statMu.Lock()
	if ss.RecvWindow > f.windowPeak {
		f.windowPeak = ss.RecvWindow
	}
	f.decreases += ss.Decreases
	f.statMu.Unlock()
	return err
}

// serveDC mirrors cmd/datacollector's round server: Setup, collect
// until told to stop, Finish. Collection is the driver applying the
// workload's events through the handle.
func (f *fleet) serveDC(idx int, name string, st *wire.Stream, m wire.Messenger) error {
	h := &dcHandle{idx: idx, release: make(chan struct{})}
	var setup, finish func() error
	switch st.Label() {
	case engine.LabelPSC:
		h.psc = psc.NewDC(name, m)
		setup, finish = h.psc.Setup, h.psc.Finish
	case engine.LabelPrivCount:
		h.priv = privcount.NewDC(name, m, nil)
		setup, finish = h.priv.Setup, h.priv.Finish
	default:
		return fmt.Errorf("%s: unexpected stream %q", name, st.Label())
	}
	tr := f.tr.Load()
	proto, _, _ := strings.Cut(st.Label(), "/") // "psc" or "privcount"
	timed := func(what string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		if tr != nil {
			tr.add(span{Parent: parentOfRound, Name: proto + " " + what, Party: name, Round: st.Round()}, t0, time.Now())
		}
		return err
	}
	if err := timed("dc-setup", setup); err != nil {
		return err
	}
	f.ready <- h
	select {
	case <-h.release:
	case <-st.Failed():
		return errors.New("round failed while collecting")
	}
	return timed("dc-finish", finish)
}

// collect waits for n DC handles of the given one or two rounds,
// giving up when a round ends first (a failed round resets its
// streams, so its DCs never become ready).
func (f *fleet) collect(n int, rounds ...*engine.Round) ([]*dcHandle, error) {
	ended := func(r *engine.Round) error {
		return fmt.Errorf("round %d ended during setup: %v", r.ID, r.Err())
	}
	out := make([]*dcHandle, 0, n)
	timeout := time.After(fleetTimeout)
	for len(out) < n {
		select {
		case h := <-f.ready:
			out = append(out, h)
		case <-timeout:
			return nil, fmt.Errorf("only %d of %d data collectors became ready", len(out), n)
		case <-rounds[0].Done():
			return nil, ended(rounds[0])
		case <-rounds[len(rounds)-1].Done():
			return nil, ended(rounds[len(rounds)-1])
		}
	}
	return out, nil
}

// close tears the fleet down: every session on both ends, then the
// listener, then it waits for the party goroutines. Closing all
// sessions is also what un-wedges parties blocked on a failed round.
func (f *fleet) close() {
	f.eng.Close()
	if f.ln != nil {
		f.ln.Close()
	}
	f.mu.Lock()
	sessions := f.sessions
	f.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
	f.parties.Wait()
}
