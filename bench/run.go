package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/torctl"
)

// roundSample is what the driver measures around one round, from
// outside the program.
type roundSample struct {
	roundS float64 // Start* call → Wait* return; ingest: last event applied → both results
	applyS float64 // first input event issued → last applied
	events int
	// rate is the round's events per second: over the whole round on
	// the protocol workloads (events ÷ roundS), over the replay on ingest
	// (events ÷ applyS), where roundS is only the closing tail.
	rate float64
	// batchRates is events per second inside each DC's Observe /
	// Increment batch: the DC hot path alone, for the per-layer figures.
	batchRates []float64
	wireMB     float64 // engine.Round.Stats() bytes sent + received
	startMs    float64 // duration of the Start* call(s)

	traced     bool
	dispatchNs float64 // ingest, traced only: mean time inside dispatch
}

// runner drives one workload's rounds over one fleet from a single
// goroutine: closed loop, one round (or one PSC+PrivCount pair) in
// flight.
type runner struct {
	w   *workload
	in  *inputs
	f   *fleet
	orc *oracle
	out string // scratch directory (cookie file)
}

// round runs one round and checks its result. An error means the round
// could not be driven to an outcome and the fleet must be torn down.
func (r *runner) round(tr *tracer) (s roundSample, err error) {
	// Party streams accepted from here on are recorded iff tr is set.
	r.f.tr.Store(tr)
	switch {
	case r.w.PSC != nil:
		s, err = r.pscRound(tr)
	case r.w.Priv != nil:
		s, err = r.privRound(tr)
	default:
		s, err = r.ingestRound(tr)
	}
	s.traced = tr != nil
	return s, err
}

func (r *runner) pscConfig(bins, noise int) psc.Config {
	// Deployment defaults: 8 proof rounds, default block, passes and
	// chunk sizes.
	return psc.Config{Bins: bins, NoisePerCP: noise, ShuffleProofRounds: 8, NumDCs: r.w.DCs, NumCPs: r.w.CPs}
}

// warm runs one minimal round of each protocol the fleet serves, with
// no input, so that lazy set-up (fixed-base tables for the fleet's
// joint key, gob type caches, first-use allocations) is paid before
// the timed rounds and shows in setup_s instead.
func (r *runner) warm() error {
	var starts []func() (*engine.Round, error)
	if r.w.CPs > 0 {
		starts = append(starts, func() (*engine.Round, error) { return r.f.eng.StartPSC(r.pscConfig(64, 8), nil) })
	}
	if r.w.SKs > 0 {
		cfg := privcount.TallyConfig{Stats: fig1Stats(1), NumDCs: r.w.DCs, NumSKs: r.w.SKs}
		starts = append(starts, func() (*engine.Round, error) { return r.f.eng.StartPrivCount(cfg, nil) })
	}
	for _, start := range starts {
		rd, err := start()
		if err != nil {
			return err
		}
		hs, err := r.f.collect(r.w.DCs, rd)
		if err != nil {
			return err
		}
		release(hs)
		<-rd.Done()
		if err := rd.Err(); err != nil {
			return err
		}
	}
	return nil
}

// roundSpans is the driver's span bookkeeping for one round; every
// method is a no-op on an untraced round (nil tracer).
type roundSpans struct {
	tr    *tracer
	root  int
	round uint64 // the first engine round ID adopted
}

func beginRound(tr *tracer, at time.Time) *roundSpans {
	if tr == nil {
		return &roundSpans{}
	}
	return &roundSpans{tr: tr, root: tr.begin(span{Name: "round", Party: "driver"}, at)}
}

// adopt makes the root span the parent of everything recorded under
// the engine round ID.
func (sp *roundSpans) adopt(round uint64) {
	if sp.tr != nil {
		sp.tr.setRound(sp.root, round)
		if sp.round == 0 {
			sp.round = round
		}
	}
}

func (sp *roundSpans) child(name string, start, end time.Time) {
	if sp.tr != nil {
		sp.tr.add(span{Parent: sp.root, Name: name, Party: "driver", Round: sp.round}, start, end)
	}
}

func (sp *roundSpans) end(at time.Time) {
	if sp.tr != nil {
		sp.tr.end(sp.root, at)
	}
}

// release lets the DCs go from collecting to Finish.
func release(hs []*dcHandle) {
	for _, h := range hs {
		close(h.release)
	}
}

func wireMB(rounds ...*engine.Round) float64 {
	var b int64
	for _, r := range rounds {
		st := r.Stats()
		b += st.BytesSent + st.BytesRecv
	}
	return float64(b) / 1e6
}

// protoRound drives one single-protocol round: start it, wait for
// every DC's Setup, apply each DC's batch of events from this
// goroutine, release the DCs into Finish, and wait for the result
// (wait also holds it to the oracle).
func (r *runner) protoRound(tr *tracer, start func() (*engine.Round, error), batch func(*dcHandle) int, wait func(*engine.Round) error) (roundSample, error) {
	var s roundSample
	t0 := time.Now()
	sp := beginRound(tr, t0)
	rd, err := start()
	if err != nil {
		return s, fmt.Errorf("start round: %w", err)
	}
	t1 := time.Now()
	sp.adopt(rd.ID)
	sp.child("start", t0, t1)
	hs, err := r.f.collect(r.w.DCs, rd)
	if err != nil {
		return s, err
	}
	t2 := time.Now()
	applied := 0
	for _, h := range hs {
		b0 := time.Now()
		n := batch(h)
		s.batchRates = append(s.batchRates, float64(n)/time.Since(b0).Seconds())
		applied += n
	}
	t3 := time.Now()
	sp.child("apply", t2, t3)
	release(hs)
	err = wait(rd)
	t4 := time.Now()
	sp.child("wait", t3, t4)
	sp.end(t4)
	s.events = r.in.events()
	r.orc.events(s.events, applied)
	s.roundS, s.applyS, s.startMs = t4.Sub(t0).Seconds(), t3.Sub(t2).Seconds(), t1.Sub(t0).Seconds()*1e3
	s.rate = float64(applied) / s.roundS
	s.wireMB = wireMB(rd)
	return s, err
}

func (r *runner) pscRound(tr *tracer) (roundSample, error) {
	l := r.w.PSC
	return r.protoRound(tr,
		func() (*engine.Round, error) { return r.f.eng.StartPSC(r.pscConfig(l.Bins, l.NoisePerCP), nil) },
		func(h *dcHandle) (n int) {
			for _, item := range r.in.observes[h.idx] {
				if h.psc.Observe(item) == nil {
					n++
				}
			}
			return n
		},
		func(rd *engine.Round) error {
			res, err := rd.WaitPSC()
			if r.orc.round(rd, err) {
				r.orc.pscResult(res, r.in.distinct)
			}
			return err
		})
}

func (r *runner) privConfig() privcount.TallyConfig {
	return privcount.TallyConfig{Stats: r.in.stats, NumDCs: r.w.DCs, NumSKs: r.w.SKs}
}

func (r *runner) privRound(tr *tracer) (roundSample, error) {
	return r.protoRound(tr,
		func() (*engine.Round, error) { return r.f.eng.StartPrivCount(r.privConfig(), nil) },
		func(h *dcHandle) (n int) {
			for _, inc := range r.in.incs[h.idx] {
				if h.priv.Increment(r.in.statNames[inc>>16], int(inc&0xffff), 1) == nil {
					n++
				}
			}
			return n
		},
		func(rd *engine.Round) error {
			res, err := rd.WaitPrivCount()
			if r.orc.round(rd, err) {
				r.orc.privResult(rd.ID, res, r.in.stats, r.in.tally)
			}
			return err
		})
}

// ingestRound replays the trace from a mock relay over one control
// connection into one live PSC round and one live PrivCount round,
// then closes both.
func (r *runner) ingestRound(tr *tracer) (roundSample, error) {
	var s roundSample
	l := r.w.Ingest

	cookie, err := torctl.GenerateCookie()
	if err != nil {
		return s, err
	}
	cookiePath := filepath.Join(r.out, "control_auth_cookie")
	if err := os.WriteFile(cookiePath, cookie, 0o600); err != nil {
		return s, err
	}
	relay, err := torctl.NewMockRelay(torctl.MockConfig{Cookie: cookie, CookiePath: cookiePath})
	if err != nil {
		return s, err
	}
	defer relay.Close()
	for _, ev := range r.in.trace {
		relay.Feed(ev)
	}
	relay.End()
	addr, err := relay.Listen("127.0.0.1:0")
	if err != nil {
		return s, err
	}

	t0 := time.Now()
	sp := beginRound(tr, t0)
	rp, err := r.f.eng.StartPSC(r.pscConfig(l.PSCBins, 64), nil)
	if err != nil {
		return s, fmt.Errorf("start psc: %w", err)
	}
	rv, err := r.f.eng.StartPrivCount(r.privConfig(), nil)
	if err != nil {
		rp.Abort("privcount round did not start")
		return s, fmt.Errorf("start privcount: %w", err)
	}
	sp.adopt(rp.ID)
	sp.adopt(rv.ID)
	t1 := time.Now()
	sp.child("start", t0, t1)
	hs, err := r.f.collect(2*r.w.DCs, rp, rv)
	if err != nil {
		return s, err
	}
	var pscDCs []*psc.DC
	var privDCs []*privcount.DC
	for _, h := range hs {
		if h.psc != nil {
			pscDCs = append(pscDCs, h.psc)
		} else {
			privDCs = append(privDCs, h.priv)
		}
	}

	src, err := torctl.DialSource(torctl.Config{Addr: addr.String(), CookiePath: cookiePath, MaxDialFailures: 1},
		torctl.LineParser{})
	if err != nil {
		return s, fmt.Errorf("control port: %w", err)
	}
	t3 := time.Now()
	applied := 0
	var inDispatch time.Duration
	for ev := range src.Events() {
		if tr != nil {
			d0 := time.Now()
			dispatch(ev, pscDCs, privDCs)
			inDispatch += time.Since(d0)
		} else {
			dispatch(ev, pscDCs, privDCs)
		}
		applied++
	}
	t4 := time.Now()
	sp.child("apply", t3, t4)
	parsed, skipped := src.Stats()
	srcErr, reconnects := src.Err(), src.Reconnects()
	src.Close()

	release(hs)
	pres, perr := rp.WaitPSC()
	vres, verr := rv.WaitPrivCount()
	t5 := time.Now()
	sp.child("wait", t4, t5)
	sp.end(t5)

	s.events = len(r.in.trace)
	r.orc.events(s.events, applied)
	if srcErr != nil || int(parsed) != s.events || skipped != 0 || reconnects != 0 {
		r.orc.failf("ingest: source err=%v parsed=%d of %d skipped=%d reconnects=%d", srcErr, parsed, s.events, skipped, reconnects)
	}
	if r.orc.round(rp, perr) {
		r.orc.pscResult(pres, r.in.distinct)
	}
	if r.orc.round(rv, verr) {
		r.orc.privResult(rv.ID, vres, r.in.stats, r.in.tally)
	}
	s.applyS, s.roundS = t4.Sub(t3).Seconds(), t5.Sub(t4).Seconds()
	s.rate = float64(applied) / s.applyS
	s.startMs = t1.Sub(t0).Seconds() * 1e3
	if applied > 0 {
		s.dispatchNs = float64(inDispatch.Nanoseconds()) / float64(applied)
	}
	s.wireMB = wireMB(rp, rv)
	if perr != nil {
		return s, perr
	}
	return s, verr
}

// dispatch mirrors cmd/datacollector: connection events feed the PSC
// rounds' unique-client tables, stream events the Figure 1 counters.
func dispatch(ev event.Event, pscDCs []*psc.DC, privDCs []*privcount.DC) {
	switch e := ev.(type) {
	case *event.ConnectionEnd:
		for _, dc := range pscDCs {
			_ = dc.Observe(e.ClientIP.String()) // fails only before Setup
		}
	case *event.StreamEnd:
		for _, dc := range privDCs {
			fig1(e, func(stat string, bin int) { _ = dc.Increment(stat, bin, 1) }) // schema is fig1Stats
		}
	}
}

// section is the timed part of a run: rounds back to back for the
// requested duration, with process-wide CPU and allocation deltas.
type section struct {
	rounds []roundSample
	wallS  float64
	cpuS   float64 // user+sys CPU of the process (getrusage)
	allocB uint64  // runtime.MemStats.TotalAlloc delta
	gcMs   float64 // GC stop-the-world pause total
	err    error
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measure runs rounds until another would overrun d (always at least
// minRounds); tracerFor says which rounds are traced (nil: none). A
// round that cannot be driven ends the section.
func (r *runner) measure(d time.Duration, minRounds int, tracerFor func(i int) *tracer) section {
	var sec section
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuSeconds(), time.Now()
	for {
		rt0 := time.Now()
		var tr *tracer
		if tracerFor != nil {
			tr = tracerFor(len(sec.rounds))
		}
		s, err := r.round(tr)
		if err != nil {
			sec.err = err
			break
		}
		sec.rounds = append(sec.rounds, s)
		last := time.Since(rt0)
		if len(sec.rounds) >= minRounds && time.Since(t0)+last > d {
			break
		}
	}
	sec.wallS, sec.cpuS = time.Since(t0).Seconds(), cpuSeconds()-c0
	runtime.ReadMemStats(&m1)
	sec.allocB = m1.TotalAlloc - m0.TotalAlloc
	sec.gcMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	return sec
}

// median returns the middle of xs (mean of the two middles), 0 if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// batchRates gathers every round's per-batch event rates.
func batchRates(rounds []roundSample) []float64 {
	var out []float64
	for _, s := range rounds {
		out = append(out, s.batchRates...)
	}
	return out
}

func pick(rounds []roundSample, f func(roundSample) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, s := range rounds {
		out[i] = f(s)
	}
	return out
}
