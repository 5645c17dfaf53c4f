package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dp"
	"repro/internal/metrics"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/wire"
)

// SetMetrics redirects the engine's counters to reg, so a test reads
// its own engine's counts and not the process-wide registry's.
func (e *Engine) SetMetrics(reg *metrics.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reg = reg
}

// dcHello is test DC i's pinned identity, with a token so it can rejoin.
func dcHello(i int) Hello {
	return Hello{Role: RoleDC, Name: fmt.Sprintf("dc-%d", i), Token: fmt.Sprintf("secret-%d", i)}
}

// join joins h to f, failing the test if it is refused, and returns the
// party's session.
func join(t *testing.T, f *Fleet, h Hello) *wire.Session {
	t.Helper()
	sess, err := f.Join(h)
	if err != nil {
		t.Fatalf("join %s %s: %v", h.Role, h.Name, err)
	}
	return sess
}

// startFleet joins cp-i, sk-i and dcHello(i) parties to a fleet drawing
// DC noise from noise, and closes it with the test. It returns the DCs'
// sessions: closing one kills that DC, as a SIGKILL would.
func startFleet(t *testing.T, noise func(string, uint64) *dp.NoiseSource, numCPs, numSKs, numDCs int) (*Fleet, []*wire.Session) {
	t.Helper()
	f := NewFleet(noise)
	t.Cleanup(f.Close)
	for i := 0; i < numCPs; i++ {
		join(t, f, Hello{Role: RoleCP, Name: fmt.Sprintf("cp-%d", i)})
	}
	for i := 0; i < numSKs; i++ {
		join(t, f, Hello{Role: RoleSK, Name: fmt.Sprintf("sk-%d", i)})
	}
	dcs := make([]*wire.Session, numDCs)
	for i := range dcs {
		dcs[i] = join(t, f, dcHello(i))
	}
	return f, dcs
}

// collect waits for n of r's DC roles, failing the test if r ends
// first.
func collect(t *testing.T, f *Fleet, r *Round, n int) []DCDelivery {
	t.Helper()
	dcs, err := f.DCs(r, n)
	if err != nil {
		t.Fatalf("round %d failed during setup: %v", r.ID, err)
	}
	return dcs
}

// outcome waits for ServeDC's report of the round's outcome.
func (d DCDelivery) outcome(t *testing.T) error {
	t.Helper()
	select {
	case err := <-d.served:
		return err
	case <-time.After(2 * time.Minute):
		t.Fatalf("round %d on %s never reported", d.Round, d.Name)
		return nil
	}
}

// TestConcurrentPSCAndPrivCountRounds runs the acceptance scenario: a
// 2048-bin PSC round and a PrivCount round at the same time, with each
// data-collector host carrying both rounds over its one multiplexed
// connection, and verifies both produce correct results.
func TestConcurrentPSCAndPrivCountRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("full concurrent rounds skipped in -short mode")
	}
	e, _ := startFleet(t, nil, 2, 2, 2)

	pscRound, err := e.StartPSC(psc.Config{
		Bins: 2048, NoisePerCP: 0, ShuffleProofRounds: 1, NumDCs: 2, NumCPs: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	privRound, err := e.StartPrivCount(privcount.TallyConfig{
		Stats:  []privcount.StatConfig{{Name: "streams", Bins: []string{"a", "b"}, Sigma: 0}},
		NumDCs: 2, NumSKs: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pscRound.ID == privRound.ID {
		t.Fatalf("rounds share an ID: %d", pscRound.ID)
	}

	// Both rounds' DC roles arrive interleaved over the same sessions.
	var pscDCs []*psc.DC
	var privDCs []*privcount.DC
	all := append(collect(t, e, pscRound, 2), collect(t, e, privRound, 2)...)
	for _, r := range all {
		if r.PSC != nil {
			pscDCs = append(pscDCs, r.PSC)
		} else {
			privDCs = append(privDCs, r.PrivCount)
		}
	}
	if len(pscDCs) != 2 || len(privDCs) != 2 {
		t.Fatalf("got %d PSC and %d PrivCount DC roles", len(pscDCs), len(privDCs))
	}

	// Feed both measurements, then let every host finish its DC.
	for i, dc := range pscDCs {
		for k := 0; k < 40; k++ {
			dc.Observe(fmt.Sprintf("client-%d", k+i*20)) // 20 overlap across DCs
		}
	}
	for _, dc := range privDCs {
		dc.Increment("streams", 0, 10)
		dc.Increment("streams", 1, 2)
	}
	for _, r := range all {
		r.Release()
	}

	pscRes, err := pscRound.WaitPSC()
	if err != nil {
		t.Fatalf("psc round: %v", err)
	}
	// 60 distinct items in 2048 bins, no noise: collisions are rare but
	// possible, so allow a small deficit.
	if pscRes.Reported < 55 || pscRes.Reported > 60 {
		t.Fatalf("psc reported %d, want ~60", pscRes.Reported)
	}
	privRes, err := privRound.WaitPrivCount()
	if err != nil {
		t.Fatalf("privcount round: %v", err)
	}
	if got := privRes["streams"][0]; got != 20 {
		t.Fatalf("streams/a = %v, want 20", got)
	}
	if got := privRes["streams"][1]; got != 4 {
		t.Fatalf("streams/b = %v, want 4", got)
	}
	for _, r := range all {
		if err := r.outcome(t); err != nil {
			t.Fatalf("%s finish: %v", r.Label(), err)
		}
	}
}

// TestAccountantRefusesOverBudgetRounds wires a budget-capped
// accountant into the engine: rounds within budget schedule, the round
// that would exceed (ε,δ) is refused with a clear error, and no
// streams are opened for it.
func TestAccountantRefusesOverBudgetRounds(t *testing.T) {
	e, _ := startFleet(t, nil, 2, 1, 2)
	acct := dp.StudyAccountant()
	per := dp.StudyParams()
	if err := acct.SetBudget(dp.Params{Epsilon: 2 * per.Epsilon, Delta: 2 * per.Delta}); err != nil {
		t.Fatal(err)
	}
	e.SetAccountant(acct)

	small := psc.Config{Bins: 64, NoisePerCP: 2, ShuffleProofRounds: 1, NumDCs: 2, NumCPs: 2}
	// A config the tally refuses is turned away before the accountant is
	// asked (start builds the tally, then authorizes): it spends nothing.
	unverified := small
	unverified.ShuffleProofRounds = 0
	if _, err := e.StartPSC(unverified, nil); err == nil || !strings.Contains(err.Error(), "ShuffleProofRounds") {
		t.Fatalf("zero proof rounds: StartPSC error = %v, want psc.Config.Validate's", err)
	}
	if got := acct.Rounds(); got != 0 {
		t.Fatalf("refused config charged the accountant: %d rounds recorded", got)
	}
	var done []*Round
	for i := 0; i < 2; i++ {
		r, err := e.StartPSC(small, nil)
		if err != nil {
			t.Fatalf("round %d within budget refused: %v", i+1, err)
		}
		done = append(done, r)
	}
	// The third round would spend 3×(ε,δ) against a 2× budget.
	if _, err := e.StartPSC(small, nil); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("over-budget round error = %v, want ErrBudgetExhausted", err)
	}
	if got := acct.Rounds(); got != 2 {
		t.Fatalf("accountant recorded %d rounds, want 2", got)
	}
	// The admitted rounds still run to completion.
	dcs := append(collect(t, e, done[0], 2), collect(t, e, done[1], 2)...)
	for _, r := range dcs {
		r.PSC.Observe("item")
		r.Release()
	}
	for _, r := range done {
		if _, err := r.WaitPSC(); err != nil {
			t.Fatalf("in-budget round failed: %v", err)
		}
	}
	for _, r := range dcs {
		if err := r.outcome(t); err != nil {
			t.Fatalf("finish: %v", err)
		}
	}
}

// TestRoundDeadlineAbortsStalledRound starts a round whose DCs never
// finish; the round deadline must cancel it automatically,
// leaving the sessions healthy for the next round.
func TestRoundDeadlineAbortsStalledRound(t *testing.T) {
	e, _ := startFleet(t, nil, 2, 1, 2)
	reg := metrics.NewRegistry()
	e.SetMetrics(reg)
	// Long enough for the DCs to attach even on a loaded 1-vCPU CI
	// runner, short enough to keep the test quick.
	e.SetRoundDeadline(2 * time.Second)

	small := psc.Config{Bins: 64, NoisePerCP: 2, ShuffleProofRounds: 1, NumDCs: 2, NumCPs: 2}
	stalled, err := e.StartPSC(small, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The DCs attach but never Observe/Finish: the round stalls.
	stalledDCs := collect(t, e, stalled, 2)
	_, err = stalled.WaitPSC()
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("stalled round error = %v, want a deadline abort", err)
	}
	for _, r := range stalledDCs {
		if err := r.outcome(t); err == nil {
			t.Fatal("a DC of the stalled round reported success")
		}
	}
	if got := reg.Get("engine/" + LabelPSC + "/rounds-deadline-exceeded"); got != 1 {
		t.Errorf("deadline-exceeded counter = %g, want 1", got)
	}
	if got := reg.Get("engine/" + LabelPSC + "/rounds-failed"); got != 1 {
		t.Errorf("rounds-failed counter = %g, want 1", got)
	}

	// A prompt round on the same sessions completes well within a fresh
	// deadline.
	e.SetRoundDeadline(2 * time.Minute)
	quick, err := e.StartPSC(small, nil)
	if err != nil {
		t.Fatal(err)
	}
	quickDCs := collect(t, e, quick, 2)
	for _, r := range quickDCs {
		r.PSC.Observe("item")
		r.Release()
	}
	if _, err := quick.WaitPSC(); err != nil {
		t.Fatalf("post-deadline round failed: %v", err)
	}
	for _, r := range quickDCs {
		if err := r.outcome(t); err != nil {
			t.Fatalf("finish: %v", err)
		}
	}
	st := quick.Stats()
	if st.Seconds <= 0 || st.BytesSent <= 0 || st.BytesRecv <= 0 {
		t.Errorf("round stats not recorded: %+v", st)
	}
	if got := reg.Get("engine/" + LabelPSC + "/rounds-completed"); got != 1 {
		t.Errorf("rounds-completed counter = %g, want 1", got)
	}
	if got := reg.Get("engine/" + LabelPSC + "/stream-bytes-sent"); got <= 0 {
		t.Errorf("stream-bytes-sent = %g, want > 0", got)
	}
}

// TestRoundFailureIsolation aborts one round mid-flight while a sibling
// round shares the same party sessions, then schedules another round:
// the abort must neither kill the sessions nor the sibling.
func TestRoundFailureIsolation(t *testing.T) {
	e, _ := startFleet(t, nil, 2, 1, 2)

	small := psc.Config{Bins: 64, NoisePerCP: 2, ShuffleProofRounds: 1, NumDCs: 2, NumCPs: 2}
	doomed, err := e.StartPSC(small, nil)
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := e.StartPSC(small, nil)
	if err != nil {
		t.Fatal(err)
	}

	var doomedDCs, survivorDCs []DCDelivery
	for _, r := range append(collect(t, e, doomed, 2), collect(t, e, survivor, 2)...) {
		if r.Round == doomed.ID {
			doomedDCs = append(doomedDCs, r)
		} else {
			survivorDCs = append(survivorDCs, r)
		}
	}
	if len(doomedDCs) != 2 || len(survivorDCs) != 2 {
		t.Fatalf("round assignment: %d doomed, %d survivor", len(doomedDCs), len(survivorDCs))
	}

	doomed.Abort("operator cancelled")
	if _, err := doomed.WaitPSC(); err == nil || !strings.Contains(err.Error(), "operator cancelled") {
		t.Fatalf("doomed round error = %v, want the abort reason", err)
	}
	// The abort unblocks the hosts' Collect without a release, and
	// Finish never runs.
	for _, r := range doomedDCs {
		if err := r.outcome(t); err == nil || !strings.Contains(err.Error(), "operator cancelled") {
			t.Fatalf("doomed DC outcome = %v, want the abort reason", err)
		}
	}

	// The sibling completes on the same sessions.
	for i, r := range survivorDCs {
		r.PSC.Observe(fmt.Sprintf("item-%d", i))
		r.Release()
	}
	if _, err := survivor.WaitPSC(); err != nil {
		t.Fatalf("survivor round: %v", err)
	}
	for _, r := range survivorDCs {
		if err := r.outcome(t); err != nil {
			t.Fatalf("survivor finish: %v", err)
		}
	}

	// And the engine schedules fresh rounds afterwards.
	again, err := e.StartPSC(small, nil)
	if err != nil {
		t.Fatal(err)
	}
	againDCs := collect(t, e, again, 2)
	for _, r := range againDCs {
		r.Release()
	}
	if _, err := again.WaitPSC(); err != nil {
		t.Fatalf("post-abort round: %v", err)
	}
	for _, r := range againDCs {
		if err := r.outcome(t); err != nil {
			t.Fatalf("post-abort finish: %v", err)
		}
	}
}

// TestBudgetRefundedWhenOpenFails: a round that passes admission but
// cannot open its streams (dead session) must not consume budget.
func TestBudgetRefundedWhenOpenFails(t *testing.T) {
	e := New()
	acct := dp.StudyAccountant()
	if err := acct.SetBudget(dp.StudyParams()); err != nil { // one round only
		t.Fatal(err)
	}
	e.SetAccountant(acct)

	// Register both parties through the handshake, then kill their
	// sessions before scheduling: stream-open must fail.
	for _, h := range []Hello{{Role: RoleCP, Name: "cp-dead"}, {Role: RoleDC, Name: "dc-dead"}} {
		tsConn, partyConn := wire.Pipe()
		ts, party := wire.NewSession(tsConn, false), wire.NewSession(partyConn, true)
		go SendHelloPinned(party, h)
		if _, err := e.AcceptSession(ts); err != nil {
			t.Fatalf("accept %s: %v", h.Name, err)
		}
		party.Close()
		ts.Close()
	}

	small := psc.Config{Bins: 64, NoisePerCP: 2, ShuffleProofRounds: 1, NumDCs: 1, NumCPs: 1}
	if _, err := e.StartPSC(small, nil); err == nil {
		t.Fatal("StartPSC over dead sessions succeeded")
	} else if errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("open failure surfaced as a budget refusal: %v", err)
	}
	if got := acct.Rounds(); got != 0 {
		t.Fatalf("failed round consumed budget: %d rounds recorded", got)
	}
}

// TestRoundOutcomeClaimedOnce drives the claim in finish from both
// sides on rounds built by newRound over real streams. A cancellation
// that precedes finish owns the outcome even though the tally reported
// success: the round's error is the cause and its streams are reset. A
// finish that precedes the cancellation owns it the other way: the
// round succeeded, its streams are closed and a late Abort resets
// nothing. Either way exactly one outcome is counted.
func TestRoundOutcomeClaimedOnce(t *testing.T) {
	build := func(t *testing.T) (r *Round, reg *metrics.Registry, ts, party *wire.Session, pst *wire.Stream) {
		e := New()
		reg = metrics.NewRegistry()
		e.SetMetrics(reg)
		tsConn, partyConn := wire.Pipe()
		ts, party = wire.NewSession(tsConn, false), wire.NewSession(partyConn, true)
		t.Cleanup(func() { ts.Close(); party.Close() })
		r = e.newRound(LabelPSC, nil)
		st, err := ts.Open(r.ID, r.Label)
		if err != nil {
			t.Fatal(err)
		}
		if !r.addStream(st) {
			t.Fatal("a live round refused its stream")
		}
		if pst, err = party.Accept(); err != nil {
			t.Fatal(err)
		}
		return r, reg, ts, party, pst
	}
	outcomes := func(reg *metrics.Registry) (completed, failed float64) {
		return reg.Get("engine/" + LabelPSC + "/rounds-completed"), reg.Get("engine/" + LabelPSC + "/rounds-failed")
	}

	t.Run("cancel-then-finish", func(t *testing.T) {
		r, reg, _, _, pst := build(t)
		r.Abort("operator cancelled")
		r.finish(nil)
		<-r.Done()
		if err := r.Err(); err == nil || err.Error() != "operator cancelled" {
			t.Fatalf("round error = %v, want the cancellation cause", err)
		}
		select {
		case <-pst.Failed():
		case <-time.After(30 * time.Second):
			t.Fatal("the cancelled round's stream was never reset")
		}
		if _, err := pst.Recv(); err == nil || !strings.Contains(err.Error(), "operator cancelled") {
			t.Fatalf("party stream error = %v, want the reset to carry the cause", err)
		}
		if c, f := outcomes(reg); c != 0 || f != 1 {
			t.Fatalf("rounds-completed %g, rounds-failed %g; want 0, 1", c, f)
		}
	})

	t.Run("finish-then-abort", func(t *testing.T) {
		r, reg, ts, party, pst := build(t)
		r.finish(nil)
		r.Abort("too late")
		<-r.Done()
		if err := r.Err(); err != nil {
			t.Fatalf("round error = %v after a claimed success", err)
		}
		if _, err := pst.Recv(); !errors.Is(err, wire.ErrClosed) {
			t.Fatalf("party stream error = %v, want a clean close", err)
		}
		// Frames are ordered on the session: once a stream opened after
		// the Abort has arrived, a reset sent because of it would have too.
		if _, err := ts.Open(r.ID+1, "marker"); err != nil {
			t.Fatal(err)
		}
		if _, err := party.Accept(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-pst.Failed():
			t.Fatal("Abort after a claimed success reset the round's stream")
		default:
		}
		if c, f := outcomes(reg); c != 1 || f != 0 {
			t.Fatalf("rounds-completed %g, rounds-failed %g; want 1, 0", c, f)
		}
	})
}
