package engine

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/wire"
)

var smallPSC = psc.Config{Bins: 64, NoisePerCP: 2, ShuffleProofRounds: 1, NumCPs: 2, NumDCs: 2}

// withMinDCs is cfg with a DC quorum floor of k.
func withMinDCs(cfg psc.Config, k int) psc.Config {
	cfg.MinDCs = k
	return cfg
}

// TestRejoinWrongTokenRejected: a session claiming a registered
// identity with the wrong token must be rejected with an explicit ack,
// and the pinned member must keep its original session.
func TestRejoinWrongTokenRejected(t *testing.T) {
	e, _ := startFleet(t, nil, 2, 0, 2)

	tsConn, partyConn := wire.Pipe()
	ts := wire.NewSession(tsConn, false)
	party := wire.NewSession(partyConn, true)
	go e.AcceptSession(ts)
	_, err := SendHelloPinned(party, Hello{Role: RoleDC, Name: "dc-0", Token: "stolen"})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("hijack registration error = %v, want ErrRejected", err)
	}
	if _, _, got := e.Counts(); got != 2 {
		t.Fatalf("registry has %d DCs after rejected hijack, want 2", got)
	}

	// The legitimate fleet is untouched: a round over it completes.
	r, err := e.StartPSC(smallPSC, nil)
	if err != nil {
		t.Fatal(err)
	}
	roles := collect(t, e, r, 2)
	for _, d := range roles {
		d.PSC.Observe("item")
		d.Release()
	}
	if _, err := r.WaitPSC(); err != nil {
		t.Fatalf("round after rejected hijack: %v", err)
	}
	for _, d := range roles {
		if err := d.outcome(t); err != nil {
			t.Fatalf("finish: %v", err)
		}
	}
}

// TestRejoinLatestWins: two live sessions claiming the same pinned
// identity resolve latest-wins — the newer session serves, the older
// one is closed by the engine.
func TestRejoinLatestWins(t *testing.T) {
	e, dcs := startFleet(t, nil, 2, 0, 2)

	old := dcs[1]
	join(t, e, dcHello(1)) // second incarnation registers while the first is still live
	select {
	case <-old.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("old session not closed after latest-wins takeover")
	}
	if cps, _, dcCount := e.Counts(); cps != 2 || dcCount != 2 {
		t.Fatalf("counts after takeover: %d CPs, %d DCs; want 2, 2", cps, dcCount)
	}

	// Rounds reach the new incarnation.
	r, err := e.StartPSC(smallPSC, nil)
	if err != nil {
		t.Fatal(err)
	}
	roles := collect(t, e, r, 2)
	for _, d := range roles {
		d.Release()
	}
	if _, err := r.WaitPSC(); err != nil {
		t.Fatalf("round after takeover: %v", err)
	}
	for _, d := range roles {
		if err := d.outcome(t); err != nil {
			t.Fatalf("finish: %v", err)
		}
	}
}

// TestMidRoundKillDegradesThenFullStrength is the tentpole scenario at
// the engine level: a DC's session dies mid-round after its table
// upload began; under a k-of-n quorum the round completes degraded with
// the absence annotated, and — once the DC re-registers under its
// pinned identity — the next round runs at full strength.
func TestMidRoundKillDegradesThenFullStrength(t *testing.T) {
	e, dcs := startFleet(t, nil, 2, 0, 2)
	reg := metrics.NewRegistry()
	e.SetMetrics(reg)

	r, err := e.StartPSC(withMinDCs(smallPSC, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	roles := collect(t, e, r, 2)
	var survivor DCDelivery
	for _, d := range roles {
		if d.PSC.Name == "dc-1" {
			// Feed the doomed DC and begin its upload so its contribution
			// barrier is passed, then kill it mid-round.
			d.PSC.Observe("doomed-item")
		} else {
			survivor = d
		}
	}
	dcs[1].Close()
	survivor.PSC.Observe("item-a")
	survivor.PSC.Observe("item-b")
	survivor.Release()
	if _, err := r.WaitPSC(); err != nil {
		t.Fatalf("degraded round failed: %v", err)
	}
	if err := survivor.outcome(t); err != nil {
		t.Fatalf("survivor finish: %v", err)
	}
	if got := r.Absent(); len(got) != 1 || got[0] != "dc-1" {
		t.Fatalf("round Absent() = %v, want [dc-1]", got)
	}
	if !r.Degraded() {
		t.Fatal("round not marked degraded")
	}
	if got := reg.Get("engine/" + LabelPSC + "/rounds-degraded"); got != 1 {
		t.Errorf("rounds-degraded = %g, want 1", got)
	}
	if got := reg.Get("engine/" + LabelPSC + "/rounds-completed"); got != 1 {
		t.Errorf("rounds-completed = %g, want 1", got)
	}

	// The DC restarts and re-registers under its pinned identity.
	dcs[1] = join(t, e, dcHello(1))
	full, err := e.StartPSC(withMinDCs(smallPSC, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	fullRoles := collect(t, e, full, 2)
	for _, d := range fullRoles {
		d.PSC.Observe("fresh-item")
		d.Release()
	}
	if _, err := full.WaitPSC(); err != nil {
		t.Fatalf("full-strength round failed: %v", err)
	}
	for _, d := range fullRoles {
		if err := d.outcome(t); err != nil {
			t.Fatalf("full-strength finish: %v", err)
		}
	}
	if got := full.Absent(); len(got) != 0 || full.Degraded() {
		t.Fatalf("post-rejoin round degraded: absent %v", got)
	}
	if got := reg.Get("engine/parties-rejoined"); got != 1 {
		t.Errorf("parties-rejoined = %g, want 1", got)
	}
	if got := reg.Get("engine/parties-disconnected"); got != 1 {
		t.Errorf("parties-disconnected = %g, want 1", got)
	}
}

// TestRejoinResumesRoundBeforeBarrier: a DC killed before its table
// upload starts rejoins within the grace window, and the engine reopens
// the in-flight round's stream on the new session — the round completes
// at full strength, no degradation.
func TestRejoinResumesRoundBeforeBarrier(t *testing.T) {
	e, dcs := startFleet(t, nil, 2, 0, 2)
	reg := metrics.NewRegistry()
	e.SetMetrics(reg)
	e.SetRejoinGrace(time.Minute)

	r, err := e.StartPSC(withMinDCs(smallPSC, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	roles := collect(t, e, r, 2)
	dcs[1].Close() // before any Finish: no table chunk combined yet
	join(t, e, dcHello(1))

	// The reopened stream delivers a fresh DC role for the same round.
	fresh := collect(t, e, r, 1)[0]
	if fresh.Round != r.ID {
		t.Fatalf("unexpected round %d delivery", fresh.Round)
	}
	// The first incarnation's dc-1 role died with its session; the
	// others upload.
	live := []DCDelivery{fresh}
	for _, d := range roles {
		if d.PSC.Name != "dc-1" {
			live = append(live, d)
		}
	}
	for _, d := range live {
		d.PSC.Observe("item-" + d.PSC.Name)
		d.Release()
	}
	if _, err := r.WaitPSC(); err != nil {
		t.Fatalf("resumed round failed: %v", err)
	}
	for _, d := range live {
		if err := d.outcome(t); err != nil {
			t.Fatalf("finish %s: %v", d.PSC.Name, err)
		}
	}
	if got := r.Absent(); len(got) != 0 {
		t.Fatalf("resumed round degraded: absent %v", got)
	}
	if got := reg.Get("engine/" + LabelPSC + "/parties-reattached"); got != 1 {
		t.Errorf("parties-reattached = %g, want 1", got)
	}
}

// TestGraceExpiryDegradesExactlyOnce drills the double-abort race: a
// dead DC plus a round deadline must resolve to exactly one outcome —
// degraded completion when the grace window expires first, or a single
// deadline failure when the deadline wins — never both.
func TestGraceExpiryDegradesExactlyOnce(t *testing.T) {
	// Grace far shorter than the deadline: degradation wins.
	e, dcs := startFleet(t, nil, 2, 0, 2)
	reg := metrics.NewRegistry()
	e.SetMetrics(reg)
	e.SetRejoinGrace(100 * time.Millisecond)
	e.SetRoundDeadline(2 * time.Minute)

	r, err := e.StartPSC(withMinDCs(smallPSC, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	roles := collect(t, e, r, 2)
	dcs[1].Close() // never restarted: the grace window expires
	for _, d := range roles {
		if d.PSC.Name != "dc-1" {
			d.PSC.Observe("item")
			d.Release()
		}
	}
	if _, err := r.WaitPSC(); err != nil {
		t.Fatalf("degraded round failed: %v", err)
	}
	for _, d := range roles {
		if err := d.outcome(t); d.PSC.Name != "dc-1" && err != nil {
			t.Fatalf("finish: %v", err)
		}
	}
	if got := reg.Get("engine/" + LabelPSC + "/rounds-degraded"); got != 1 {
		t.Errorf("rounds-degraded = %g, want exactly 1", got)
	}
	if got := reg.Get("engine/"+LabelPSC+"/rounds-completed") + reg.Get("engine/"+LabelPSC+"/rounds-failed"); got != 1 {
		t.Errorf("rounds-completed+failed = %g, want exactly 1 outcome", got)
	}

	// Deadline far shorter than the grace window: the deadline wins and
	// the round fails exactly once, with no degradation recorded.
	e2, dcs2 := startFleet(t, nil, 2, 0, 2)
	reg2 := metrics.NewRegistry()
	e2.SetMetrics(reg2)
	e2.SetRejoinGrace(2 * time.Minute)
	e2.SetRoundDeadline(2 * time.Second)

	r2, err := e2.StartPSC(withMinDCs(smallPSC, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	collect(t, e2, r2, 2)
	dcs2[1].Close()
	_, err = r2.WaitPSC()
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("deadline-vs-grace round error = %v, want deadline abort", err)
	}
	if got := reg2.Get("engine/" + LabelPSC + "/rounds-degraded"); got != 0 {
		t.Errorf("rounds-degraded = %g after deadline abort, want 0", got)
	}
	if got := reg2.Get("engine/" + LabelPSC + "/rounds-failed"); got != 1 {
		t.Errorf("rounds-failed = %g, want exactly 1", got)
	}
	if got := reg2.Get("engine/" + LabelPSC + "/rounds-deadline-exceeded"); got != 1 {
		t.Errorf("rounds-deadline-exceeded = %g, want exactly 1", got)
	}
}

// TestQuorumLostAborts: when more DCs die than the quorum floor
// tolerates, the round must fail with a quorum error rather than
// report a result over too little coverage.
func TestQuorumLostAborts(t *testing.T) {
	e, dcs := startFleet(t, nil, 2, 0, 2)

	r, err := e.StartPSC(withMinDCs(smallPSC, 2), nil) // both DCs required
	if err != nil {
		t.Fatal(err)
	}
	roles := collect(t, e, r, 2)
	dcs[0].Close()
	dcs[1].Close()
	_, err = r.WaitPSC()
	if err == nil || !strings.Contains(err.Error(), "quorum lost") {
		t.Fatalf("round with zero DCs: got %v, want a quorum-lost failure", err)
	}
	for _, d := range roles {
		if err := d.outcome(t); err == nil {
			t.Fatalf("%s served a round whose session died", d.PSC.Name)
		}
	}
}

// TestCallerMinDCsHonoured: the MinDCs a caller puts in a round's
// config is the round's quorum floor, with no engine setting over it.
// Over two DCs with MinDCs 1, a DC killed past its contribution barrier
// leaves a degraded success naming it, for either protocol.
func TestCallerMinDCsHonoured(t *testing.T) {
	for _, proto := range []string{"psc", "privcount"} {
		t.Run(proto, func(t *testing.T) {
			e, dcs := startFleet(t, nil, 1, 1, 2)
			var r *Round
			var err error
			if proto == "psc" {
				cfg := withMinDCs(smallPSC, 1)
				cfg.NumCPs = 1
				r, err = e.StartPSC(cfg, nil)
			} else {
				r, err = e.StartPrivCount(privcount.TallyConfig{
					Stats:  []privcount.StatConfig{{Name: "streams", Bins: []string{"a"}, Sigma: 0}},
					NumDCs: 2, NumSKs: 1, MinDCs: 1,
				}, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			// Collect runs once a DC's setup is over: a PrivCount DC has
			// had its begin, so its shares are in the SKs' hands.
			roles := collect(t, e, r, 2)
			dcs[1].Close()
			var survivor DCDelivery
			for _, d := range roles {
				if d.Name == "dc-0" {
					survivor = d
				}
			}
			if proto == "psc" {
				survivor.PSC.Observe("item")
			} else {
				survivor.PrivCount.Increment("streams", 0, 5)
			}
			survivor.Release()
			if proto == "psc" {
				_, err = r.WaitPSC()
			} else {
				var res map[string][]float64
				res, err = r.WaitPrivCount()
				if err == nil && res["streams"][0] != 5 {
					t.Errorf("streams/a = %v, want the survivor's 5", res["streams"][0])
				}
			}
			if err != nil {
				t.Fatalf("round under MinDCs 1 failed: %v", err)
			}
			if got := r.Absent(); len(got) != 1 || got[0] != "dc-1" || !r.Degraded() {
				t.Fatalf("round Absent() = %v (degraded %v), want [dc-1]", got, r.Degraded())
			}
			if err := survivor.outcome(t); err != nil {
				t.Fatalf("survivor finish: %v", err)
			}
		})
	}
}

// TestRejoinWithoutTokenRejected: an identity pinned without a token is
// not rejoin-capable. A second session claiming it — presenting the
// trivially "matching" empty token — must be refused with an explicit
// ack and must not disturb the original session, or knowing a party's
// name would be enough to hijack its identity.
func TestRejoinWithoutTokenRejected(t *testing.T) {
	e := New()
	t.Cleanup(e.Close)
	register := func() (*wire.Session, error) {
		tsConn, partyConn := wire.Pipe()
		ts := wire.NewSession(tsConn, false)
		party := wire.NewSession(partyConn, true)
		go e.AcceptSession(ts)
		_, err := SendHelloPinned(party, Hello{Role: RoleDC, Name: "dc-bare"})
		return party, err
	}
	first, err := register()
	if err != nil {
		t.Fatalf("first registration: %v", err)
	}
	if _, err := register(); !errors.Is(err, ErrRejected) {
		t.Fatalf("token-less rejoin error = %v, want ErrRejected", err)
	}
	select {
	case <-first.Done():
		t.Fatal("original session closed by the rejected rejoin")
	default:
	}
	if _, _, dcs := e.Counts(); dcs != 1 {
		t.Fatalf("registry has %d DCs after rejected rejoin, want 1", dcs)
	}
}

// TestRejoinEmptyPresentedTokenRejected: a pinned identity with a real
// token must also refuse a rejoin that presents no token at all — the
// constant-time comparison rejects on length, and the registry counts
// the attempt as a rejection.
func TestRejoinEmptyPresentedTokenRejected(t *testing.T) {
	e, _ := startFleet(t, nil, 1, 0, 1)
	tsConn, partyConn := wire.Pipe()
	ts := wire.NewSession(tsConn, false)
	party := wire.NewSession(partyConn, true)
	go e.AcceptSession(ts)
	_, err := SendHelloPinned(party, Hello{Role: RoleDC, Name: "dc-0"})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("empty-token rejoin error = %v, want ErrRejected", err)
	}
	if _, _, got := e.Counts(); got != 1 {
		t.Fatalf("registry has %d DCs after rejected rejoin, want 1", got)
	}
}

// TestSetMetricsDuringRejoin swaps the engine's registry while a party
// drops and rejoins mid-round. register, watch and the round's recovery
// callback all count into a registry on that path; each must use one it
// read under the engine lock (or the round's own snapshot), which the
// race detector checks here.
func TestSetMetricsDuringRejoin(t *testing.T) {
	e, dcs := startFleet(t, nil, 2, 0, 2)
	reg := metrics.NewRegistry()
	e.SetMetrics(reg)
	e.SetRejoinGrace(time.Minute)

	r, err := e.StartPSC(withMinDCs(smallPSC, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	roles := collect(t, e, r, 2)

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				e.SetMetrics(reg)
				runtime.Gosched()
			}
		}
	}()
	dcs[1].Close()
	join(t, e, dcHello(1))
	// The reopened stream's DC role arrives only after the registry
	// rebound the identity and the recovery callback reattached the
	// round — both counters are in by then. (The watcher counts the drop
	// only if it runs before the rejoin, so that one is not asserted.)
	roles = append(roles, collect(t, e, r, 1)...)
	close(stop)
	<-stopped

	r.Abort("test over")
	if _, err := r.WaitPSC(); err == nil {
		t.Fatal("aborted round reported success")
	}
	for _, d := range roles {
		if err := d.outcome(t); err == nil {
			t.Fatalf("%s served the aborted round", d.PSC.Name)
		}
	}
	for _, name := range []string{"engine/parties-rejoined", "engine/" + LabelPSC + "/parties-reattached"} {
		if got := reg.Get(name); got != 1 {
			t.Errorf("%s = %g, want 1", name, got)
		}
	}
}
