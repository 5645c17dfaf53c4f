package engine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dp"
	"repro/internal/parallel"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/wire"
)

// goroutineBaseline returns the goroutine count to hold a finished
// round to. The process-wide worker pool is started first: its workers
// are never reaped and would otherwise read as a leak.
func goroutineBaseline() int {
	parallel.For(parallel.PoolSize(), 1, func(int, int) {})
	return runtime.NumGoroutine()
}

// waitGoroutines fails the test unless the goroutine count returns to
// baseline within 30 s.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the round:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestServeDCServesBothProtocols runs one PSC and one PrivCount round
// through ServeDC on the same hosts: each PrivCount DC gets exactly one
// noise source from its host (a PSC DC none), a DC whose upload is done
// is not reported served while its round is still in flight, and every
// DC is reported served once the tally has closed its stream.
func TestServeDCServesBothProtocols(t *testing.T) {
	// noiseAsked counts the noise sources ServeDC asked each host for
	// before handing a round over.
	var mu sync.Mutex
	noiseAsked := map[string]int{}
	e, _ := startFleet(t, func(dc string, round uint64) *dp.NoiseSource {
		mu.Lock()
		noiseAsked[fmt.Sprint(dc, round)]++
		mu.Unlock()
		return nil
	}, 2, 2, 2)
	pscRound, err := e.StartPSC(psc.Config{Bins: 64, NoisePerCP: 2, ShuffleProofRounds: 1, NumDCs: 2, NumCPs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	privRound, err := e.StartPrivCount(privcount.TallyConfig{
		Stats:  []privcount.StatConfig{{Name: "streams", Bins: []string{"a"}, Sigma: 0}},
		NumDCs: 2, NumSKs: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dcs := append(collect(t, e, pscRound, 2), collect(t, e, privRound, 2)...)
	first := map[string]DCDelivery{}
	for _, d := range dcs {
		want := 0
		if d.PrivCount != nil {
			want = 1
			d.PrivCount.Increment("streams", 0, 3)
		}
		mu.Lock()
		asked := noiseAsked[fmt.Sprint(d.Name, d.Round)]
		mu.Unlock()
		if asked != want {
			t.Errorf("%s DC on %s asked for %d noise sources, want %d", d.Label(), d.Name, asked, want)
		}
		if _, ok := first[d.Label()]; !ok {
			first[d.Label()] = d
		}
	}
	if len(first) != 2 {
		t.Fatalf("DC roles delivered for %d protocols, want 2", len(first))
	}

	// One DC of each round uploads; neither round can end without the
	// other DC, so neither stream is closed yet.
	for _, d := range first {
		d.Release()
	}
	for _, d := range first {
		select {
		case err := <-d.served:
			t.Fatalf("%s DC reported served (%v) before its round ended", d.Label(), err)
		case <-time.After(200 * time.Millisecond):
		}
	}
	for _, d := range dcs {
		if first[d.Label()].release != d.release {
			d.Release()
		}
	}
	if _, err := pscRound.WaitPSC(); err != nil {
		t.Fatalf("psc round: %v", err)
	}
	res, err := privRound.WaitPrivCount()
	if err != nil {
		t.Fatalf("privcount round: %v", err)
	}
	if got := res["streams"][0]; got != 6 {
		t.Fatalf("streams/a = %v, want 6", got)
	}
	for _, d := range dcs {
		if err := d.outcome(t); err != nil {
			t.Fatalf("%s DC on %s: %v", d.Label(), d.Name, err)
		}
	}
}

// TestServeDCReleasesFailedRound aborts a round whose hosts' Collect
// blocks on a release nobody closes: Collect must return through the
// stream's failure, the DCs must never be finished, Served must see the
// abort, and every goroutine the round started must exit.
func TestServeDCReleasesFailedRound(t *testing.T) {
	e, _ := startFleet(t, nil, 2, 0, 2)
	baseline := goroutineBaseline()
	r, err := e.StartPSC(psc.Config{Bins: 64, NoisePerCP: 2, ShuffleProofRounds: 1, NumDCs: 2, NumCPs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dcs := collect(t, e, r, 2)
	r.Abort("operator cancelled")
	for _, d := range dcs {
		if err := d.outcome(t); err == nil || !strings.Contains(err.Error(), "operator cancelled") {
			t.Fatalf("%s outcome = %v, want the abort reason", d.Name, err)
		}
		// Finish ends a DC's observation window: one that still observes
		// was never finished.
		if err := d.PSC.Observe("late"); err != nil {
			t.Fatalf("%s finished a failed round: %v", d.Name, err)
		}
	}
	if _, err := r.WaitPSC(); err == nil {
		t.Fatal("aborted round reported success")
	}
	waitGoroutines(t, baseline)
}

// TestServeDCRejectsUnexpectedStream opens a stream with a label no
// protocol owns on a data collector's session: ServeDC must reset it
// with a reason naming the party and the label, and report the same
// error to Served.
func TestServeDCRejectsUnexpectedStream(t *testing.T) {
	e := New()
	t.Cleanup(e.Close)
	tsConn, partyConn := wire.Pipe()
	ts, party := wire.NewSession(tsConn, false), wire.NewSession(partyConn, true)
	served := make(chan error, 1)
	go ServeDC(party, Hello{Name: "dc-0"}, DCHost{
		Collect: func(DCRound, <-chan struct{}) error {
			t.Error("Collect called for an unexpected stream")
			return nil
		},
		Served: func(round uint64, err error) {
			if round == 7 {
				served <- err
			}
		},
	})
	if _, err := e.AcceptSession(ts); err != nil {
		t.Fatal(err)
	}
	st, err := ts.Open(7, "bogus/round")
	if err != nil {
		t.Fatal(err)
	}
	const want = `datacollector dc-0: unexpected stream "bogus/round"`
	if _, err := st.Recv(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("tally-side stream error = %v, want a reset carrying %q", err, want)
	}
	select {
	case err := <-served:
		if err == nil || err.Error() != want {
			t.Fatalf("Served got %v, want %q", err, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Served never told of the unexpected stream")
	}
}

// TestReconnectLoop pins the daemon churn loop's three exits: the
// tally's deliberate hang-up ends it cleanly after one dial, a refused
// identity ends it with the refusal and no redial, and a tally that
// cannot be reached is given up on after the attempt bound.
func TestReconnectLoop(t *testing.T) {
	errDial := errors.New("connection refused")
	errRefused := fmt.Errorf("hello: %w", ErrRejected)
	for _, tc := range []struct {
		name      string
		dialErr   error // nil dials a pipe session
		serveErr  error
		want      error
		wantDials int
	}{
		{"hang-up", nil, wire.ErrClosed, nil, 1},
		{"rejected", nil, errRefused, errRefused, 1},
		{"unreachable", errDial, nil, errDial, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dials := 0
			dial := func() (*wire.Session, error) {
				dials++
				if tc.dialErr != nil {
					return nil, tc.dialErr
				}
				a, b := wire.Pipe()
				t.Cleanup(func() { a.Close() })
				return wire.NewSession(b, true), nil
			}
			serve := func(*wire.Session) error { return tc.serveErr }
			err := ReconnectLoop(dial, serve, 2, t.Logf)
			if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("ReconnectLoop = %v, want %v", err, tc.want)
			}
			if dials != tc.wantDials {
				t.Fatalf("%d dials, want %d", dials, tc.wantDials)
			}
		})
	}
}
