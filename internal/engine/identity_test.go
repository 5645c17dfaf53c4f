package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/wire"
)

// The engine's pinned hello is the one place a party says who it is:
// these tests hold the gate that admits a name, and show that nothing a
// party says later in a round can claim another party's name.

// impostorDC registers a data collector pinned as pinned, then serves
// every round with a protocol-level DC built under claimed — the name
// a per-round register frame used to announce to the tallies.
func impostorDC(t *testing.T, e *Engine, pinned, claimed string, host int, rounds chan dcRound) {
	t.Helper()
	tsConn, partyConn := wire.Pipe()
	ts, party := wire.NewSession(tsConn, false), wire.NewSession(partyConn, true)
	dcHost := testDCHost(host, rounds)
	go func() {
		if _, err := SendHelloPinned(party, Hello{Role: RoleDC, Name: pinned}); err != nil {
			return
		}
		ServeRounds(party, func(st *wire.Stream) error {
			r := DCRound{Round: st.Round()}
			var err error
			if st.Label() == LabelPSC {
				r.PSC = psc.NewDC(claimed, st)
				err = dcHost.serveRound(st, r, r.PSC.Setup, r.PSC.Finish)
			} else {
				r.PrivCount = privcount.NewDC(claimed, st, nil)
				err = dcHost.serveRound(st, r, r.PrivCount.Setup, r.PrivCount.Finish)
			}
			dcHost.Served(st.Round(), err)
			return err
		})
	}()
	if _, err := e.AcceptSession(ts); err != nil {
		t.Fatalf("accept %s: %v", pinned, err)
	}
}

// TestProtocolNameCannotImpersonate: a DC pinned as dc-0 whose rounds
// run under the protocol-level name dc-1, beside the real dc-1, is
// still dc-0 to the round. An all-required round completes at full
// strength, and a MinDCs 1 round is not degraded.
func TestProtocolNameCannotImpersonate(t *testing.T) {
	stats := []privcount.StatConfig{{Name: "streams", Bins: []string{"a"}, Sigma: 0}}
	for _, tc := range []struct {
		proto string
		start func(e *Engine, minDCs int) (*Round, error)
		// feed makes one observation on a delivered DC.
		feed func(d dcRound)
		// check verifies a completed round's result covers both DCs.
		check func(t *testing.T, r *Round)
	}{
		{
			proto: "psc",
			start: func(e *Engine, minDCs int) (*Round, error) {
				return e.StartPSC(psc.Config{Bins: 64, ShuffleProofRounds: 1, NumCPs: 1, NumDCs: 2, MinDCs: minDCs}, nil)
			},
			feed: func(d dcRound) { d.PSC.Observe("item") },
			check: func(t *testing.T, r *Round) {
				// Without noise the one item both DCs saw is one bin.
				if res, err := r.WaitPSC(); err != nil || res.Reported != 1 {
					t.Fatalf("reported %d, err %v; want 1, nil", res.Reported, err)
				}
			},
		},
		{
			proto: "privcount",
			start: func(e *Engine, minDCs int) (*Round, error) {
				return e.StartPrivCount(privcount.TallyConfig{Stats: stats, NumDCs: 2, NumSKs: 1, MinDCs: minDCs}, nil)
			},
			feed: func(d dcRound) { d.PrivCount.Increment("streams", 0, float64(1+d.host)) },
			check: func(t *testing.T, r *Round) {
				if res, err := r.WaitPrivCount(); err != nil || res["streams"][0] != 3 {
					t.Fatalf("streams/a = %v, err %v; want both DCs' 1 + 2, nil", res["streams"], err)
				}
			},
		},
	} {
		t.Run(tc.proto, func(t *testing.T) {
			e, rounds := testFleet(t, 1, 1, 0)
			impostorDC(t, e, "dc-0", "dc-1", 0, rounds)
			ts, party := wire.Pipe()
			go ServeDC(wire.NewSession(party, true), Hello{Name: "dc-1"}, testDCHost(1, rounds))
			if _, err := e.AcceptSession(wire.NewSession(ts, false)); err != nil {
				t.Fatal(err)
			}

			for _, minDCs := range []int{0, 1} {
				t.Run(fmt.Sprintf("MinDCs=%d", minDCs), func(t *testing.T) {
					r, err := tc.start(e, minDCs)
					if err != nil {
						t.Fatal(err)
					}
					// Each DC is fed and released as it arrives, so a round
					// that loses one ends here instead of waiting for it.
					var roles []dcRound
					for ended := false; !ended && len(roles) < 2; {
						select {
						case d := <-rounds:
							tc.feed(d)
							close(d.release)
							roles = append(roles, d)
						case <-r.Done():
							ended = true
						case <-time.After(2 * time.Minute):
							t.Fatalf("collected %d of 2 DC roles", len(roles))
						}
					}
					tc.check(t, r)
					if r.Degraded() || len(r.Absent()) != 0 {
						t.Fatalf("round degraded, absent %v", r.Absent())
					}
					for _, d := range roles {
						if err := d.outcome(t); err != nil {
							t.Fatalf("dc host %d: %v", d.host, err)
						}
					}
				})
			}
		})
	}
}

// hello runs one hello handshake against e and returns the party's and
// the engine's view of it.
func hello(e *Engine, h Hello) (HelloAck, error, error) {
	tsConn, partyConn := wire.Pipe()
	ts, party := wire.NewSession(tsConn, false), wire.NewSession(partyConn, true)
	acceptErr := make(chan error, 1)
	go func() {
		_, err := e.AcceptSession(ts)
		acceptErr <- err
	}()
	ack, err := SendHelloPinned(party, h)
	return ack, err, <-acceptErr
}

// TestAcceptSessionIdentityGate: the hello is the only identity gate.
// An unknown role, an empty name, and a taken name presented with
// another token are each refused; the same name with its token rejoins,
// and a name is pinned per role.
func TestAcceptSessionIdentityGate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		h        Hello
		want     string // the refusal's reason; "" for an admitted hello
		rejoined bool
	}{
		{"unknown role", Hello{Role: "mallory", Name: "m", Token: "t"}, `unknown role "mallory"`, false},
		{"no role", Hello{Name: "m", Token: "t"}, `unknown role ""`, false},
		{"empty name", Hello{Role: RoleDC, Token: "t"}, "without a name", false},
		{"taken name, other token", Hello{Role: RoleDC, Name: "dc-0", Token: "stolen"}, "token does not match", false},
		{"taken name, no token", Hello{Role: RoleDC, Name: "dc-0"}, "token does not match", false},
		{"same name and token", Hello{Role: RoleDC, Name: "dc-0", Token: "secret"}, "", true},
		{"same name, other role", Hello{Role: RoleCP, Name: "dc-0", Token: "t"}, "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			defer e.Close()
			if _, err, acceptErr := hello(e, Hello{Role: RoleDC, Name: "dc-0", Token: "secret"}); err != nil || acceptErr != nil {
				t.Fatalf("pinning dc-0: %v / %v", err, acceptErr)
			}
			ack, err, acceptErr := hello(e, tc.h)
			if tc.want != "" {
				if !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), tc.want) || acceptErr == nil {
					t.Fatalf("party got %v, engine %v; want a refusal naming %q", err, acceptErr, tc.want)
				}
				if len(e.registry) != 1 {
					t.Fatalf("registry holds %d identities after a refusal, want 1", len(e.registry))
				}
				return
			}
			if err != nil || acceptErr != nil || ack.Rejoined != tc.rejoined {
				t.Fatalf("party got %+v, %v; engine %v; want admitted, rejoined %v", ack, err, acceptErr, tc.rejoined)
			}
		})
	}
}

// FuzzAcceptHello: whatever payload a hello frame carries, AcceptSession
// neither panics nor registers a party without a name or with a role
// outside the three.
func FuzzAcceptHello(f *testing.F) {
	for _, h := range []Hello{
		{Role: RoleDC, Name: "dc-0", Token: "secret"},
		{Role: RoleCP, Name: "cp-0"},
		{Role: RoleSK, Name: "sk-0", Token: "t"},
		{Role: "mallory", Name: "m"},
		{Role: RoleDC},
	} {
		payload, err := wire.EncodePayload(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x41})
	f.Fuzz(func(t *testing.T, payload []byte) {
		e := New()
		defer e.Close()
		tsConn, partyConn := wire.Pipe()
		ts, party := wire.NewSession(tsConn, false), wire.NewSession(partyConn, true)
		defer ts.Close()
		defer party.Close()
		go func() {
			st, err := party.Open(0, LabelHello)
			if err != nil {
				return
			}
			st.SendFrame(wire.Frame{Kind: LabelHello, Payload: payload})
			st.Recv() // the ack, if any
		}()
		h, err := e.AcceptSession(ts)
		if err == nil && (h.Name == "" || !knownRole(h.Role)) {
			t.Fatalf("admitted %+v", h)
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		for _, m := range e.registry {
			if m.name == "" || !knownRole(m.role) {
				t.Fatalf("registered %s %q", m.role, m.name)
			}
		}
	})
}

func knownRole(role string) bool { return role == RoleCP || role == RoleSK || role == RoleDC }
