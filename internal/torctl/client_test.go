package torctl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/simtime"
)

// feedTrace pushes n synthetic connection-end events into the mock.
func feedTrace(m *MockRelay, n int) []event.Event {
	evs := make([]event.Event, 0, n)
	for i := 0; i < n; i++ {
		ev := &event.ConnectionEnd{
			Header:   event.Header{At: simtime.Time(i) * simtime.Second, Relay: 7},
			ClientIP: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
			Country:  "de", ASN: 3320, NumCircuits: 1, BytesSent: 100, BytesRecv: 200,
		}
		m.Feed(ev)
		evs = append(evs, ev)
	}
	return evs
}

// startMock builds, binds, and tears down a mock relay.
func startMock(t *testing.T, cfg MockConfig) (*MockRelay, string) {
	t.Helper()
	m, err := NewMockRelay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := m.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, addr.String()
}

// drain collects events until the source closes, with a deadline.
func drain(t *testing.T, src *Source) []event.Event {
	t.Helper()
	var out []event.Event
	deadline := time.After(60 * time.Second)
	for {
		select {
		case ev, ok := <-src.Events():
			if !ok {
				if err := src.Err(); err != nil {
					t.Fatalf("source error: %v", err)
				}
				return out
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timed out with %d events", len(out))
		}
	}
}

// expectSame compares two event slices through the binary codec.
func expectSame(t *testing.T, want, got []event.Event) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		w := event.Marshal(nil, want[i])
		g := event.Marshal(nil, got[i])
		if !bytes.Equal(w, g) {
			t.Fatalf("event %d differs:\n want %x\n got  %x", i, w, g)
		}
	}
}

// TestSourceSafeCookie runs the full path over TCP loopback: SAFECOOKIE
// auth (cookie path advertised via PROTOCOLINFO, not configured),
// SETEVENTS, replay, trace-end. Events must arrive intact and in order.
func TestSourceSafeCookie(t *testing.T) {
	cookie, err := GenerateCookie()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cookiePath := filepath.Join(dir, "control_auth_cookie")
	if err := os.WriteFile(cookiePath, cookie, 0o600); err != nil {
		t.Fatal(err)
	}
	m, addr := startMock(t, MockConfig{Cookie: cookie, CookiePath: cookiePath})
	want := feedTrace(m, 50)
	m.End()

	src, err := DialSource(Config{Addr: addr, Logf: t.Logf}, LineParser{Time: *newEpochTimeMap(time.Unix(defaultEpochUnixNano/1e9, 0))})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got := drain(t, src)
	expectSame(t, want, got)
	if parsed, skipped := src.Stats(); parsed != 50 || skipped != 0 {
		t.Errorf("stats parsed=%d skipped=%d, want 50, 0", parsed, skipped)
	}
}

// TestSourcePasswordAndLiveFeed authenticates by password and feeds
// events while the controller is attached (live mode, not pre-loaded).
func TestSourcePasswordAndLiveFeed(t *testing.T) {
	m, addr := startMock(t, MockConfig{Password: `s3kr1t "quoted"`})
	src, err := DialSource(Config{Addr: addr, Password: `s3kr1t "quoted"`, Logf: t.Logf},
		LineParser{Time: *newEpochTimeMap(time.Unix(defaultEpochUnixNano/1e9, 0))})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	want := feedTrace(m, 20)
	m.End()
	got := drain(t, src)
	expectSame(t, want, got)
}

// TestAuthFailures: bad credentials must fail Dial immediately with
// ErrAuthFailed — not retry forever.
func TestAuthFailures(t *testing.T) {
	cookie, _ := GenerateCookie()
	_, addr := startMock(t, MockConfig{Cookie: cookie})

	badCookie, _ := GenerateCookie()
	dir := t.TempDir()
	badPath := filepath.Join(dir, "cookie")
	if err := os.WriteFile(badPath, badCookie, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(Config{Addr: addr, CookiePath: badPath}); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("bad cookie: err = %v, want ErrAuthFailed", err)
	}

	_, addrPW := startMock(t, MockConfig{Password: "right"})
	if _, err := Dial(Config{Addr: addrPW, Password: "wrong"}); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("bad password: err = %v, want ErrAuthFailed", err)
	}
}

// TestReconnectSurvivesDrop is the churn drill: the mock drops the
// connection mid-feed, the client reconnects, and the replay cursor
// guarantees no events are lost.
func TestReconnectSurvivesDrop(t *testing.T) {
	m, addr := startMock(t, MockConfig{DropAfter: 30})
	want := feedTrace(m, 100)
	m.End()

	src, err := DialSource(Config{
		Addr: addr, ReconnectMin: 20 * time.Millisecond, Logf: t.Logf,
	}, LineParser{Time: *newEpochTimeMap(time.Unix(defaultEpochUnixNano/1e9, 0))})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got := drain(t, src)
	expectSame(t, want, got)
	if src.Reconnects() < 1 {
		t.Errorf("reconnects = %d, want >= 1", src.Reconnects())
	}
}

// TestClientGivesUp: with the relay gone and a failure budget, the
// client ends with a terminal error instead of retrying forever.
func TestClientGivesUp(t *testing.T) {
	m, addr := startMock(t, MockConfig{})
	feedTrace(m, 5)
	src, err := DialSource(Config{
		Addr: addr, ReconnectMin: 5 * time.Millisecond, MaxDialFailures: 3, Logf: t.Logf,
	}, LineParser{})
	if err != nil {
		t.Fatal(err)
	}
	m.Close() // relay vanishes for good, trace never Ends
	deadline := time.After(30 * time.Second)
	for {
		select {
		case _, ok := <-src.Events():
			if !ok {
				if src.Err() == nil {
					t.Fatal("source ended cleanly, want a terminal error")
				}
				return
			}
		case <-deadline:
			t.Fatal("source did not terminate")
		}
	}
}

// TestMockRejectsUnauthenticated: commands before AUTHENTICATE get 514
// and do not crash the relay; QUIT is honored.
func TestMockRejectsUnauthenticated(t *testing.T) {
	cookie, _ := GenerateCookie()
	_, addr := startMock(t, MockConfig{Cookie: cookie})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	roundTrip := func(cmd string) Reply {
		t.Helper()
		rep, err := request(conn, br, cmd)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		return rep
	}
	if rep := roundTrip("SETEVENTS " + EventStreamEnded); rep.Status != 514 {
		t.Fatalf("pre-auth SETEVENTS status = %d, want 514", rep.Status)
	}
	if rep := roundTrip("PROTOCOLINFO 1"); !rep.IsOK() {
		t.Fatalf("PROTOCOLINFO status = %d", rep.Status)
	}
	if rep := roundTrip("AUTHENTICATE"); rep.Status != 515 {
		t.Fatalf("null auth against cookie relay = %d, want 515", rep.Status)
	}
}

func ExampleFormatEvent() {
	ev := &event.DescFetched{
		Header:  event.Header{At: simtime.Minute, Relay: 5},
		Address: "abcdefghijklmnop", Version: 2, Outcome: event.FetchNotFound,
	}
	line, _ := FormatEvent(ev, defaultEpochUnixNano)
	fmt.Println(line)
	// Output: PRIVCOUNT_HSDIR_FETCHED Time=1514764860.000000000 Relay=5 Address=abcdefghijklmnop Version=2 Outcome=not-found
}

// TestSourceCloseWhileNotReading: Close must make Events close even
// when the consumer has stopped receiving and the source's buffer is
// full — the documented teardown order.
func TestSourceCloseWhileNotReading(t *testing.T) {
	m, addr := startMock(t, MockConfig{})
	feedTrace(m, 2000) // far more than the source's channel buffer
	m.End()
	src, err := DialSource(Config{Addr: addr, Logf: t.Logf}, LineParser{})
	if err != nil {
		t.Fatal(err)
	}
	<-src.Events() // consume one event, then stop reading entirely
	src.Close()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case _, ok := <-src.Events():
			if !ok {
				return // closed, as documented
			}
		case <-deadline:
			t.Fatal("Events did not close after Close")
		}
	}
}
