package torctl

import (
	"bytes"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/simtime"
)

// newEpochTimeMap pins simtime 0 to the given wall-clock instant, so
// the tests' parsed offsets reproduce exactly.
func newEpochTimeMap(epoch time.Time) *TimeMap {
	return &TimeMap{epoch: epoch.UnixNano(), haveEpoch: true}
}

// sampleEvents covers every event type plus the awkward field shapes:
// quoted hostnames, empty strings, missing addresses, zero times.
func sampleEvents() []event.Event {
	hdr := func(at simtime.Time, relay event.RelayID) event.Header {
		return event.Header{At: at, Relay: relay}
	}
	return []event.Event{
		&event.StreamEnd{
			Header: hdr(simtime.Second/4, 3), CircuitID: 77, IsInitial: true,
			Target: event.TargetHostname, Port: 443, Hostname: "example.com",
			BytesSent: 120, BytesRecv: 4096,
		},
		&event.StreamEnd{
			Header: hdr(0, 0), CircuitID: 0, IsInitial: false,
			Target: event.TargetIPv6, Port: 65535, Hostname: `odd "host name"\with specials`,
			BytesSent: 0, BytesRecv: 1<<63 + 7,
		},
		&event.CircuitEnd{
			Header: hdr(13*simtime.Hour, 9), CircuitID: 9, Kind: event.CircuitDirectory,
			ClientIP: netip.MustParseAddr("10.1.2.3"), Country: "de", ASN: 3320,
			NumStreams: 4, BytesSent: 1000, BytesRecv: 2000,
		},
		&event.CircuitEnd{
			Header: hdr(simtime.Minute, 1), Kind: event.CircuitData,
			ClientIP: netip.Addr{}, Country: "",
		},
		&event.ConnectionEnd{
			Header: hdr(simtime.Day-1, 65535), ClientIP: netip.MustParseAddr("2001:db8::1"),
			Country: "us", ASN: 7018, NumCircuits: 3, BytesSent: 5, BytesRecv: 6,
		},
		&event.DescPublished{Header: hdr(simtime.Hour, 5), Address: "abcdefghijklmnop", Version: 2, Replica: 1},
		&event.DescFetched{Header: hdr(simtime.Hour+1, 5), Address: "qrstuvwxyz234567", Version: 2, Outcome: event.FetchNotFound},
		&event.RendezvousEnd{
			Header: hdr(2*simtime.Hour, 4), CircuitID: 1, Version: 3,
			Outcome: event.RendConnClosed, PayloadCells: 10, PayloadBytes: 4980,
		},
	}
}

// TestFormatParseRoundTrip pins FormatEvent and Parse as inverses,
// comparing through the binary codec so every field participates.
func TestFormatParseRoundTrip(t *testing.T) {
	p := &LineParser{Time: *newEpochTimeMap(time.Unix(defaultEpochUnixNano/1e9, 0))}
	for _, ev := range sampleEvents() {
		line, err := FormatEvent(ev, defaultEpochUnixNano)
		if err != nil {
			t.Fatalf("format %T: %v", ev, err)
		}
		got, err := p.Parse(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		want := event.Marshal(nil, ev)
		have := event.Marshal(nil, got)
		if !bytes.Equal(want, have) {
			t.Errorf("round trip mismatch for %T:\n line %q\n want %x\n got  %x", ev, line, want, have)
		}
	}
}

// TestParsePrefixAndTolerance checks 650-prefix stripping, unknown-key
// tolerance, and relay defaulting.
func TestParsePrefixAndTolerance(t *testing.T) {
	p := &LineParser{DefaultRelay: 12}
	line := "650 " + EventStreamEnded + ` Time=100.5 CircID=4 NewField=whatever Crazy="quoted value" Port=80 Target=ipv4`
	ev, err := p.Parse(line)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s, ok := ev.(*event.StreamEnd)
	if !ok {
		t.Fatalf("got %T", ev)
	}
	if s.Relay != 12 {
		t.Errorf("default relay = %d, want 12", s.Relay)
	}
	if s.Port != 80 || s.Target != event.TargetIPv4 || s.CircuitID != 4 {
		t.Errorf("fields: %+v", s)
	}
	// The anchoring TimeMap pins the first event to simtime 0.
	if s.At != 0 {
		t.Errorf("anchored time = %v, want 0", s.At)
	}
	// A second event maps to its offset from the anchor.
	ev2, err := p.Parse(EventStreamEnded + " Time=101.5")
	if err != nil {
		t.Fatalf("parse 2: %v", err)
	}
	if got := ev2.Time(); got != simtime.Second {
		t.Errorf("offset time = %v, want 1s", got)
	}
}

func TestParseErrors(t *testing.T) {
	p := &LineParser{}
	cases := []struct {
		line string
		want error
	}{
		{"CIRC 4 BUILT", ErrNotPrivCount},
		{"650 CIRC 4 BUILT", ErrNotPrivCount},
		{"650 " + EventDone + " Processed=7", ErrTraceDone},
	}
	for _, c := range cases {
		if _, err := p.Parse(c.line); !errors.Is(err, c.want) {
			t.Errorf("Parse(%q) err = %v, want %v", c.line, err, c.want)
		}
	}
	bad := []string{
		EventStreamEnded + " Port=notanumber",
		EventStreamEnded + " Port=65536",
		EventStreamEnded + " IsInitial=yes",
		EventStreamEnded + " Target=carrierpigeon",
		EventCircuitEnded + " ClientIP=999.1.1.1",
		EventStreamEnded + ` Host="unterminated`,
		EventStreamEnded + " Time=12.0000000001",
		EventStreamEnded + " Time=-5",
		"PRIVCOUNT_SOMETHING_NEW A=1",
	}
	for _, line := range bad {
		if _, err := p.Parse(line); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", line)
		}
	}
}

func TestParseWall(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"1514764800", 1514764800 * int64(1e9), true},
		{"1514764800.25", 1514764800*int64(1e9) + 250000000, true},
		{"3.000000001", 3*int64(1e9) + 1, true},
		{"12.", 12 * int64(1e9), true},
		{"", 0, false},
		{"-1", 0, false},
		{"1.2.3", 0, false},
		{"9223372036854775807.9", 0, false}, // overflow
	}
	for _, c := range cases {
		got, err := parseWall(c.in)
		if c.ok != (err == nil) {
			t.Errorf("parseWall(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("parseWall(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	// formatWall∘parseWall is the identity on nanosecond timestamps.
	for _, ns := range []int64{0, 1, 999999999, 1514764800 * int64(1e9), 1514764800*int64(1e9) + 123456789} {
		rt, err := parseWall(formatWall(ns))
		if err != nil || rt != ns {
			t.Errorf("round trip %d -> %q -> %d (%v)", ns, formatWall(ns), rt, err)
		}
	}
}

func TestSplitFields(t *testing.T) {
	kv, bare, err := splitFields(`A=1  B="two words" C= D=x\y BARE E="q\"uo\\te"`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"A": "1", "B": "two words", "C": "", "D": `x\y`, "E": `q"uo\te`}
	for k, v := range want {
		if kv[k] != v {
			t.Errorf("kv[%s] = %q, want %q", k, kv[k], v)
		}
	}
	if len(bare) != 1 || bare[0] != "BARE" {
		t.Errorf("bare = %v", bare)
	}
	if _, _, err := splitFields(`A="unterminated`); err == nil {
		t.Error("unterminated quote accepted")
	}
}

func TestQuoteString(t *testing.T) {
	for _, s := range []string{"", "plain", "two words", `with"quote`, `back\slash`, "nl\nand\rcr"} {
		q := quoteString(s)
		if !strings.HasPrefix(q, `"`) || !strings.HasSuffix(q, `"`) {
			t.Fatalf("quoteString(%q) = %q, not quoted", s, q)
		}
		val, rest, err := unquote(q)
		if err != nil || rest != "" || val != s {
			t.Errorf("unquote(quote(%q)) = %q, %q, %v", s, val, rest, err)
		}
	}
}
