package torctl

import (
	"errors"
	"fmt"
	"net/netip"
	"reflect"
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

// sameEvent fails the test unless got is an event of want's kind with
// every field equal; what names the comparison.
func sameEvent(t testing.TB, what string, want, got event.Event) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s:\n want %+v\n got  %+v", what, want, got)
	}
}

// TestFormatParseRoundTrip pins FormatEvent and Parse as inverses,
// comparing field by field.
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
		sameEvent(t, fmt.Sprintf("round trip of %q", line), ev, got)
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
	// parseWall∘appendWall is the identity on nanosecond timestamps,
	// and the fraction always carries nine digits.
	for _, ns := range []int64{0, 1, 10, 99, 100000000, 999999999, 1514764800 * int64(1e9), 1514764800*int64(1e9) + 123456789} {
		s := string(appendWall(nil, ns))
		if want := fmt.Sprintf("%d.%09d", ns/1e9, ns%1e9); s != want {
			t.Errorf("appendWall(%d) = %q, want %q", ns, s, want)
		}
		rt, err := parseWall(s)
		if err != nil || rt != ns {
			t.Errorf("round trip %d -> %q -> %d (%v)", ns, s, rt, err)
		}
	}
}

// splitFields is the map-based tokenizer scanPairs replaced, kept as
// the reference the tests and FuzzParseEventLine hold scanPairs to.
// Later duplicates of a key win; tokens without '=' are returned in
// bare.
func splitFields(s string) (kv map[string]string, bare []string, err error) {
	kv = make(map[string]string, 8)
	i := 0
	for i < len(s) {
		for i < len(s) && s[i] == ' ' {
			i++
		}
		if i >= len(s) {
			break
		}
		start := i
		for i < len(s) && s[i] != '=' && s[i] != ' ' {
			i++
		}
		if i >= len(s) || s[i] != '=' {
			bare = append(bare, s[start:i])
			continue
		}
		key := s[start:i]
		i++ // '='
		if key == "" {
			return nil, nil, fmt.Errorf("torctl: empty key in fields %q", s)
		}
		if i < len(s) && s[i] == '"' {
			val, rest, err := unquote(s[i:])
			if err != nil {
				return nil, nil, err
			}
			kv[key] = val
			i = len(s) - len(rest)
			if len(rest) > 0 && rest[0] != ' ' {
				return nil, nil, fmt.Errorf("torctl: garbage after quoted value of %s", key)
			}
		} else {
			vstart := i
			for i < len(s) && s[i] != ' ' {
				i++
			}
			kv[key] = s[vstart:i]
		}
	}
	return kv, bare, nil
}

// TestSplitFields holds scanPairs and the reference tokenizer to the
// same cases: quoted and escaped values, empty values, a bare word
// (reported by the reference, skipped by scanPairs), a repeated key
// (the last wins) and an unterminated quote (refused by both).
func TestSplitFields(t *testing.T) {
	line := `A=1  B="two words" C= D=x\y BARE E="q\"uo\\te" F=first F=last`
	kv, bare, err := splitFields(line)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := scanPairs(line, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"A": "1", "B": "two words", "C": "", "D": `x\y`, "E": `q"uo\te`, "F": "last"}
	for k, v := range want {
		if kv[k] != v {
			t.Errorf("kv[%s] = %q, want %q", k, kv[k], v)
		}
		if got, ok := ps.get(k); !ok || got != v {
			t.Errorf("scanPairs %s = %q (present %v), want %q", k, got, ok, v)
		}
	}
	if len(bare) != 1 || bare[0] != "BARE" {
		t.Errorf("bare = %v", bare)
	}
	if _, ok := ps.get("BARE"); ok || len(ps) != 7 {
		t.Errorf("scanPairs kept the bare word or lost a pair: %q", ps)
	}
	if _, _, err := splitFields(`A="unterminated`); err == nil {
		t.Error("unterminated quote accepted")
	}
	if _, err := scanPairs(`A="unterminated`, nil); err == nil {
		t.Error("scanPairs accepted an unterminated quote")
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

// TestParseLineAllocs: a warm parser turns a CONNECTION_ENDED or a
// STREAM_ENDED line into its event with at most one allocation for
// the event and one per string field (Country, Host), whatever the
// line's field count: no map, no per-field copies.
func TestParseLineAllocs(t *testing.T) {
	evs := []event.Event{
		&event.ConnectionEnd{
			Header: event.Header{At: simtime.Second, Relay: 7}, ClientIP: netip.MustParseAddr("10.0.1.2"),
			Country: "de", ASN: 3320, NumCircuits: 2, BytesSent: 100, BytesRecv: 200,
		},
		&event.StreamEnd{
			Header: event.Header{At: simtime.Second, Relay: 7}, CircuitID: 9, IsInitial: true,
			Target: event.TargetHostname, Port: 443, Hostname: "www.example.com", BytesSent: 1, BytesRecv: 2,
		},
	}
	for _, ev := range evs {
		line, err := FormatEvent(ev, defaultEpochUnixNano)
		if err != nil {
			t.Fatal(err)
		}
		p := &LineParser{}
		if _, err := p.Parse(line); err != nil { // warm the pair slice
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := p.Parse(line); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%T: %.1f allocations per parsed line, want at most 2 (the event and its string field)", ev, allocs)
		}
	}
}

// TestParserKeepsNoLineText: once Parse returns, the parser's pair
// scratch holds no text of the line — no client address outlives the
// call in the parser — whether the line parsed or failed part-way.
func TestParserKeepsNoLineText(t *testing.T) {
	p := &LineParser{}
	lines := []string{
		"650 " + EventConnectionEnded + " Time=1.5 ClientIP=10.9.8.7 Country=de ASN=1 NumCircuits=2",
		EventCircuitEnded + " ClientIP=10.9.8.7 Country=de Kind=bogus",
		EventConnectionEnded + ` ClientIP=10.9.8.7 Country="unterminated`,
	}
	for _, line := range lines {
		p.Parse(line)
		if cap(p.pairs) == 0 {
			t.Fatalf("%q: the parser kept no pair scratch", line)
		}
		for i, kv := range p.pairs[:cap(p.pairs)] {
			if kv != (pair{}) {
				t.Fatalf("after %q pair %d still holds %q=%q", line, i, kv.key, kv.val)
			}
		}
	}
}
