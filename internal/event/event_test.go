package event

import (
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func sampleEvents() []Event {
	h := Header{At: 90 * simtime.Minute, Relay: 7}
	return []Event{
		&StreamEnd{Header: h, CircuitID: 12345, IsInitial: true,
			Target: TargetHostname, Port: 443, Hostname: "onionoo.torproject.org",
			BytesSent: 1024, BytesRecv: 1 << 20},
		&StreamEnd{Header: h, CircuitID: 1, Target: TargetIPv6, Port: 22},
		&CircuitEnd{Header: h, CircuitID: 99, Kind: CircuitDirectory,
			ClientIP: netip.MustParseAddr("203.0.113.9"), Country: "AE",
			ASN: 64500, NumStreams: 3, BytesSent: 10, BytesRecv: 20},
		&ConnectionEnd{Header: h, ClientIP: netip.MustParseAddr("2001:db8::1"),
			Country: "US", ASN: 15169, NumCircuits: 12, BytesSent: 5, BytesRecv: 6},
		&DescPublished{Header: h, Address: "msydqstlz2kzerdg", Version: 2, Replica: 1},
		&DescFetched{Header: h, Address: "expyuzz4wqqyqhjn", Version: 2, Outcome: FetchNotFound},
		&RendezvousEnd{Header: h, CircuitID: 42, Version: 3,
			Outcome: RendExpired, PayloadCells: 0, PayloadBytes: 0},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, e := range sampleEvents() {
		b := Marshal(nil, e)
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", e.EventType(), err)
		}
		if !reflect.DeepEqual(e, got) {
			t.Fatalf("%s round trip:\n  in  %+v\n  out %+v", e.EventType(), e, got)
		}
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil buffer must fail")
	}
	if _, err := Unmarshal(make([]byte, 5)); err == nil {
		t.Fatal("short buffer must fail")
	}
	bad := Marshal(nil, sampleEvents()[0])
	bad[0] = 250
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("unknown type must fail")
	}
}

func TestUnmarshalRejectsTruncationAtEveryLength(t *testing.T) {
	for _, e := range sampleEvents() {
		full := Marshal(nil, e)
		for n := headerSize; n < len(full); n++ {
			if _, err := Unmarshal(full[:n]); err == nil {
				t.Fatalf("%s: truncation to %d/%d bytes must fail",
					e.EventType(), n, len(full))
			}
		}
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	for _, e := range sampleEvents() {
		b := Marshal(nil, e)
		b = append(b, 0xFF)
		if _, err := Unmarshal(b); err == nil {
			t.Fatalf("%s: trailing byte must fail", e.EventType())
		}
	}
}

func TestMarshalAppendsToDst(t *testing.T) {
	prefix := []byte{1, 2, 3}
	b := Marshal(prefix, sampleEvents()[0])
	if len(b) <= 3 || b[0] != 1 || b[1] != 2 || b[2] != 3 {
		t.Fatal("Marshal must append to dst")
	}
	if _, err := Unmarshal(b[3:]); err != nil {
		t.Fatalf("suffix must decode: %v", err)
	}
}

func TestStreamEndRoundTripProperty(t *testing.T) {
	f := func(circ uint64, initial bool, port uint16, host string, sent, recv uint64) bool {
		in := &StreamEnd{
			Header:    Header{At: simtime.Hour, Relay: 3},
			CircuitID: circ, IsInitial: initial, Target: TargetHostname,
			Port: port, Hostname: host, BytesSent: sent, BytesRecv: recv,
		}
		out, err := Unmarshal(Marshal(nil, in))
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsWebPort(t *testing.T) {
	for port, want := range map[uint16]bool{80: true, 443: true, 22: false, 8080: false} {
		e := &StreamEnd{Port: port}
		if e.IsWebPort() != want {
			t.Errorf("port %d: IsWebPort=%v want %v", port, e.IsWebPort(), want)
		}
	}
}

func TestBusFiltering(t *testing.T) {
	b := NewBus()
	var all, relay7, streams int
	b.Subscribe(func(Event) { all++ })
	b.SubscribeFiltered([]RelayID{7}, nil, func(Event) { relay7++ })
	b.SubscribeFiltered(nil, []Type{TypeStreamEnd}, func(Event) { streams++ })
	for _, e := range sampleEvents() {
		b.Publish(e)
	}
	if all != 7 {
		t.Errorf("all subscriber: got %d want 7", all)
	}
	if relay7 != 7 {
		t.Errorf("relay-7 subscriber: got %d want 7 (all samples from relay 7)", relay7)
	}
	if streams != 2 {
		t.Errorf("stream subscriber: got %d want 2", streams)
	}
	if len(b.subs) != 3 {
		t.Errorf("Subscribers: %d", len(b.subs))
	}
}

func TestBusRelayFilterExcludes(t *testing.T) {
	b := NewBus()
	n := 0
	b.SubscribeFiltered([]RelayID{1}, []Type{TypeDescFetched}, func(Event) { n++ })
	b.Publish(&DescFetched{Header: Header{Relay: 2}})
	b.Publish(&DescPublished{Header: Header{Relay: 1}})
	if n != 0 {
		t.Fatal("filters must exclude non-matching events")
	}
	b.Publish(&DescFetched{Header: Header{Relay: 1}})
	if n != 1 {
		t.Fatal("matching event must be delivered")
	}
}

func TestTypeAndEnumStrings(t *testing.T) {
	if TypeStreamEnd.String() != "stream-end" || Type(99).String() != "unknown" {
		t.Fatal("Type.String")
	}
	if TargetIPv4.String() != "ipv4" || TargetKind(9).String() != "unknown" {
		t.Fatal("TargetKind.String")
	}
	if FetchNotFound.String() != "not-found" || FetchOutcome(9).String() != "unknown" {
		t.Fatal("FetchOutcome.String")
	}
	if RendConnClosed.String() != "conn-closed" || RendOutcome(9).String() != "unknown" {
		t.Fatal("RendOutcome.String")
	}
}

func TestNewUnknownType(t *testing.T) {
	if _, ok := New(TypeInvalid); ok {
		t.Fatal("New(TypeInvalid) must fail")
	}
	if _, ok := New(Type(200)); ok {
		t.Fatal("New(200) must fail")
	}
}

func BenchmarkMarshalStreamEnd(b *testing.B) {
	e := sampleEvents()[0]
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Marshal(buf[:0], e)
	}
}

func BenchmarkUnmarshalStreamEnd(b *testing.B) {
	buf := Marshal(nil, sampleEvents()[0])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
