package torctl

import (
	"net/netip"
	"testing"

	"repro/internal/event"
	"repro/internal/simtime"
)

// benchTrace is n connection and stream events in the proportions of
// a relay's replayed trace.
func benchTrace(n int) []event.Event {
	evs := make([]event.Event, 0, n)
	for i := range n {
		hdr := event.Header{At: simtime.Time(i) * simtime.Second / 1000, Relay: 7}
		if i%2 == 0 {
			evs = append(evs, &event.ConnectionEnd{
				Header: hdr, ClientIP: netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
				Country: "de", ASN: 3320, NumCircuits: 3, BytesSent: 1500, BytesRecv: 90000,
			})
		} else {
			evs = append(evs, &event.StreamEnd{
				Header: hdr, CircuitID: uint64(i), IsInitial: i%3 == 0, Target: event.TargetHostname,
				Port: 443, Hostname: "www.example.com", BytesSent: 700, BytesRecv: 64000,
			})
		}
	}
	return evs
}

// BenchmarkParseLine parses one event line on a warm parser; with
// -benchmem, allocs/op is the per-line allocation count.
func BenchmarkParseLine(b *testing.B) {
	evs := benchTrace(64)
	lines := make([]string, len(evs))
	for i, ev := range evs {
		var err error
		if lines[i], err = FormatEvent(ev, defaultEpochUnixNano); err != nil {
			b.Fatal(err)
		}
	}
	var p LineParser
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := p.Parse(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSourceDrain replays 20 000 events from a mock relay over
// loopback into DialSource and drains Events with no consumer work:
// the event plane's ceiling, in events/s, handshake included.
func BenchmarkSourceDrain(b *testing.B) {
	evs := benchTrace(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		m, err := NewMockRelay(MockConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range evs {
			m.Feed(ev)
		}
		m.End()
		addr, err := m.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		src, err := DialSource(Config{Addr: addr.String(), MaxDialFailures: 1}, LineParser{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for range src.Events() {
			n++
		}
		if err := src.Err(); err != nil || n != len(evs) {
			b.Fatalf("drained %d of %d events: %v", n, len(evs), err)
		}
		src.Close()
		m.Close()
	}
	b.ReportMetric(float64(len(evs)*b.N)/b.Elapsed().Seconds(), "events/s")
}
