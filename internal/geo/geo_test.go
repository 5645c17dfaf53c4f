package geo

import (
	"net/netip"
	"testing"

	"repro/internal/simtime"
)

var testDB = Build(1)

func TestCountriesComplete(t *testing.T) {
	cs := Countries()
	if len(cs) != NumCountries {
		t.Fatalf("countries: %d want %d", len(cs), NumCountries)
	}
	seen := map[string]bool{}
	for _, c := range cs {
		if seen[c] {
			t.Fatalf("duplicate country %q", c)
		}
		seen[c] = true
	}
	for _, want := range []string{"US", "RU", "DE", "AE", "UA", "BV", "SS"} {
		if !seen[want] {
			t.Fatalf("missing paper country %q", want)
		}
	}
}

func TestEveryCountryHasBlocks(t *testing.T) {
	for _, c := range Countries() {
		if len(testDB.Blocks(c)) == 0 {
			t.Fatalf("country %q has no blocks", c)
		}
	}
}

func TestBlocksNonOverlappingAndResolvable(t *testing.T) {
	// Every block start and interior address must resolve to its own
	// country.
	for _, c := range Countries()[:40] {
		for _, b := range testDB.Blocks(c) {
			for _, v := range []uint32{b.Start, b.Start + 1234, b.End - 1} {
				ip := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
				if got := testDB.Country(ip); got != c {
					t.Fatalf("ip %v in %q block resolved to %q", ip, c, got)
				}
			}
		}
	}
}

func TestCountryUnknownAddresses(t *testing.T) {
	if got := testDB.Country(netip.MustParseAddr("0.0.0.1")); got != "" {
		t.Fatalf("address before all blocks: %q", got)
	}
	if got := testDB.Country(netip.MustParseAddr("255.255.255.254")); got != "" {
		t.Fatalf("address after all blocks: %q", got)
	}
	if got := testDB.Country(netip.MustParseAddr("2001:db8::1")); got != "" {
		t.Fatalf("IPv6: %q", got)
	}
}

func TestCountryMappedV4(t *testing.T) {
	b := testDB.Blocks("US")[0]
	v4 := netip.AddrFrom4([4]byte{byte(b.Start >> 24), byte(b.Start >> 16), 0, 1})
	mapped := netip.AddrFrom16(v4.As16())
	if got := testDB.Country(mapped); got != "US" {
		t.Fatalf("4-in-6 mapped lookup: %q", got)
	}
}

func TestRandomIPRoundTrips(t *testing.T) {
	r := simtime.Rand(3, "geo-test")
	for _, c := range []string{"US", "RU", "DE", "AE", "ZZ"} {
		for i := 0; i < 200; i++ {
			ip := testDB.RandomIP(r, c)
			if got := testDB.Country(ip); got != c {
				t.Fatalf("RandomIP(%q) = %v resolved to %q", c, ip, got)
			}
		}
	}
}

func TestRandomIPPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown country must panic")
		}
	}()
	testDB.RandomIP(simtime.Rand(1, "x"), "NOPE")
}

func TestBuildDeterministic(t *testing.T) {
	a, b := Build(7), Build(7)
	if len(a.blocks) != len(b.blocks) {
		t.Fatal("block counts differ")
	}
	for _, c := range []string{"US", "BV"} {
		ba, bb := a.Blocks(c), b.Blocks(c)
		if len(ba) != len(bb) {
			t.Fatalf("country %q block count differs", c)
		}
		for i := range ba {
			if ba[i] != bb[i] {
				t.Fatalf("country %q block %d differs", c, i)
			}
		}
	}
}

func TestClientWeights(t *testing.T) {
	// The paper's top-3 ordering must hold.
	if !(ClientWeight("US") > ClientWeight("RU") && ClientWeight("RU") > ClientWeight("DE")) {
		t.Fatal("client weights must rank US > RU > DE")
	}
	if ClientWeight("DE") <= ClientWeight("BV") {
		t.Fatal("major countries must outweigh the tail")
	}
	if ClientWeight("XX-UNKNOWN") <= 0 {
		t.Fatal("tail weight must be positive so ~200 countries appear")
	}
}

func TestBigCountriesGetMoreSpace(t *testing.T) {
	if len(testDB.Blocks("US")) <= len(testDB.Blocks("BV")) {
		t.Fatal("US must hold more address space than Bouvet Island")
	}
}

func BenchmarkCountryLookup(b *testing.B) {
	r := simtime.Rand(9, "geo-bench")
	ips := make([]netip.Addr, 1024)
	for i := range ips {
		ips[i] = testDB.RandomIP(r, "US")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testDB.Country(ips[i%len(ips)])
	}
}
