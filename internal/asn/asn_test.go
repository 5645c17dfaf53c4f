package asn

import (
	"encoding/binary"
	"net/netip"
	"testing"

	"repro/internal/geo"
	"repro/internal/simtime"
)

var (
	testGeo = geo.Build(1)
	testDB  = Build(testGeo, 1)
)

func ipOf(v uint32) netip.Addr {
	var raw [4]byte
	binary.BigEndian.PutUint32(raw[:], v)
	return netip.AddrFrom4(raw)
}

func TestLookupCoversAllCountryBlocks(t *testing.T) {
	for _, c := range []string{"US", "RU", "DE", "AE", "BV"} {
		for _, b := range testGeo.Blocks(c) {
			for _, v := range []uint32{b.Start, b.Start + 7777, b.End - 1} {
				if asn := testDB.Lookup(ipOf(v)); asn == 0 {
					t.Fatalf("address %v in %q block has no origin AS", ipOf(v), c)
				}
			}
		}
	}
}

func TestLookupOutsidePlan(t *testing.T) {
	if testDB.Lookup(netip.MustParseAddr("0.0.0.1")) != 0 {
		t.Fatal("address before plan must be unmapped")
	}
	if testDB.Lookup(netip.MustParseAddr("255.0.0.1")) != 0 {
		t.Fatal("address after plan must be unmapped")
	}
	if testDB.Lookup(netip.MustParseAddr("2001:db8::2")) != 0 {
		t.Fatal("IPv6 must be unmapped")
	}
}

func TestLongestPrefixWins(t *testing.T) {
	// Find a /24 nested inside a /20 and confirm addresses inside the
	// /24 resolve to the /24's AS while the rest of the /20 resolves to
	// the /20's AS.
	var found bool
	for _, p := range testDB.prefixes {
		if p.Len != 24 {
			continue
		}
		// Find the covering /20.
		var cover *Prefix
		for i := range testDB.prefixes {
			q := testDB.prefixes[i]
			if q.Len == 20 && q.Contains(p.Start) {
				cover = &q
				break
			}
		}
		if cover == nil || cover.ASN == p.ASN {
			continue
		}
		found = true
		if got := testDB.Lookup(ipOf(p.Start + 5)); got != p.ASN {
			t.Fatalf("inside /24: got AS%d want AS%d", got, p.ASN)
		}
		// An address in the /20 but outside the /24.
		var outside uint32
		if p.Start > cover.Start {
			outside = cover.Start
		} else {
			outside = p.End()
		}
		if outside < cover.End() && !p.Contains(outside) {
			got := testDB.Lookup(ipOf(outside))
			if got == p.ASN {
				t.Fatalf("outside /24 resolved to the /24's AS%d", got)
			}
		}
		break
	}
	if !found {
		t.Fatal("synthetic table contains no nested /24 with a distinct AS; longest-prefix semantics untested")
	}
}

func TestPrefixHelpers(t *testing.T) {
	p := Prefix{Start: 0x0A000000, Len: 24, ASN: 7}
	if p.End() != 0x0A000100 {
		t.Fatalf("End: %x", p.End())
	}
	if !p.Contains(0x0A0000FF) || p.Contains(0x0A000100) {
		t.Fatal("Contains")
	}
}

func TestTopASes(t *testing.T) {
	top := testDB.TopASes(1000)
	if len(top) != 1000 {
		t.Fatalf("top-1000: got %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].ConeSize > top[i-1].ConeSize {
			t.Fatal("rank list must be sorted by descending cone size")
		}
	}
	// Requesting more than available truncates.
	all := testDB.TopASes(1 << 20)
	if len(all) > 1<<20 || len(all) == 0 {
		t.Fatalf("TopASes overflow: %d", len(all))
	}
}

// totalASes is the paper's upper bound for the network-wide unique-AS
// range (§5.2: [11,708; 59,597]): the allocated AS numbers.
const totalASes = 59597

func TestOriginASesPlausible(t *testing.T) {
	n := len(testDB.byASN)
	if n < 1000 {
		t.Fatalf("too few origin ASes: %d", n)
	}
	if n >= totalASes {
		t.Fatalf("origin ASes %d must be below the AS universe %d", n, totalASes)
	}
}

func TestPrefixesByASN(t *testing.T) {
	top := testDB.TopASes(10)
	for _, info := range top {
		for _, p := range testDB.byASN[info.ASN] {
			if p.ASN != info.ASN {
				t.Fatal("Prefixes returned a foreign prefix")
			}
		}
	}
	if testDB.byASN[0xFFFFFFFF] != nil {
		t.Fatal("unknown ASN must have no prefixes")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(testGeo, 5)
	b := Build(testGeo, 5)
	if len(a.prefixes) != len(b.prefixes) {
		t.Fatal("prefix counts differ across identical seeds")
	}
	for i := 0; i < len(a.prefixes); i += 97 {
		if a.prefixes[i] != b.prefixes[i] {
			t.Fatalf("prefix %d differs", i)
		}
	}
}

func TestASDiversityAcrossClients(t *testing.T) {
	// Sampling many client IPs from big countries must traverse many
	// ASes — the paper observes ~12k distinct client ASes (§5.2).
	r := simtime.Rand(4, "asn-div")
	seen := make(map[uint32]bool)
	for i := 0; i < 20000; i++ {
		c := geo.Countries()[i%60]
		ip := testGeo.RandomIP(r, c)
		if asn := testDB.Lookup(ip); asn != 0 {
			seen[asn] = true
		}
	}
	if len(seen) < 500 {
		t.Fatalf("client AS diversity too low: %d", len(seen))
	}
}

func BenchmarkLookup(b *testing.B) {
	r := simtime.Rand(8, "asn-bench")
	ips := make([]netip.Addr, 1024)
	for i := range ips {
		ips[i] = testGeo.RandomIP(r, "US")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testDB.Lookup(ips[i%len(ips)])
	}
}
