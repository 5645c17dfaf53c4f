// Package asn provides a synthetic CAIDA-style IP-to-AS database: a
// pfx2as prefix table with longest-prefix-match lookup and an AS rank
// list ordered by customer-cone size. The paper maps client IPs to
// autonomous systems with the CAIDA Routeviews pfx2as dataset and checks
// the top-1000 ASes by CAIDA rank for "hotspots" (§5.2).
package asn

import (
	"encoding/binary"
	"net/netip"
	"sort"

	"repro/internal/geo"
	"repro/internal/simtime"
)

// Prefix is one pfx2as entry: an IPv4 prefix and its origin AS.
type Prefix struct {
	Start uint32
	Len   int // prefix length in bits
	ASN   uint32
}

// End returns one past the last address covered by the prefix.
func (p Prefix) End() uint32 {
	size := uint32(1) << (32 - p.Len)
	return p.Start + size
}

// Contains reports whether the prefix covers the address.
func (p Prefix) Contains(v uint32) bool { return v >= p.Start && v < p.End() }

// DB is the prefix table with rank metadata.
type DB struct {
	prefixes []Prefix // sorted by (Start, Len)
	rank     []ASInfo // sorted by descending cone size
	byASN    map[uint32][]Prefix
}

// ASInfo describes one AS in the rank list.
type ASInfo struct {
	ASN uint32
	// ConeSize is the number of ASes in this AS's customer cone, the
	// quantity CAIDA ranks by.
	ConeSize int
}

// Build subdivides each GeoIP country block into AS prefixes. Every /16
// country block is split into /18.. /22 prefixes assigned to ASes drawn
// from the country's AS pool, with some more-specific /24 announcements
// nested inside to exercise longest-prefix matching, as in real BGP
// tables.
func Build(g *geo.DB, seed uint64) *DB {
	r := simtime.Rand(seed, "asn-prefixes")
	db := &DB{byASN: make(map[uint32][]Prefix)}

	// Give each country a pool of AS numbers; pool size scales with the
	// country's address footprint so big countries host many ASes.
	nextASN := uint32(1)
	countryAS := make(map[string][]uint32)
	for _, c := range geo.Countries() {
		blocks := g.Blocks(c)
		n := 4 * len(blocks)
		if n < 2 {
			n = 2
		}
		pool := make([]uint32, n)
		for i := range pool {
			pool[i] = nextASN
			nextASN++
		}
		countryAS[c] = pool
	}
	for _, c := range geo.Countries() {
		blocks := g.Blocks(c)
		pool := countryAS[c]
		// Prefix assignment within a country is heavy-tailed: a few
		// large eyeball networks originate most of the address space,
		// as in the real routing table. This is what concentrates ~half
		// of client activity in the top-ranked ASes (§5.2).
		zipf := simtime.NewZipf(len(pool), 1.1)
		for _, b := range blocks {
			// Split the /16 into /20s; occasionally nest a /24.
			for off := uint32(0); off < 1<<16; off += 1 << 12 {
				asn := pool[zipf.Rank(r)-1]
				p := Prefix{Start: b.Start + off, Len: 20, ASN: asn}
				db.prefixes = append(db.prefixes, p)
				db.byASN[asn] = append(db.byASN[asn], p)
				if r.Float64() < 0.25 {
					more := pool[zipf.Rank(r)-1]
					sp := Prefix{Start: b.Start + off + uint32(r.Uint64()%16)<<8, Len: 24, ASN: more}
					db.prefixes = append(db.prefixes, sp)
					db.byASN[more] = append(db.byASN[more], sp)
				}
			}
		}
	}
	sort.Slice(db.prefixes, func(i, j int) bool {
		if db.prefixes[i].Start != db.prefixes[j].Start {
			return db.prefixes[i].Start < db.prefixes[j].Start
		}
		return db.prefixes[i].Len < db.prefixes[j].Len
	})

	// Synthetic customer-cone sizes: proportional to announced address
	// coverage, so CAIDA-style rank correlates with network size across
	// all countries rather than following AS-number order.
	db.rank = make([]ASInfo, 0, len(db.byASN))
	for asn, prefixes := range db.byASN {
		covered := 0
		for _, p := range prefixes {
			covered += int(p.End() - p.Start)
		}
		db.rank = append(db.rank, ASInfo{ASN: asn, ConeSize: covered >> 12})
	}
	sort.Slice(db.rank, func(i, j int) bool {
		if db.rank[i].ConeSize != db.rank[j].ConeSize {
			return db.rank[i].ConeSize > db.rank[j].ConeSize
		}
		return db.rank[i].ASN < db.rank[j].ASN
	})
	if len(db.rank) > 4096 {
		db.rank = db.rank[:4096]
	}
	return db
}

// Lookup resolves an IPv4 address to its origin AS via longest-prefix
// match, returning 0 when no prefix covers it.
func (db *DB) Lookup(ip netip.Addr) uint32 {
	ip = ip.Unmap()
	if !ip.Is4() {
		return 0
	}
	v := binary.BigEndian.Uint32(ip.AsSlice())
	// Find the last prefix with Start <= v, then walk back over the few
	// candidates that might still contain v, keeping the longest.
	i := sort.Search(len(db.prefixes), func(i int) bool { return db.prefixes[i].Start > v })
	best := uint32(0)
	bestLen := -1
	for j := i - 1; j >= 0; j-- {
		p := db.prefixes[j]
		if p.Contains(v) {
			if p.Len > bestLen {
				best, bestLen = p.ASN, p.Len
			}
			continue
		}
		// Prefixes are sorted by start; once we are more than a /16
		// behind v no earlier prefix (max size /16 here) can cover it.
		if v-p.Start >= 1<<16 {
			break
		}
	}
	return best
}

// TopASes returns the n highest-ranked ASes by customer-cone size, the
// population PrivCount's AS histogram measures (§5.2).
func (db *DB) TopASes(n int) []ASInfo {
	if n > len(db.rank) {
		n = len(db.rank)
	}
	out := make([]ASInfo, n)
	copy(out, db.rank[:n])
	return out
}
