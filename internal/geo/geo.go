// Package geo provides a synthetic MaxMind-GeoLite2-style IP-to-country
// database. The paper resolves client IPs to countries at the data
// collectors to build the per-country usage histograms of Figure 4 and
// the unique-country PSC count of Table 5; this package reproduces the
// lookup semantics (range database, binary search) over a deterministic
// synthetic address plan.
package geo

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"sort"

	"repro/internal/simtime"
)

// NumCountries is the worldwide country count the paper uses as the
// upper bound for the unique-country measurement (§5.2).
const NumCountries = 250

// isoCodes lists 250 ISO 3166-1 alpha-2 codes. The first entries are
// ordered so that the countries the paper's Figure 4 highlights exist;
// the rest complete the population.
var isoCodes = []string{
	"US", "RU", "DE", "UA", "FR", "GB", "CA", "NL", "PL", "ES",
	"AE", "BR", "MX", "AR", "SE", "IT", "JP", "IN", "IR", "CN",
	"VE", "NA", "NZ", "BV", "SC", "IM", "SK", "VG", "PR", "NI",
	"BM", "SS", "AU", "AT", "BE", "CH", "CZ", "DK", "FI", "GR",
	"HU", "ID", "IE", "IL", "KR", "MY", "NO", "PT", "RO", "TH",
	"TR", "TW", "VN", "ZA", "CL", "CO", "PE", "EC", "UY", "PY",
	"BO", "CR", "PA", "GT", "HN", "SV", "DO", "CU", "JM", "HT",
	"TT", "BB", "BS", "BZ", "GY", "SR", "AW", "CW", "KY", "TC",
	"AG", "DM", "GD", "KN", "LC", "VC", "AI", "MS", "GP", "MQ",
	"GF", "PM", "WF", "PF", "NC", "VU", "FJ", "SB", "PG", "TO",
	"WS", "KI", "TV", "NR", "PW", "FM", "MH", "CK", "NU", "TK",
	"AS", "GU", "MP", "UM", "PH", "SG", "BN", "KH", "LA", "MM",
	"BD", "BT", "LK", "MV", "NP", "PK", "AF", "KZ", "KG", "TJ",
	"TM", "UZ", "MN", "KP", "HK", "MO", "TL", "IQ", "JO", "KW",
	"LB", "OM", "QA", "SA", "SY", "YE", "BH", "IL2", "PS", "CY",
	"AM", "AZ", "GE", "BY", "MD", "LT", "LV", "EE", "AL", "BA",
	"BG", "HR", "MK", "ME", "RS", "SI", "XK", "AD", "LI", "MC",
	"SM", "VA", "MT", "IS", "FO", "GL", "GI", "LU", "JE", "GG",
	"AX", "SJ", "DZ", "AO", "BJ", "BW", "BF", "BI", "CM", "CV",
	"CF", "TD", "KM", "CG", "CD", "CI", "DJ", "EG", "GQ", "ER",
	"ET", "GA", "GM", "GH", "GN", "GW", "KE", "LS", "LR", "LY",
	"MG", "MW", "ML", "MR", "MU", "YT", "MA", "MZ", "NE", "NG",
	"RE", "RW", "SH", "ST", "SN", "SL", "SO", "SZ", "TZ", "TG",
	"TN", "UG", "EH", "ZM", "ZW", "SD", "TF", "HM", "IO", "CX",
	"CC", "NF", "PN", "GS", "FK", "AQ", "CQ", "ZZ", "XA", "XB",
}

func init() {
	if len(isoCodes) != NumCountries {
		panic(fmt.Sprintf("geo: have %d country codes, want %d", len(isoCodes), NumCountries))
	}
}

// Countries returns all country codes in the database.
func Countries() []string {
	out := make([]string, len(isoCodes))
	copy(out, isoCodes)
	return out
}

// Block is a contiguous IPv4 range [Start, End) assigned to a country.
type Block struct {
	Start, End uint32
	Country    string
}

// DB is a range-based IP-to-country database.
type DB struct {
	blocks    []Block            // sorted by Start, non-overlapping
	byCountry map[string][]Block // country -> its blocks
}

// Build constructs the synthetic address plan: each country receives a
// number of /16 blocks proportional to its synthetic internet footprint
// (minimum one), scattered deterministically through 1.0.0.0/8 ..
// 223.0.0.0/8 space.
func Build(seed uint64) *DB {
	r := simtime.Rand(seed, "geoip")
	// Footprint weights: a few large countries hold most address space.
	weights := make([]float64, len(isoCodes))
	for i := range isoCodes {
		// Zipf-ish decay by position with a floor.
		weights[i] = 1.0 / float64(i+1)
	}
	const totalBlocks = 4096
	var sumW float64
	for _, w := range weights {
		sumW += w
	}

	// Assign block counts, minimum 1 per country.
	counts := make([]int, len(isoCodes))
	assigned := 0
	for i, w := range weights {
		c := int(w / sumW * float64(totalBlocks))
		if c < 1 {
			c = 1
		}
		counts[i] = c
		assigned += c
	}

	// Lay blocks out in a deterministic shuffled order of /16 indices.
	idx := make([]int, 0, assigned)
	for i, c := range counts {
		for j := 0; j < c; j++ {
			idx = append(idx, i)
		}
	}
	// Fisher-Yates with the seeded generator.
	for i := len(idx) - 1; i > 0; i-- {
		j := int(r.Uint64() % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}

	db := &DB{byCountry: make(map[string][]Block, len(isoCodes))}
	base := uint32(1) << 24 // start at 1.0.0.0
	for k, countryIdx := range idx {
		start := base + uint32(k)<<16
		b := Block{Start: start, End: start + 1<<16, Country: isoCodes[countryIdx]}
		db.blocks = append(db.blocks, b)
		db.byCountry[b.Country] = append(db.byCountry[b.Country], b)
	}
	sort.Slice(db.blocks, func(i, j int) bool { return db.blocks[i].Start < db.blocks[j].Start })
	return db
}

// Country resolves an IPv4 address to its country code, or "" when the
// address is outside every block (or not IPv4).
func (db *DB) Country(ip netip.Addr) string {
	ip = ip.Unmap()
	if !ip.Is4() {
		return ""
	}
	v := binary.BigEndian.Uint32(ip.AsSlice())
	i := sort.Search(len(db.blocks), func(i int) bool { return db.blocks[i].End > v })
	if i < len(db.blocks) && db.blocks[i].Start <= v {
		return db.blocks[i].Country
	}
	return ""
}

// Blocks returns the blocks assigned to a country (nil if unknown).
func (db *DB) Blocks(country string) []Block { return db.byCountry[country] }

// RandomIP draws an address uniformly from the country's blocks using
// the provided generator. It panics if the country has no blocks; every
// ISO code in Countries() has at least one.
func (db *DB) RandomIP(r *rand.Rand, country string) netip.Addr {
	blocks := db.byCountry[country]
	if len(blocks) == 0 {
		panic("geo: no blocks for country " + country)
	}
	b := blocks[r.IntN(len(blocks))]
	v := b.Start + uint32(r.Uint64N(uint64(b.End-b.Start)))
	var raw [4]byte
	binary.BigEndian.PutUint32(raw[:], v)
	return netip.AddrFrom4(raw)
}

// ClientWeight returns the relative share of Tor clients originating in
// each country, calibrated so the paper's Figure 4 leaders (US, RU, DE)
// dominate. Countries beyond the head carry a thin uniform tail so that
// clients appear from ~200 countries in a day (§5.2).
func ClientWeight(country string) float64 {
	if w, ok := clientWeights[country]; ok {
		return w
	}
	return 0.02
}

// clientWeights is the head of the client-origin distribution, in
// percent-like units (only ratios matter).
var clientWeights = map[string]float64{
	"US": 16.0, "RU": 13.0, "DE": 11.5, "UA": 5.0, "FR": 4.8,
	"GB": 4.0, "CA": 2.8, "NL": 2.6, "PL": 2.4, "ES": 2.2,
	"AE": 2.0, // few connections, but see the circuit anomaly in workload
	"BR": 1.9, "MX": 1.4, "AR": 1.2, "SE": 1.2, "IT": 1.8,
	"JP": 1.5, "IN": 1.6, "IR": 1.3, "CN": 0.9,
	"VE": 1.0, "NZ": 0.6, "SC": 0.3, "SK": 0.5, "CZ": 0.8,
	"AT": 0.8, "CH": 0.9, "AU": 1.1, "FI": 0.5, "NO": 0.5,
	"DK": 0.5, "BE": 0.7, "PT": 0.5, "RO": 0.7, "GR": 0.5,
	"HU": 0.5, "TR": 0.8, "IL": 0.5, "KR": 0.6, "TW": 0.4,
	"HK": 0.4, "SG": 0.4, "ID": 0.5, "TH": 0.4, "VN": 0.4,
	"ZA": 0.4, "EG": 0.3, "NG": 0.2, "KE": 0.15, "MA": 0.15,
}
