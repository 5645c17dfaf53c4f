package alexa

import (
	"fmt"
	"strings"

	"repro/internal/simtime"
)

// Site is one entry of the synthetic top sites list.
type Site struct {
	Domain   string
	Category string
}

// List is a generated top-N sites list with rank lookup.
type List struct {
	sites    []Site
	byDomain map[string]int32 // domain -> 1-based rank
	psl      *PublicSuffixList
}

// Config controls list generation.
type Config struct {
	// N is the list size; the paper uses the top 1 million.
	N int
	// Seed makes generation reproducible.
	Seed uint64
}

// Planted constants from the paper (§4.3): the top-10 sites of the
// 2017-12-21 Alexa snapshot, duckduckgo (default Tor Browser search
// engine) at rank 342, and torproject.org at rank 10,244.
var plantedRanks = map[int]string{
	1:     "google.com",
	2:     "youtube.com",
	3:     "facebook.com",
	4:     "baidu.com",
	5:     "wikipedia.org",
	6:     "yahoo.com",
	7:     "google.co.in",
	8:     "reddit.com",
	9:     "qq.com",
	10:    "amazon.com",
	342:   "duckduckgo.com",
	10244: "torproject.org",
}

// siblingFamilies fixes how many list entries contain each top-10 site's
// basename. The paper reports the google family at 212 sites and reddit
// and qq at 3 each; the remaining sizes are plausible interpolations.
var siblingFamilies = map[string]int{
	"google":     212,
	"youtube":    12,
	"facebook":   16,
	"baidu":      8,
	"wikipedia":  24,
	"yahoo":      30,
	"reddit":     3,
	"qq":         3,
	"amazon":     40,
	"duckduckgo": 1,
	"torproject": 1,
}

// tldWeights drives the list's TLD composition. Every TLD in the
// Figure 3 measurement must appear in more than 10⁴ of 10⁶ entries;
// "other" TLDs fill the remainder.
var tldWeights = []struct {
	tld    string
	weight float64
}{
	{"com", 0.44}, {"org", 0.05}, {"net", 0.05},
	{"ru", 0.055}, {"de", 0.045}, {"uk", 0.028}, {"jp", 0.027},
	{"br", 0.024}, {"in", 0.023}, {"fr", 0.023}, {"it", 0.02},
	{"pl", 0.018}, {"cn", 0.018}, {"ir", 0.013},
	// long tail of other TLDs
	{"io", 0.02}, {"info", 0.02}, {"es", 0.015}, {"nl", 0.015},
	{"se", 0.012}, {"ca", 0.012}, {"au", 0.012}, {"us", 0.011},
	{"cz", 0.01}, {"ua", 0.01}, {"tr", 0.01}, {"kr", 0.01},
	{"mx", 0.01}, {"gr", 0.008}, {"ro", 0.008}, {"hu", 0.008},
	{"biz", 0.008}, {"co", 0.008}, {"edu", 0.006}, {"ar", 0.006},
	{"cl", 0.006}, {"id", 0.006}, {"my", 0.006}, {"th", 0.006},
	{"vn", 0.006}, {"za", 0.006}, {"pt", 0.005}, {"fi", 0.005},
	{"dk", 0.005}, {"no", 0.005}, {"ch", 0.005}, {"at", 0.005},
	{"be", 0.005}, {"sk", 0.004}, {"il", 0.004}, {"tw", 0.004},
}

// Categories mirror the Alexa "top sites by category" lists, which are
// limited to 50 sites each (§4.3). amazon.com is planted in Shopping.
var categoryNames = []string{
	"Arts", "Business", "Computers", "Games", "Health", "Home",
	"Kids", "News", "Recreation", "Reference", "Regional", "Science",
	"Shopping", "Society", "Sports", "Adult",
}

// CategoryListSize is Alexa's per-category limit.
const CategoryListSize = 50

// Generate builds the synthetic list. Generation is deterministic in
// the seed: the same configuration always yields the same list.
func Generate(cfg Config) *List {
	if cfg.N <= 0 {
		panic("alexa: list size must be positive")
	}
	r := simtime.Rand(cfg.Seed, "alexa-list")
	tldChoice := make([]float64, len(tldWeights))
	for i, tw := range tldWeights {
		tldChoice[i] = tw.weight
	}
	pick := simtime.NewWeightedChoice(tldChoice)

	l := &List{
		sites:    make([]Site, cfg.N),
		byDomain: make(map[string]int32, cfg.N),
		psl:      DefaultPSL(),
	}

	used := make(map[string]bool, cfg.N)
	// Plant the fixed-rank sites first.
	for rank, dom := range plantedRanks {
		if rank <= cfg.N {
			l.sites[rank-1].Domain = dom
			used[dom] = true
		}
	}
	// Plant sibling families at pseudo-random ranks: entries whose name
	// contains the family basename, e.g. maps.google.com.br-style
	// variants registered as distinct sites (google-mail.de, google.fr).
	for _, fam := range sortedFamilyNames() {
		count := siblingFamilies[fam]
		planted := 0
		// The family root itself is already planted in the top 10.
		for _, dom := range l.sites {
			if dom.Domain != "" && strings.Contains(dom.Domain, fam) {
				planted++
			}
		}
		for variant := 0; planted < count; variant++ {
			dom := familyVariant(r, fam, variant)
			if used[dom] {
				continue // e.g. the family root planted in the top 10
			}
			// Find a free random rank for it.
			rank := int(r.Uint64()%uint64(cfg.N)) + 1
			for l.sites[rank-1].Domain != "" {
				rank = int(r.Uint64()%uint64(cfg.N)) + 1
			}
			l.sites[rank-1].Domain = dom
			used[dom] = true
			planted++
		}
	}
	// Fill the rest with synthetic names. The syllable namespace is
	// finite, so after a few random attempts fall back to a unique
	// numeric suffix instead of retrying forever.
	for i := range l.sites {
		if l.sites[i].Domain != "" {
			continue
		}
		tld := tldWeights[pick.Pick(r)].tld
		var dom string
		for attempt := 0; ; attempt++ {
			name := syntheticName(r)
			if attempt >= 4 {
				dom = fmt.Sprintf("%s%d.%s", name, i, tld)
			} else {
				dom = name + "." + tld
			}
			if !used[dom] {
				break
			}
		}
		l.sites[i].Domain = dom
		used[dom] = true
	}
	// Assign categories: roughly half the list belongs to a category
	// directory, but only the 50 best-ranked per category form the
	// measured category lists.
	for i := range l.sites {
		if l.sites[i].Domain == "torproject.org" {
			continue // the paper notes torproject.org is in no category
		}
		if r.Float64() < 0.5 {
			l.sites[i].Category = categoryNames[int(r.Uint64()%uint64(len(categoryNames)))]
		}
	}
	if idx, ok := indexOf(l.sites, "amazon.com"); ok {
		l.sites[idx].Category = "Shopping"
	}
	for i, s := range l.sites {
		l.byDomain[s.Domain] = int32(i + 1)
	}
	return l
}

func indexOf(sites []Site, dom string) (int, bool) {
	for i, s := range sites {
		if s.Domain == dom {
			return i, true
		}
	}
	return 0, false
}

// sortedFamilyNames returns family basenames in deterministic order.
func sortedFamilyNames() []string {
	names := make([]string, 0, len(siblingFamilies))
	for n := range siblingFamilies {
		names = append(names, n)
	}
	// insertion sort; tiny slice, avoids importing sort for one call
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// familyVariant generates the n-th domain containing the family
// basename. Variants are distinct for distinct n (modulo the family
// root, which the caller skips), so planting always terminates.
func familyVariant(r interface{ Uint64() uint64 }, fam string, n int) string {
	tlds := []string{"com", "de", "fr", "co.uk", "com.br", "ru", "it", "pl", "co.jp", "co.in", "net", "es", "ca", "com.mx", "nl"}
	if n < len(tlds) {
		return fmt.Sprintf("%s.%s", fam, tlds[n])
	}
	if n%2 == 0 {
		return fmt.Sprintf("%s%d.com", fam, n)
	}
	return fmt.Sprintf("%s-%s%d.com", fam, syllable(r), n)
}

var consonants = []string{"b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "st", "tr", "ch"}
var vowels = []string{"a", "e", "i", "o", "u", "ai", "ou"}

func syllable(r interface{ Uint64() uint64 }) string {
	return consonants[int(r.Uint64()%uint64(len(consonants)))] + vowels[int(r.Uint64()%uint64(len(vowels)))]
}

// syntheticName produces a pronounceable pseudo-random SLD label.
func syntheticName(r interface{ Uint64() uint64 }) string {
	n := 2 + int(r.Uint64()%3)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(syllable(r))
	}
	return b.String()
}

// N returns the list size.
func (l *List) N() int { return len(l.sites) }

// PSL returns the public-suffix list used to reduce hostnames.
func (l *List) PSL() *PublicSuffixList { return l.psl }

// Rank returns the 1-based rank of a registered domain, if listed.
func (l *List) Rank(domain string) (int, bool) {
	r, ok := l.byDomain[normalizeHost(domain)]
	return int(r), ok
}

// Domain returns the site at the given 1-based rank.
func (l *List) Domain(rank int) string {
	if rank < 1 || rank > len(l.sites) {
		return ""
	}
	return l.sites[rank-1].Domain
}

// Contains reports list membership for a registered domain.
func (l *List) Contains(domain string) bool {
	_, ok := l.Rank(domain)
	return ok
}

// Siblings returns every list entry whose domain contains the given
// basename, the construction behind the Figure 2 siblings measurement.
func (l *List) Siblings(basename string) []string {
	basename = strings.ToLower(basename)
	var out []string
	for _, s := range l.sites {
		if strings.Contains(s.Domain, basename) {
			out = append(out, s.Domain)
		}
	}
	return out
}

// CategoryList returns the up-to-50 best-ranked sites in the category,
// mirroring Alexa's per-category list limit.
func (l *List) CategoryList(category string) []string {
	var out []string
	for _, s := range l.sites {
		if s.Category == category {
			out = append(out, s.Domain)
			if len(out) == CategoryListSize {
				break
			}
		}
	}
	return out
}

// Categories returns the category names.
func Categories() []string {
	out := make([]string, len(categoryNames))
	copy(out, categoryNames)
	return out
}
