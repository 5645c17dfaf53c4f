package alexa

import (
	"fmt"
	"strings"
)

// Matcher maps a registered domain to a histogram bin, the operation
// behind PrivCount's set-membership counting (§3.1: "we add support for
// counting set membership using PrivCount histograms"). Bin layout is
// fixed at construction; Match is O(1) per domain.
type Matcher struct {
	labels []string
	// byDomain maps exact domains to a bin.
	byDomain map[string]int
	// byTLD maps a domain's TLD to a bin (wildcard *.tld matching);
	// only used when wildcards are enabled.
	byTLD map[string]int
	// tldRestrict, when non-nil, restricts byTLD matching to domains on
	// the list (the Figure 3 "Alexa only" variant).
	tldRestrict *List
	otherBin    int
}

// Labels returns the bin labels; the last label is always "other".
func (m *Matcher) Labels() []string {
	out := make([]string, len(m.labels))
	copy(out, m.labels)
	return out
}

// Match returns the bin index for a registered domain.
func (m *Matcher) Match(domain string) int {
	domain = normalizeHost(domain)
	if bin, ok := m.byDomain[domain]; ok {
		return bin
	}
	if m.byTLD != nil {
		if m.tldRestrict != nil && !m.tldRestrict.Contains(domain) {
			return m.otherBin
		}
		if bin, ok := m.byTLD[TLD(domain)]; ok {
			return bin
		}
	}
	return m.otherBin
}

// RankSetMatcher builds the Figure 2 (top) histogram: rank ranges
// (0,10], (10,100], (100,1k], (1k,10k], (10k,100k], (100k,1m], a
// dedicated torproject.org bin, and "other". Set i>0 contains the first
// 10^(i+1) sites excluding those in set i−1 (§4.3).
func RankSetMatcher(l *List) *Matcher {
	boundaries := []int{10, 100, 1000, 10000, 100000, 1000000}
	var labels []string
	prev := 0
	for _, b := range boundaries {
		if prev >= l.N() {
			break
		}
		labels = append(labels, fmt.Sprintf("(%s,%s]", humanRank(prev), humanRank(b)))
		prev = b
	}
	labels = append(labels, "torproject.org", "other")
	m := &Matcher{
		labels:   labels,
		byDomain: make(map[string]int, l.N()),
		otherBin: len(labels) - 1,
	}
	torBin := len(labels) - 2
	for rank := 1; rank <= l.N(); rank++ {
		dom := l.Domain(rank)
		if dom == "torproject.org" {
			m.byDomain[dom] = torBin
			continue
		}
		bin := 0
		for bin < len(boundaries) && rank > boundaries[bin] {
			bin++
		}
		if bin < len(boundaries) {
			m.byDomain[dom] = bin
		}
	}
	return m
}

func humanRank(r int) string {
	switch {
	case r >= 1000000:
		return fmt.Sprintf("%dm", r/1000000)
	case r >= 1000:
		return fmt.Sprintf("%dk", r/1000)
	default:
		return fmt.Sprintf("%d", r)
	}
}

// SiblingSetMatcher builds the Figure 2 (bottom) histogram: one bin per
// top-10 site family (all list entries containing the site's basename),
// plus duckduckgo, torproject, and "other". When a domain belongs to
// multiple families (e.g. a hypothetical "googlefacebook.com") the
// earlier bin wins, matching a first-match counter implementation.
func SiblingSetMatcher(l *List) *Matcher {
	type fam struct{ label, basename string }
	fams := []fam{
		{"google (1)", "google"},
		{"youtube (2)", "youtube"},
		{"facebook (3)", "facebook"},
		{"baidu (4)", "baidu"},
		{"wikipedia (5)", "wikipedia"},
		{"yahoo (6)", "yahoo"},
		{"reddit (8)", "reddit"},
		{"qq (9)", "qq"},
		{"amazon (10)", "amazon"},
		{"duckduckgo", "duckduckgo"},
		{"torproject", "torproject"},
	}
	labels := make([]string, 0, len(fams)+1)
	for _, f := range fams {
		labels = append(labels, f.label)
	}
	labels = append(labels, "other")
	m := &Matcher{
		labels:   labels,
		byDomain: make(map[string]int),
		otherBin: len(labels) - 1,
	}
	for i, f := range fams {
		for _, dom := range l.Siblings(f.basename) {
			if _, taken := m.byDomain[dom]; !taken {
				m.byDomain[dom] = i
			}
		}
	}
	return m
}

// Figure3TLDs are the TLDs measured in Figure 3: every TLD with more
// than 10⁴ entries in the top-1M list — the three main TLDs and 11
// country TLDs.
var Figure3TLDs = []string{"com", "org", "net", "br", "cn", "de", "fr", "in", "ir", "it", "jp", "pl", "ru", "uk"}

// TLDMatcher builds a Figure 3 histogram: one wildcard *.tld bin per
// given TLD plus "other". If alexaOnly is non-nil, only domains on the
// list match the TLD bins (the second Figure 3 measurement); a separate
// torproject.org bin is used in that variant, mirroring the paper
// ("our implementation of wildcard matching restricted us from doing so
// when measuring all sites").
func TLDMatcher(tlds []string, alexaOnly *List) *Matcher {
	labels := make([]string, 0, len(tlds)+2)
	for _, t := range tlds {
		labels = append(labels, "."+strings.TrimPrefix(t, "."))
	}
	byTLD := make(map[string]int, len(tlds))
	for i, t := range tlds {
		byTLD[strings.TrimPrefix(t, ".")] = i
	}
	m := &Matcher{byTLD: byTLD, tldRestrict: alexaOnly}
	if alexaOnly != nil {
		m.byDomain = map[string]int{"torproject.org": len(labels)}
		labels = append(labels, "torproject.org")
	} else {
		m.byDomain = map[string]int{}
	}
	labels = append(labels, "other")
	m.labels = labels
	m.otherBin = len(labels) - 1
	return m
}

// CategoryMatcher builds the Alexa-categories histogram (§4.3): one bin
// per category list (each limited to 50 sites) plus "other" for domains
// in no measured category.
func CategoryMatcher(l *List) *Matcher {
	cats := Categories()
	labels := append(append([]string{}, cats...), "other")
	m := &Matcher{
		labels:   labels,
		byDomain: make(map[string]int),
		otherBin: len(labels) - 1,
	}
	for i, c := range cats {
		for _, dom := range l.CategoryList(c) {
			if _, taken := m.byDomain[dom]; !taken {
				m.byDomain[dom] = i
			}
		}
	}
	return m
}
