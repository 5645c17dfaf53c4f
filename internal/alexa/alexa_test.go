package alexa

import (
	"strings"
	"testing"
)

// testList is shared across tests; generation of 100k sites takes well
// under a second.
var testList = Generate(Config{N: 100_000, Seed: 42})

func TestPSLRegisteredDomain(t *testing.T) {
	psl := DefaultPSL()
	cases := []struct {
		host string
		want string
		ok   bool
	}{
		{"onionoo.torproject.org", "torproject.org", true},
		{"www.amazon.com", "amazon.com", true},
		{"amazon.com", "amazon.com", true},
		{"a.b.c.example.co.uk", "example.co.uk", true},
		{"example.com.br", "example.com.br", true},
		{"google.co.in", "google.co.in", true},
		{"com", "", false},
		{"co.uk", "", false},
		{"host.unknown-tld-xyz", "", false},
		{"WWW.EXAMPLE.COM", "example.com", true},
		{"example.com.", "example.com", true},
	}
	for _, c := range cases {
		got, ok := psl.RegisteredDomain(c.host)
		if got != c.want || ok != c.ok {
			t.Errorf("RegisteredDomain(%q) = %q,%v want %q,%v", c.host, got, ok, c.want, c.ok)
		}
	}
}

func TestPSLPublicSuffix(t *testing.T) {
	psl := DefaultPSL()
	if got := psl.PublicSuffix("a.b.co.uk"); got != "co.uk" {
		t.Fatalf("longest suffix: %q", got)
	}
	if got := psl.PublicSuffix("x.example.com"); got != "com" {
		t.Fatalf("single suffix: %q", got)
	}
	if got := psl.PublicSuffix("nosuffix.zzz"); got != "" {
		t.Fatalf("unknown suffix: %q", got)
	}
	if !psl.HasSuffix("COM") || psl.HasSuffix("zzz") {
		t.Fatal("HasSuffix")
	}
}

func TestTLDExtraction(t *testing.T) {
	for host, want := range map[string]string{
		"example.com":    "com",
		"example.co.uk":  "uk",
		"Example.RU":     "ru",
		"nodots":         "",
		"trailingdot.":   "",
		"torproject.org": "org",
	} {
		if got := TLD(host); got != want {
			t.Errorf("TLD(%q) = %q want %q", host, got, want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{N: 2000, Seed: 7})
	b := Generate(Config{N: 2000, Seed: 7})
	for r := 1; r <= 2000; r++ {
		if a.Domain(r) != b.Domain(r) {
			t.Fatalf("rank %d differs across identical seeds", r)
		}
	}
	c := Generate(Config{N: 2000, Seed: 8})
	diff := 0
	for r := 11; r <= 2000; r++ { // skip planted top-10
		if a.Domain(r) != c.Domain(r) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds must give different lists")
	}
}

func TestPlantedConstants(t *testing.T) {
	l := testList
	wantTop := []string{"google.com", "youtube.com", "facebook.com", "baidu.com",
		"wikipedia.org", "yahoo.com", "google.co.in", "reddit.com", "qq.com", "amazon.com"}
	for i, dom := range wantTop {
		if got := l.Domain(i + 1); got != dom {
			t.Errorf("rank %d = %q want %q", i+1, got, dom)
		}
	}
	if r, ok := l.Rank("duckduckgo.com"); !ok || r != 342 {
		t.Errorf("duckduckgo rank %d,%v want 342", r, ok)
	}
	if r, ok := l.Rank("torproject.org"); !ok || r != 10244 {
		t.Errorf("torproject rank %d,%v want 10244", r, ok)
	}
}

func TestSiblingFamilySizes(t *testing.T) {
	l := testList
	for fam, want := range map[string]int{"google": 212, "reddit": 3, "qq": 3, "duckduckgo": 1, "torproject": 1} {
		if got := len(l.Siblings(fam)); got != want {
			t.Errorf("family %q: %d sites, want %d", fam, got, want)
		}
	}
	// google.co.in must be inside the google family (paper: "including
	// the rank 7 site google.co.in").
	found := false
	for _, d := range l.Siblings("google") {
		if d == "google.co.in" {
			found = true
		}
	}
	if !found {
		t.Fatal("google.co.in missing from google family")
	}
}

func TestListUniqueDomains(t *testing.T) {
	l := testList
	seen := make(map[string]bool, l.N())
	for r := 1; r <= l.N(); r++ {
		d := l.Domain(r)
		if d == "" {
			t.Fatalf("empty domain at rank %d", r)
		}
		if seen[d] {
			t.Fatalf("duplicate domain %q", d)
		}
		seen[d] = true
		if back, ok := l.Rank(d); !ok || back != r {
			t.Fatalf("rank round trip for %q: %d,%v", d, back, ok)
		}
	}
}

func TestListDomainsHaveKnownSuffixes(t *testing.T) {
	l := testList
	psl := l.PSL()
	for r := 1; r <= l.N(); r += 97 {
		d := l.Domain(r)
		if _, ok := psl.RegisteredDomain(d); !ok {
			t.Fatalf("list domain %q has unknown suffix", d)
		}
	}
}

func TestFigure3TLDComposition(t *testing.T) {
	l := Generate(Config{N: 1_000_000, Seed: 11})
	counts := make(map[string]int)
	for r := 1; r <= l.N(); r++ {
		counts[TLD(l.Domain(r))]++
	}
	for _, tld := range Figure3TLDs {
		if counts[tld] <= 10_000 {
			t.Errorf("TLD %q has %d entries; Figure 3 requires > 10^4", tld, counts[tld])
		}
	}
	// .com must dominate.
	if counts["com"] < 300_000 {
		t.Errorf(".com underrepresented: %d", counts["com"])
	}
}

func TestDomainOutOfRange(t *testing.T) {
	if testList.Domain(0) != "" || testList.Domain(testList.N()+1) != "" {
		t.Fatal("out-of-range ranks must return empty")
	}
	if testList.Contains("not-on-the-list-at-all.com") {
		t.Fatal("Contains on absent domain")
	}
}

func TestCategoryLists(t *testing.T) {
	l := testList
	total := 0
	for _, c := range Categories() {
		sites := l.CategoryList(c)
		if len(sites) > CategoryListSize {
			t.Fatalf("category %q exceeds %d sites", c, CategoryListSize)
		}
		total += len(sites)
	}
	if total == 0 {
		t.Fatal("no category sites generated")
	}
	// amazon.com must be in Shopping (paper measures its category share).
	inShopping := false
	for _, d := range l.CategoryList("Shopping") {
		if d == "amazon.com" {
			inShopping = true
		}
	}
	if !inShopping {
		t.Fatal("amazon.com missing from Shopping category")
	}
	// torproject.org must be in no category.
	for _, c := range Categories() {
		for _, d := range l.CategoryList(c) {
			if d == "torproject.org" {
				t.Fatal("torproject.org must not be categorized")
			}
		}
	}
}

func TestRankSetMatcher(t *testing.T) {
	l := testList
	m := RankSetMatcher(l)
	labels := m.Labels()
	if labels[len(labels)-1] != "other" || labels[len(labels)-2] != "torproject.org" {
		t.Fatalf("labels: %v", labels)
	}
	if got := m.Match("google.com"); labels[got] != "(0,10]" {
		t.Fatalf("google.com bin: %s", labels[got])
	}
	if got := m.Match("duckduckgo.com"); labels[got] != "(100,1k]" {
		t.Fatalf("duckduckgo bin: %s", labels[got])
	}
	if got := m.Match("torproject.org"); labels[got] != "torproject.org" {
		t.Fatalf("torproject bin: %s", labels[got])
	}
	if got := m.Match("definitely-not-listed.xyz"); labels[got] != "other" {
		t.Fatalf("unlisted bin: %s", labels[got])
	}
	// Rank 50000 site lands in (10k,100k].
	if got := m.Match(l.Domain(50000)); labels[got] != "(10k,100k]" {
		t.Fatalf("rank-50000 bin: %s", labels[got])
	}
}

func TestSiblingSetMatcher(t *testing.T) {
	l := testList
	m := SiblingSetMatcher(l)
	labels := m.Labels()
	if got := m.Match("amazon.com"); labels[got] != "amazon (10)" {
		t.Fatalf("amazon bin: %s", labels[got])
	}
	if got := m.Match("google.co.in"); labels[got] != "google (1)" {
		t.Fatalf("google.co.in bin: %s", labels[got])
	}
	if got := m.Match("torproject.org"); labels[got] != "torproject" {
		t.Fatalf("torproject bin: %s", labels[got])
	}
	if got := m.Match("unrelated-site.ru"); labels[got] != "other" {
		t.Fatalf("other bin: %s", labels[got])
	}
	// Every sibling of amazon matches the amazon bin.
	for _, d := range l.Siblings("amazon") {
		if got := m.Match(d); labels[got] != "amazon (10)" && !strings.Contains(d, "google") {
			t.Fatalf("sibling %q in bin %s", d, labels[got])
		}
	}
}

func TestTLDMatcherAllSites(t *testing.T) {
	m := TLDMatcher(Figure3TLDs, nil)
	labels := m.Labels()
	if got := m.Match("whatever-site.ru"); labels[got] != ".ru" {
		t.Fatalf("wildcard .ru: %s", labels[got])
	}
	if got := m.Match("not-listed-site.com"); labels[got] != ".com" {
		t.Fatalf("wildcard .com must match non-Alexa domains: %s", labels[got])
	}
	if got := m.Match("site.xyz"); labels[got] != "other" {
		t.Fatalf("unmeasured TLD: %s", labels[got])
	}
	// All-sites variant has no dedicated torproject bin.
	if got := m.Match("torproject.org"); labels[got] != ".org" {
		t.Fatalf("all-sites torproject: %s", labels[got])
	}
}

func TestTLDMatcherAlexaOnly(t *testing.T) {
	l := testList
	m := TLDMatcher(Figure3TLDs, l)
	labels := m.Labels()
	// Listed site matches its TLD bin.
	if got := m.Match("google.com"); labels[got] != ".com" {
		t.Fatalf("listed .com: %s", labels[got])
	}
	// Unlisted domain with a measured TLD falls to other.
	if got := m.Match("unlisted-site-zq.com"); labels[got] != "other" {
		t.Fatalf("unlisted .com must be other: %s", labels[got])
	}
	// torproject.org gets its dedicated bin in the Alexa variant.
	if got := m.Match("torproject.org"); labels[got] != "torproject.org" {
		t.Fatalf("alexa torproject: %s", labels[got])
	}
}

func TestCategoryMatcher(t *testing.T) {
	l := testList
	m := CategoryMatcher(l)
	labels := m.Labels()
	if got := m.Match("amazon.com"); labels[got] != "Shopping" {
		t.Fatalf("amazon category: %s", labels[got])
	}
	if got := m.Match("torproject.org"); labels[got] != "other" {
		t.Fatalf("torproject category: %s", labels[got])
	}
}

func TestUniqueSLDs(t *testing.T) {
	// Distinct registered domains on the list: the population Table 2
	// compares unique observed SLDs against.
	seen := make(map[string]bool, len(testList.sites))
	for _, s := range testList.sites {
		if d, ok := testList.psl.RegisteredDomain(s.Domain); ok {
			seen[d] = true
		}
	}
	n := len(seen)
	if n <= 0 || n > testList.N() {
		t.Fatalf("unique SLDs: %d", n)
	}
	// The list consists of registered domains, so uniques ≈ N.
	if n < testList.N()*99/100 {
		t.Fatalf("unique SLDs %d far below list size %d", n, testList.N())
	}
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate with N=0 must panic")
		}
	}()
	Generate(Config{N: 0})
}

func BenchmarkMatchRankSet(b *testing.B) {
	m := RankSetMatcher(testList)
	doms := []string{"google.com", "torproject.org", "unlisted.zz", testList.Domain(54321)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(doms[i%len(doms)])
	}
}

func BenchmarkGenerate100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(Config{N: 100_000, Seed: uint64(i)})
	}
}
