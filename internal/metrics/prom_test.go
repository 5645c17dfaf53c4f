package metrics

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"engine/psc/round-seconds": "engine_psc_round_seconds",
		"spill/mem-fallbacks":      "spill_mem_fallbacks",
		"already_fine:name":        "already_fine:name",
		"7th":                      "_7th",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGauges(t *testing.T) {
	r := NewRegistry()
	r.Set("g", 5)
	r.Set("g", 2.5) // last write wins, no accumulation
	r.Inc("c")
	if got := r.SnapshotGauges()["g"]; got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	if got := r.SnapshotGauges()["missing"]; got != 0 {
		t.Fatalf("missing gauge = %g", got)
	}
	if snap := r.Snapshot(); len(snap) != 1 {
		t.Fatalf("counters snapshot leaked gauges: %v", snap)
	}
	if snap := r.SnapshotGauges(); len(snap) != 1 || snap["g"] != 2.5 {
		t.Fatalf("gauge snapshot = %v", snap)
	}
	var b strings.Builder
	if err := r.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "c 1\ng 2.5\n" {
		t.Fatalf("dump = %q", b.String())
	}
}

// TestPrometheusScrape covers the typed exposition over a real HTTP
// scrape: counters typed counter, gauges typed gauge, names sanitized,
// reachable both by the format=prom override and by the Accept header a
// Prometheus server actually sends.
func TestPrometheusScrape(t *testing.T) {
	reg := NewRegistry()
	reg.Add("engine/psc/round-seconds", 12.5)
	reg.Set("engine/psc/last-round-ok", 1)

	addr, closeFn, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()

	get := func(url, accept string) string {
		t.Helper()
		req, err := http.NewRequest("GET", url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
			t.Fatalf("content type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	body := get("http://"+addr+"/metrics?format=prom", "")
	for _, want := range []string{
		"# TYPE engine_psc_round_seconds counter\nengine_psc_round_seconds 12.5\n",
		"# TYPE engine_psc_last_round_ok gauge\nengine_psc_last_round_ok 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}

	// The stock Prometheus scraper negotiates via Accept, no query param.
	negotiated := get("http://"+addr+"/metrics",
		"application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	if negotiated != body {
		t.Fatalf("Accept negotiation differs from format=prom:\n%s\nvs\n%s", negotiated, body)
	}
}
