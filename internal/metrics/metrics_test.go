package metrics

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"repro/internal/event"
)

func dirCircuit() *event.CircuitEnd {
	return &event.CircuitEnd{
		Kind:     event.CircuitDirectory,
		ClientIP: netip.MustParseAddr("192.0.2.1"),
	}
}

func TestEstimatorCountsOnlyDirectoryCircuits(t *testing.T) {
	e, err := NewEstimator(0.5)
	if err != nil {
		t.Fatal(err)
	}
	e.ConsensusShare = 1
	e.Observe(dirCircuit())
	e.Observe(&event.CircuitEnd{Kind: event.CircuitData})
	e.Observe(&event.ConnectionEnd{})
	e.Observe(&event.StreamEnd{})
	if e.requests != 1 {
		t.Fatalf("requests: %v", e.requests)
	}
}

func TestConsensusShareScalesRequests(t *testing.T) {
	e, _ := NewEstimator(0.5)
	for i := 0; i < 100; i++ {
		e.Observe(dirCircuit())
	}
	if math.Abs(e.requests-100*e.ConsensusShare) > 1e-9 {
		t.Fatalf("requests %v, want %v", e.requests, 100*e.ConsensusShare)
	}
}

func TestDailyUsersFormula(t *testing.T) {
	e, _ := NewEstimator(0.25)
	e.ConsensusShare = 1
	for i := 0; i < 1000; i++ {
		e.Observe(dirCircuit())
	}
	// 1000 requests at 25% reporting = 4000 total; /10 per client = 400.
	users, err := e.DailyUsers(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(users-400) > 1e-9 {
		t.Fatalf("users: %v want 400", users)
	}
	twoDay, _ := e.DailyUsers(2)
	if math.Abs(twoDay-200) > 1e-9 {
		t.Fatalf("two-day users: %v want 200", twoDay)
	}
}

func TestEstimatorValidation(t *testing.T) {
	for _, f := range []float64{0, -1, 1.5} {
		if _, err := NewEstimator(f); err == nil {
			t.Errorf("fraction %v must fail", f)
		}
	}
	e, _ := NewEstimator(1)
	if _, err := e.DailyUsers(0); err == nil {
		t.Fatal("zero days must fail")
	}
	e.RequestsPerClientDay = 0
	if _, err := e.DailyUsers(1); err == nil {
		t.Fatal("zero heuristic must fail")
	}
}

func TestUndercountFactor(t *testing.T) {
	if got := UndercountFactor(8.8e6, 2.2e6); math.Abs(got-4) > 1e-9 {
		t.Fatalf("undercount: %v", got)
	}
	if !math.IsInf(UndercountFactor(1, 0), 1) {
		t.Fatal("zero estimate must be infinite undercount")
	}
}

func TestRegistryCounters(t *testing.T) {
	r := NewRegistry()
	r.Inc("a/b")
	r.Add("a/b", 2.5)
	r.Add("z", 1)
	if got := r.Get("a/b"); got != 3.5 {
		t.Fatalf("a/b = %g, want 3.5", got)
	}
	if got := r.Get("missing"); got != 0 {
		t.Fatalf("missing = %g, want 0", got)
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap["z"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	var b strings.Builder
	if err := r.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "a/b 3.5\nz 1\n" {
		t.Fatalf("dump = %q", b.String())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Inc("hits")
			}
		}()
	}
	wg.Wait()
	if got := r.Get("hits"); got != 8000 {
		t.Fatalf("hits = %g, want 8000", got)
	}
}

func TestDefaultRegistryIsShared(t *testing.T) {
	name := "test/default-registry-probe"
	before := Default().Get(name)
	Default().Inc(name)
	if got := Default().Get(name); got != before+1 {
		t.Fatalf("default registry did not accumulate: %g -> %g", before, got)
	}
}

// TestMetricsScrape covers the HTTP pull endpoint: counters fed into a
// registry must come back over a real scrape, in both JSON and text
// form, and later registries must win merged-name collisions.
func TestMetricsScrape(t *testing.T) {
	reg := NewRegistry()
	reg.Add("engine/psc/round-seconds", 12.5)
	reg.Inc("psc/verify-failures")
	override := NewRegistry()
	override.Add("psc/verify-failures", 3)

	addr, closeFn, err := Serve("127.0.0.1:0", reg, override)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var got map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got["engine/psc/round-seconds"] != 12.5 {
		t.Fatalf("round-seconds = %v", got["engine/psc/round-seconds"])
	}
	if got["psc/verify-failures"] != 3 {
		t.Fatalf("merged counter = %v, want the later registry's 3", got["psc/verify-failures"])
	}

	resp2, err := http.Get("http://" + addr + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := "engine/psc/round-seconds 12.5\npsc/verify-failures 3\n"
	if string(body) != want {
		t.Fatalf("text dump %q, want %q", body, want)
	}
}
