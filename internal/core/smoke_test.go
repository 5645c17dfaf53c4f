package core

import (
	"testing"
)

// testEnv is a fast configuration for unit tests.
func testEnv() *Env {
	return &Env{Scale: 2000, Seed: 7, AlexaN: 50_000, ProofRounds: 1}
}

// sharedTestEnv is reused across core tests; building the Alexa list
// and databases once keeps the suite fast.
var sharedTestEnv = testEnv()

func runExperiment(t *testing.T, id string) *Report {
	t.Helper()
	rep, err := Run(id, sharedTestEnv)
	if err != nil {
		t.Fatalf("experiment %s: %v", id, err)
	}
	if rep.ID != id || len(rep.Rows) == 0 {
		t.Fatalf("experiment %s: empty report %+v", id, rep)
	}
	t.Logf("\n%s", rep)
	return rep
}

func TestRegistryAndUnknown(t *testing.T) {
	if len(Experiments()) == 0 {
		t.Fatal("no experiments registered")
	}
	if _, err := Run("nope", sharedTestEnv); err == nil {
		t.Fatal("unknown experiment must fail")
	}
	for _, id := range Experiments() {
		if Title(id) == "" {
			t.Fatalf("experiment %s has no title", id)
		}
	}
}

func TestTable1(t *testing.T) {
	rep := runExperiment(t, "table1")
	if len(rep.Rows) != 12 {
		t.Fatalf("table1 rows: %d want 12", len(rep.Rows))
	}
	// Spot-check the circuit bound row.
	found := false
	for _, r := range rep.Rows {
		if r.Value.Value == 651 {
			found = true
		}
	}
	if !found {
		t.Fatal("651-circuit bound missing")
	}
}

func TestFig1(t *testing.T) {
	rep := runExperiment(t, "fig1")
	var total, initial, subsequent float64
	for _, r := range rep.Rows {
		switch r.Label {
		case "(a) total streams":
			total = r.Value.Value
		case "(a) initial":
			initial = r.Value.Value
		case "(a) subsequent":
			subsequent = r.Value.Value
		}
	}
	if total <= 0 {
		t.Fatal("no streams inferred")
	}
	// Shape: initial ≈ 5% of total, subsequent dominates (Figure 1a).
	frac := initial / total
	if frac < 0.02 || frac > 0.12 {
		t.Fatalf("initial share %v, want ~0.05", frac)
	}
	if subsequent < initial*5 {
		t.Fatal("subsequent streams must dominate")
	}
	// Paper-scale magnitude: ~2e9 streams within a factor of 3.
	if total < 0.7e9 || total > 6e9 {
		t.Fatalf("total streams %v, want ~2.1e9", total)
	}
}

func TestTable4(t *testing.T) {
	rep := runExperiment(t, "table4")
	vals := map[string]float64{}
	for _, r := range rep.Rows {
		vals[r.Label] = r.Value.Value
	}
	// Shape: ~517 TiB/day, ~148M conns, ~1.29G circuits (factor 3).
	if v := vals["Data (TiB)"]; v < 150 || v > 1600 {
		t.Fatalf("data: %v TiB, want ~517", v)
	}
	if v := vals["Connections (x10^6)"]; v < 50 || v > 450 {
		t.Fatalf("connections: %v M, want ~148", v)
	}
	if v := vals["Circuits (x10^6)"]; v < 400 || v > 4000 {
		t.Fatalf("circuits: %v M, want ~1286", v)
	}
}
