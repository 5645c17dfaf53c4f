package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/stats"
	"repro/internal/tornet"
)

func statsInterval(v, lo, hi float64) stats.Interval {
	return stats.Interval{Value: v, Lo: lo, Hi: hi}
}

func TestBaselineUndercount(t *testing.T) {
	rep := runExperiment(t, "baseline")
	metricsEst := rowValue(t, rep, "Metrics-style estimate")
	direct := rowValue(t, rep, "Direct estimate (PSC)")
	factor := rowValue(t, rep, "Undercount factor")
	if metricsEst <= 0 || direct <= 0 {
		t.Fatal("both estimates must be positive")
	}
	// The paper's headline: the directory heuristic undercounts by ~4x.
	if factor < 1.5 || factor > 15 {
		t.Fatalf("undercount factor %v, paper: ~4x", factor)
	}
	if direct <= metricsEst {
		t.Fatal("direct measurement must exceed the heuristic estimate")
	}
}

func TestScheduleBudget(t *testing.T) {
	rep := runExperiment(t, "schedule")
	rounds := rowValue(t, rep, "Rounds authorized")
	if rounds < 15 {
		t.Fatalf("authorized rounds %v; the calendar must mostly satisfy the discipline", rounds)
	}
	eps := rowValue(t, rep, "Cumulative epsilon")
	if math.Abs(eps-0.3*rounds) > 1e-9 {
		t.Fatalf("cumulative epsilon %v for %v rounds", eps, rounds)
	}
	// No calendar conflicts: the paper's schedule is self-consistent.
	for _, n := range rep.Notes {
		if strings.Contains(n, "calendar conflict") {
			t.Fatalf("paper calendar violates the accountant: %s", n)
		}
	}
}

// TestRunPrivCountErrors exercises harness validation paths.
func TestRunPrivCountErrors(t *testing.T) {
	env := sharedTestEnv
	// Duplicate statistic names must fail allocation.
	_, err := env.RunPrivCount(PrivCountRun{
		Fractions: tornet.StudyFractions(),
		Counters: []CounterSpec{
			{Name: "x", Bins: []string{""}, Sensitivity: 1},
			{Name: "x", Bins: []string{""}, Sensitivity: 1},
		},
		Handle: func(event.Event, Incrementer) {},
	})
	if err == nil {
		t.Fatal("duplicate statistics must fail")
	}
	// Invalid fractions must fail the consensus build.
	bad := tornet.StudyFractions()
	bad.Exit = 2
	_, err = env.RunPrivCount(PrivCountRun{
		Fractions: bad,
		Counters:  []CounterSpec{{Name: "x", Bins: []string{""}, Sensitivity: 1}},
		Handle:    func(event.Event, Incrementer) {},
	})
	if err == nil {
		t.Fatal("invalid fractions must fail")
	}
}

func TestRunPSCErrors(t *testing.T) {
	env := sharedTestEnv
	_, err := env.RunPSC(PSCRun{
		Fractions:   tornet.StudyFractions(),
		Item:        func(event.Event) (string, bool) { return "", false },
		Sensitivity: -1,
	})
	if err == nil {
		t.Fatal("negative sensitivity must fail noise calibration")
	}
}

// TestDeterministicReports: identical env parameters yield identical
// simulation outcomes up to protocol noise. We check the deterministic
// parts (the simulated event totals feeding a zero-noise counter).
func TestDeterministicReports(t *testing.T) {
	run := func() float64 {
		env := &Env{Scale: 4000, Seed: 99, AlexaN: 20000, ProofRounds: 1}
		res, err := env.RunPrivCount(PrivCountRun{
			Fractions: tornet.StudyFractions(),
			Counters:  []CounterSpec{{Name: "streams", Bins: []string{""}, Sensitivity: 0}},
			Handle: func(ev event.Event, inc Incrementer) {
				if _, ok := ev.(*event.StreamEnd); ok {
					inc("streams", 0, 1)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Values["streams"][0]
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different event streams: %v vs %v", a, b)
	}
	if a == 0 {
		t.Fatal("no streams simulated")
	}
}

// TestEnvNetemFleet: an Env with a WAN-emulation profile and adaptive
// windows still runs protocol rounds correctly — the whole fleet's
// traffic flows through shaped pipes and negotiated windows.
func TestEnvNetemFleet(t *testing.T) {
	env := &Env{
		Scale: 4000, Seed: 99, AlexaN: 20000, ProofRounds: 1,
		Netem: "lan,seed=5", AdaptiveWindow: true, WindowCap: 4 << 20,
	}
	res, err := env.RunPrivCount(PrivCountRun{
		Fractions: tornet.StudyFractions(),
		Counters:  []CounterSpec{{Name: "streams", Bins: []string{""}, Sensitivity: 0}},
		Handle: func(ev event.Event, inc Incrementer) {
			if _, ok := ev.(*event.StreamEnd); ok {
				inc("streams", 0, 1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["streams"][0] == 0 {
		t.Fatal("no streams counted over the shaped fleet")
	}
	// A bad profile spec must surface as a round error, not a hang.
	bad := &Env{Scale: 4000, Seed: 1, AlexaN: 5000, Netem: "no-such-profile"}
	_, err = bad.RunPrivCount(PrivCountRun{
		Fractions: tornet.StudyFractions(),
		Counters:  []CounterSpec{{Name: "x", Bins: []string{""}, Sensitivity: 1}},
		Handle:    func(event.Event, Incrementer) {},
	})
	if err == nil {
		t.Fatal("unknown netem profile must fail the run")
	}
}

// TestEnvCaching: the Alexa list and databases build once per env.
func TestEnvCaching(t *testing.T) {
	env := &Env{Scale: 4000, Seed: 1, AlexaN: 5000, ProofRounds: 1}
	l1 := env.Alexa()
	l2 := env.Alexa()
	if l1 != l2 {
		t.Fatal("alexa list must be cached")
	}
	g1, a1 := env.Databases()
	g2, a2 := env.Databases()
	if g1 != g2 || a1 != a2 {
		t.Fatal("databases must be cached")
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{ID: "x", Title: "T"}
	rep.Add("row", statsInterval(1, 0, 2), "u", "p")
	rep.Note("note %d", 7)
	s := rep.String()
	for _, want := range []string{"== x — T ==", "row", "paper: p", "note: note 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, s)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	Register("table1", "dup", nil)
}
