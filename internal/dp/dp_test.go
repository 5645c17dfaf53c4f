package dp

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simtime"
)

func TestStudyParams(t *testing.T) {
	p := StudyParams()
	if p.Epsilon != 0.3 || p.Delta != 1e-11 {
		t.Fatalf("study params: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// nδ must stay small for a million users (§3.2).
	if got := p.UserProtection(1e6); math.Abs(got-1e-5) > 1e-18 {
		t.Fatalf("UserProtection(1e6) = %v, want 1e-5", got)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Epsilon: 0, Delta: 1e-6},
		{Epsilon: -1, Delta: 1e-6},
		{Epsilon: math.Inf(1), Delta: 1e-6},
		{Epsilon: 1, Delta: 0},
		{Epsilon: 1, Delta: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v must be invalid", p)
		}
	}
}

func TestGaussianSigmaFormula(t *testing.T) {
	p := Params{Epsilon: 0.3, Delta: 1e-11}
	s := 20.0
	want := s * math.Sqrt(2*math.Log(1.25/1e-11)) / 0.3
	if got := p.GaussianSigma(s); math.Abs(got-want) > 1e-9 {
		t.Fatalf("sigma: got %v want %v", got, want)
	}
	if p.GaussianSigma(0) != 0 || p.GaussianSigma(-1) != 0 {
		t.Fatal("non-positive sensitivity must yield zero sigma")
	}
	// Sigma must shrink as epsilon grows.
	if (Params{Epsilon: 1, Delta: 1e-11}).GaussianSigma(s) >= p.GaussianSigma(s) {
		t.Fatal("larger epsilon must mean less noise")
	}
}

func TestTable1ActionBounds(t *testing.T) {
	b := StudyBounds()
	want := []struct {
		action   Action
		daily    float64
		defining string
	}{
		{ActionConnectDomain, 20, "web"},
		{ActionExitData, 400 * megabyte, "web"},
		{ActionNewIPFirstDay, 4, "n/a"},
		{ActionNewIPLaterDay, 3, "n/a"},
		{ActionTCPConnect, 12, "n/a"},
		{ActionCircuit, 651, "chat"},
		{ActionEntryData, 407 * megabyte, "web"},
		{ActionDescUpload, 450, "onionsite"},
		{ActionDescUploadNewAddress, 3, "onionsite"},
		{ActionDescFetch, 30, "onionsite"},
		{ActionRendConnect, 180, "chat"},
		{ActionRendData, 400 * megabyte, "web"},
	}
	for _, w := range want {
		row, ok := b[w.action]
		if !ok {
			t.Errorf("missing bound for %v", w.action)
			continue
		}
		if math.Abs(row.Daily-w.daily) > 1e-6 {
			t.Errorf("%v: daily %v want %v", w.action, row.Daily, w.daily)
		}
		if row.Defining != w.defining {
			t.Errorf("%v: defining %q want %q", w.action, row.Defining, w.defining)
		}
	}
}

func TestBoundsOverDays(t *testing.T) {
	b := StudyBounds()
	// IP bound over 4 days (the churn measurement): 4 + 3·3 = 13.
	if got := b.OverDays(ActionNewIPFirstDay, 4); got != 13 {
		t.Fatalf("4-day IP bound: got %v want 13", got)
	}
	if got := b.OverDays(ActionNewIPFirstDay, 1); got != 4 {
		t.Fatalf("1-day IP bound: got %v want 4", got)
	}
	// Linear actions scale with days.
	if got := b.OverDays(ActionConnectDomain, 2); got != 40 {
		t.Fatalf("2-day domain bound: got %v want 40", got)
	}
	if b.OverDays(ActionConnectDomain, 0) != 0 {
		t.Fatal("0 days must be 0")
	}
}

func TestDeriveBoundsTakesMax(t *testing.T) {
	b := DeriveBounds(DefaultWeb())
	if b[ActionCircuit].Defining != "web" {
		t.Fatal("with only web activity, web must define circuits")
	}
	b = DeriveBounds(DefaultWeb(), DefaultChat())
	if b[ActionCircuit].Defining != "chat" || b[ActionCircuit].Daily != 651 {
		t.Fatal("chat must take over the circuit bound")
	}
}

func TestActionString(t *testing.T) {
	if ActionConnectDomain.String() != "connect-to-domain" {
		t.Fatal(ActionConnectDomain.String())
	}
	if Action(99).String() != "action(99)" {
		t.Fatal(Action(99).String())
	}
}

// seededReader adapts a deterministic PRNG into the NoiseSource entropy
// interface for reproducible statistical tests.
type seededReader struct{ r interface{ Uint64() uint64 } }

func (s seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.r.Uint64())
	}
	return len(p), nil
}

func newSeededSource(seed uint64) *NoiseSource {
	return NewNoiseSource(seededReader{simtime.Rand(seed, "dp-test")})
}

// eachSource runs a statistical check against both entropy paths: the
// seeded, unbuffered reader and the nil reader's buffered crypto/rand.
// The bounds below sit at least 4σ out, so the second is not a flake.
func eachSource(t *testing.T, seed uint64, check func(t *testing.T, src *NoiseSource)) {
	t.Run("seeded", func(t *testing.T) { check(t, newSeededSource(seed)) })
	t.Run("crypto-buffered", func(t *testing.T) { check(t, NewNoiseSource(nil)) })
}

func TestUniformInRange(t *testing.T) {
	eachSource(t, 1, func(t *testing.T, src *NoiseSource) {
		for i := 0; i < 10000; i++ {
			u := src.Uniform()
			if u <= 0 || u >= 1 {
				t.Fatalf("uniform out of (0,1): %v", u)
			}
		}
	})
}

func TestNormalMoments(t *testing.T) {
	eachSource(t, 2, func(t *testing.T, src *NoiseSource) {
		const n = 200000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := src.Normal()
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean) > 0.01 {
			t.Fatalf("normal mean: %v", mean)
		}
		if math.Abs(variance-1) > 0.02 {
			t.Fatalf("normal variance: %v", variance)
		}
	})
}

func TestGaussianScaling(t *testing.T) {
	eachSource(t, 3, func(t *testing.T, src *NoiseSource) {
		const sigma = 1000.0
		const n = 100000
		var sumSq float64
		for i := 0; i < n; i++ {
			x := src.Gaussian(sigma)
			sumSq += x * x
		}
		sd := math.Sqrt(sumSq / n)
		if math.Abs(sd-sigma) > sigma*0.02 {
			t.Fatalf("gaussian sd: got %v want %v", sd, sigma)
		}
		if src.Gaussian(0) != 0 {
			t.Fatal("zero sigma must be zero noise")
		}
	})
}

func TestBinomialMoments(t *testing.T) {
	eachSource(t, 4, func(t *testing.T, src *NoiseSource) {
		const trials = 1000
		const n = 20000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := float64(src.Binomial(trials))
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-trials/2) > 2 {
			t.Fatalf("binomial mean: %v want %v", mean, trials/2)
		}
		if math.Abs(variance-trials/4) > trials*0.05 {
			t.Fatalf("binomial variance: %v want %v", variance, trials/4)
		}
		if src.Binomial(0) != 0 {
			t.Fatal("zero trials must be zero")
		}
	})
}

func TestAllocateEqual(t *testing.T) {
	p := StudyParams()
	stats := []Statistic{
		{Name: "streams", Sensitivity: 20},
		{Name: "bytes", Sensitivity: 400 * megabyte},
	}
	a, err := Allocate(p, stats, AllocateEqual)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Epsilon["streams"]-0.15) > 1e-12 {
		t.Fatalf("equal eps: %v", a.Epsilon["streams"])
	}
	if a.Sigmas["bytes"] <= a.Sigmas["streams"] {
		t.Fatal("larger sensitivity must mean more noise")
	}
	// Budget conservation.
	if math.Abs(a.Epsilon["streams"]+a.Epsilon["bytes"]-p.Epsilon) > 1e-12 {
		t.Fatal("epsilon must be conserved")
	}
}

func TestAllocateOptimalFavorsSmallStatistics(t *testing.T) {
	p := StudyParams()
	stats := []Statistic{
		{Name: "big", Sensitivity: 100, Expected: 1e9},
		{Name: "small", Sensitivity: 100, Expected: 1e3},
	}
	a, err := Allocate(p, stats, AllocateOptimal)
	if err != nil {
		t.Fatal(err)
	}
	// The small statistic has worse relative noise, so it gets more
	// epsilon (less noise) under optimal allocation.
	if a.Epsilon["small"] <= a.Epsilon["big"] {
		t.Fatalf("optimal allocation should favor small statistic: %+v", a.Epsilon)
	}
	relBig := a.Sigmas["big"] / 1e9
	relSmall := a.Sigmas["small"] / 1e3
	// Under equal allocation the relative error gap would be 10⁶×; the
	// optimal allocation narrows it to (10⁶)^(1/3)=100×.
	if relSmall/relBig > 101 {
		t.Fatalf("optimal allocation did not narrow relative error: big=%v small=%v", relBig, relSmall)
	}
}

func TestAllocateErrors(t *testing.T) {
	p := StudyParams()
	if _, err := Allocate(p, nil, AllocateEqual); err == nil {
		t.Fatal("empty stats must fail")
	}
	if _, err := Allocate(p, []Statistic{{Name: ""}}, AllocateEqual); err == nil {
		t.Fatal("empty name must fail")
	}
	if _, err := Allocate(p, []Statistic{{Name: "a"}, {Name: "a"}}, AllocateEqual); err == nil {
		t.Fatal("duplicate name must fail")
	}
	if _, err := Allocate(p, []Statistic{{Name: "a", Sensitivity: -1}}, AllocateEqual); err == nil {
		t.Fatal("negative sensitivity must fail")
	}
	if _, err := Allocate(Params{}, []Statistic{{Name: "a"}}, AllocateEqual); err == nil {
		t.Fatal("invalid params must fail")
	}
}

// Property: allocation always conserves the epsilon budget and never
// assigns negative sigma.
func TestAllocateConservationProperty(t *testing.T) {
	f := func(sens []uint32) bool {
		if len(sens) == 0 {
			return true
		}
		if len(sens) > 20 {
			sens = sens[:20]
		}
		stats := make([]Statistic, len(sens))
		for i, s := range sens {
			stats[i] = Statistic{
				Name:        string(rune('a' + i)),
				Sensitivity: float64(s%1000) + 1,
				Expected:    float64(s%97)*1e4 + 1,
			}
		}
		for _, mode := range []AllocationMode{AllocateEqual, AllocateOptimal} {
			a, err := Allocate(StudyParams(), stats, mode)
			if err != nil {
				return false
			}
			total := 0.0
			for _, e := range a.Epsilon {
				if e <= 0 {
					return false
				}
				total += e
			}
			if math.Abs(total-0.3) > 1e-9 {
				return false
			}
			for _, s := range a.Sigmas {
				if s < 0 || math.IsNaN(s) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPSCNoiseTrials(t *testing.T) {
	p := StudyParams()
	trials, err := PSCNoiseTrials(p, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 64.0 * 16 * math.Log(2/1e-11) / (0.3 * 0.3)
	if math.Abs(float64(trials)-want) > 1 {
		t.Fatalf("trials: got %d want ~%v", trials, want)
	}
	// Larger sensitivity needs more noise.
	t2, _ := PSCNoiseTrials(p, 8, 3)
	if t2 <= trials {
		t.Fatal("sensitivity 8 must need more trials than 4")
	}
	if _, err := PSCNoiseTrials(p, 0, 3); err == nil {
		t.Fatal("zero sensitivity must fail")
	}
	if _, err := PSCNoiseTrials(p, 1, 0); err == nil {
		t.Fatal("zero parties must fail")
	}
	if _, err := PSCNoiseTrials(Params{}, 1, 1); err == nil {
		t.Fatal("bad params must fail")
	}
}

func TestAccountantSequencing(t *testing.T) {
	a := StudyAccountant()
	day := 24 * time.Hour
	t0 := time.Date(2018, 1, 4, 0, 0, 0, 0, time.UTC)

	if _, err := a.Authorize("streams", t0, t0.Add(day)); err != nil {
		t.Fatal(err)
	}
	// Overlapping round must be rejected even with the same name.
	if _, err := a.Authorize("streams", t0.Add(12*time.Hour), t0.Add(36*time.Hour)); err == nil {
		t.Fatal("overlap must fail")
	}
	// A distinct statistic needs 24h start-to-start separation: a short
	// round starting 12h in (even without overlap... it would overlap;
	// use a round after the first ends but starting <24h from it) — a
	// 1-hour round starting 12h after a 1-hour round fails. Rebuild
	// with short rounds to exercise the start-gap rule.
	short := StudyAccountant()
	if _, err := short.Authorize("a", t0, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := short.Authorize("b", t0.Add(12*time.Hour), t0.Add(13*time.Hour)); err == nil {
		t.Fatal("12h start gap between distinct statistics must fail")
	}
	// Back-to-back 24h rounds of distinct statistics are allowed: the
	// starts are 24h apart, matching the paper's calendar.
	if _, err := a.Authorize("domains", t0.Add(day), t0.Add(2*day)); err != nil {
		t.Fatalf("back-to-back distinct rounds rejected: %v", err)
	}
	// Re-measuring the same statistic needs no gap.
	if _, err := a.Authorize("domains", t0.Add(2*day), t0.Add(3*day)); err != nil {
		t.Fatalf("same-statistic consecutive round rejected: %v", err)
	}
	if a.Rounds() != 3 {
		t.Fatalf("rounds: %d", a.Rounds())
	}
	cum := a.Cumulative()
	if math.Abs(cum.Epsilon-0.9) > 1e-12 {
		t.Fatalf("cumulative epsilon: %v", cum.Epsilon)
	}
}

func TestAccountantRejectsBadRounds(t *testing.T) {
	a := StudyAccountant()
	t0 := time.Now()
	if _, err := a.Authorize("x", t0, t0); err == nil {
		t.Fatal("zero-duration round must fail")
	}
	if _, err := NewAccountant(Params{}, time.Hour); err == nil {
		t.Fatal("invalid params must fail")
	}
	if _, err := NewAccountant(StudyParams(), -time.Hour); err == nil {
		t.Fatal("negative gap must fail")
	}
}

func TestAccountantBudgetCap(t *testing.T) {
	a, err := NewAccountant(StudyParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	per := StudyParams()
	if err := a.SetBudget(Params{Epsilon: 3 * per.Epsilon, Delta: 3 * per.Delta}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := a.Spend("exit-streams")
		if err != nil {
			t.Fatalf("spend %d within budget: %v", i+1, err)
		}
		if got != per {
			t.Fatalf("spend returned %+v, want the per-round budget", got)
		}
	}
	_, err = a.Spend("exit-streams")
	if err == nil {
		t.Fatal("4th round must be refused against a 3-round budget")
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("refusal error = %v, want ErrBudgetExhausted", err)
	}
	if got := a.Rounds(); got != 3 {
		t.Fatalf("rounds after refusal = %d, want 3 (refusals spend nothing)", got)
	}
	cum := a.Cumulative()
	if math.Abs(cum.Epsilon-3*per.Epsilon) > 1e-12 {
		t.Fatalf("cumulative epsilon = %v, want %v", cum.Epsilon, 3*per.Epsilon)
	}
	// Authorize honors the cap too.
	start := time.Unix(1514764800, 0)
	if _, err := a.Authorize("exit-streams", start, start.Add(24*time.Hour)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Authorize past budget = %v, want ErrBudgetExhausted", err)
	}
}

func TestAccountantBudgetValidation(t *testing.T) {
	a, err := NewAccountant(StudyParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetBudget(Params{Epsilon: -1, Delta: 0.5}); err == nil {
		t.Fatal("invalid budget accepted")
	}
	// Without a budget, Spend never refuses.
	for i := 0; i < 100; i++ {
		if _, err := a.Spend("anything"); err != nil {
			t.Fatalf("uncapped spend %d: %v", i, err)
		}
	}
}

func TestAccountantRefund(t *testing.T) {
	a, err := NewAccountant(StudyParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	per := StudyParams()
	if err := a.SetBudget(per); err != nil { // exactly one round
		t.Fatal(err)
	}
	if _, err := a.Spend("r"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Spend("r"); err == nil {
		t.Fatal("second spend must be refused")
	}
	a.Refund("r")
	if got := a.Rounds(); got != 0 {
		t.Fatalf("rounds after refund = %d, want 0", got)
	}
	if cum := a.Cumulative(); cum.Epsilon != 0 || cum.Delta != 0 {
		t.Fatalf("cumulative after refund = %+v, want zero", cum)
	}
	if _, err := a.Spend("r"); err != nil {
		t.Fatalf("spend after refund: %v", err)
	}
	// Refunding a name that never spent is a no-op.
	before := a.Cumulative()
	a.Refund("never-spent")
	if a.Cumulative() != before || a.Rounds() != 1 {
		t.Fatal("refund of unknown name mutated the ledger")
	}
}

func TestAccountantBudgetExactMultiple(t *testing.T) {
	// A budget of exactly N per-round units must admit exactly N rounds
	// for every N — repeated float addition used to refuse the Nth
	// round by one ULP (e.g. 6×0.3).
	per := StudyParams()
	for n := 1; n <= 64; n++ {
		a, err := NewAccountant(per, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SetBudget(Params{Epsilon: per.Epsilon * float64(n), Delta: per.Delta * float64(n)}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := a.Spend("r"); err != nil {
				t.Fatalf("budget of %d rounds refused round %d: %v", n, i+1, err)
			}
		}
		if _, err := a.Spend("r"); !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("budget of %d rounds admitted round %d: %v", n, n+1, err)
		}
	}
}

// TestLedgerSurvivesRestart drives the spend→restart→refuse cycle the
// ledger exists for: a budget of two rounds is spent by one accountant,
// a fresh accountant loading the same ledger file must refuse the third
// round, and a refund must be visible across the restart too.
func TestLedgerSurvivesRestart(t *testing.T) {
	per := StudyParams()
	path := filepath.Join(t.TempDir(), "budget.json")
	budget := Params{Epsilon: per.Epsilon * 2, Delta: per.Delta * 2}

	a1, err := NewAccountant(per, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a1.SetBudget(budget); err != nil {
		t.Fatal(err)
	}
	if err := a1.SetLedger(path); err != nil {
		t.Fatal(err)
	}
	if _, err := a1.Spend("psc/round"); err != nil {
		t.Fatal(err)
	}
	if _, err := a1.Spend("privcount/round"); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new accountant process loads the same ledger.
	a2, err := NewAccountant(per, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.SetBudget(budget); err != nil {
		t.Fatal(err)
	}
	if err := a2.SetLedger(path); err != nil {
		t.Fatal(err)
	}
	if got := a2.Rounds(); got != 2 {
		t.Fatalf("restarted accountant sees %d spent rounds, want 2", got)
	}
	if _, err := a2.Spend("psc/round"); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("third round after restart: got %v, want ErrBudgetExhausted", err)
	}

	// A refund persists too: the freed unit is spendable after another
	// restart.
	a2.Refund("privcount/round")
	a3, err := NewAccountant(per, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a3.SetBudget(budget); err != nil {
		t.Fatal(err)
	}
	if err := a3.SetLedger(path); err != nil {
		t.Fatal(err)
	}
	if _, err := a3.Spend("psc/round"); err != nil {
		t.Fatalf("refunded unit not spendable after restart: %v", err)
	}

	// A corrupt ledger must refuse to load.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	a4, _ := NewAccountant(per, 0)
	if err := a4.SetLedger(path); err == nil {
		t.Fatal("corrupt ledger loaded without error")
	}
}

// TestLedgerSyncFailureRefusesSpend: a ledger rewrite is durable only
// once the temp file and then the directory are synced, so a spend
// whose sync fails is refused. A failed file sync leaves the old ledger
// byte for byte, with no temp file behind; a failed directory sync
// comes after the rename, so the refused round may stay on disk — an
// overstated spend, never an understated one.
func TestLedgerSyncFailureRefusesSpend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "budget.json")
	a, err := NewAccountant(StudyParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var fileSyncs, dirSyncs int
	a.syncs = ledgerSyncs{
		file: func(f *os.File) error { fileSyncs++; return osSyncs.file(f) },
		dir: func(d string) error {
			if d != dir {
				t.Errorf("synced directory %s, want %s", d, dir)
			}
			dirSyncs++
			return osSyncs.dir(d)
		},
	}
	if err := a.SetLedger(path); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Spend("r1"); err != nil {
		t.Fatal(err)
	}
	if fileSyncs != 2 || dirSyncs != 2 {
		t.Fatalf("two ledger writes made %d file and %d directory syncs, want 2 and 2", fileSyncs, dirSyncs)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	errSync := errors.New("injected sync failure")
	healthy := a.syncs
	a.syncs.file = func(*os.File) error { return errSync }
	if _, err := a.Spend("r2"); !errors.Is(err, errSync) {
		t.Fatalf("spend with a failing file sync: got %v, want the sync error", err)
	}
	if got := a.Rounds(); got != 1 {
		t.Fatalf("failed spend left %d rounds in memory, want 1", got)
	}
	if now, err := os.ReadFile(path); err != nil || string(now) != string(old) {
		t.Fatalf("failed file sync changed the ledger (err %v):\n%s\nwant\n%s", err, now, old)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".ledger-*")); len(left) != 0 {
		t.Fatalf("failed file sync left temp files %v", left)
	}

	a.syncs = healthy
	a.syncs.dir = func(string) error { return errSync }
	if _, err := a.Spend("r3"); !errors.Is(err, errSync) {
		t.Fatalf("spend with a failing directory sync: got %v, want the sync error", err)
	}
	if got := a.Rounds(); got != 1 {
		t.Fatalf("failed spend left %d rounds in memory, want 1", got)
	}
	reloaded, _ := NewAccountant(StudyParams(), 0)
	if err := reloaded.SetLedger(path); err != nil {
		t.Fatal(err)
	}
	if got := reloaded.Rounds(); got < 1 {
		t.Fatalf("ledger after a failed directory sync holds %d rounds, want at least the 1 spent", got)
	}

	a.syncs = healthy
	if _, err := a.Spend("r4"); err != nil {
		t.Fatalf("spend after the syncs recovered: %v", err)
	}
	reloaded, _ = NewAccountant(StudyParams(), 0)
	if err := reloaded.SetLedger(path); err != nil {
		t.Fatal(err)
	}
	if got := reloaded.Rounds(); got != 2 {
		t.Fatalf("recovered ledger holds %d rounds, want 2", got)
	}
}
