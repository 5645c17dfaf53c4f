package stats

import (
	"errors"
	"math"
	"testing"

	"repro/internal/simtime"
)

// OccupancyPMF returns the exact probability mass function of the number
// of occupied bins after inserting n distinct items into b bins, using
// the dynamic program
//
//	P(X_{m+1}=k) = P(X_m=k)·k/b + P(X_m=k−1)·(b−k+1)/b.
//
// Cost is O(n·b); intended for exact small-scale work and for verifying
// the moment-based approximation used at measurement scale.
func OccupancyPMF(b, n int) ([]float64, error) {
	if b <= 0 {
		return nil, errors.New("stats: non-positive bin count")
	}
	if n < 0 {
		return nil, errors.New("stats: negative item count")
	}
	pmf := make([]float64, b+1)
	pmf[0] = 1
	next := make([]float64, b+1)
	fb := float64(b)
	for m := 0; m < n; m++ {
		for k := range next {
			next[k] = 0
		}
		for k, p := range pmf {
			if p == 0 {
				continue
			}
			// Item lands in an occupied bin: k stays.
			next[k] += p * float64(k) / fb
			// Item lands in a free bin: k+1.
			if k < b {
				next[k+1] += p * (fb - float64(k)) / fb
			}
		}
		pmf, next = next, pmf
	}
	return pmf, nil
}

func TestOccupancyPMFIsDistribution(t *testing.T) {
	for _, tc := range []struct{ b, n int }{{10, 0}, {10, 5}, {10, 50}, {64, 64}} {
		pmf, err := OccupancyPMF(tc.b, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range pmf {
			if p < 0 {
				t.Fatalf("negative mass b=%d n=%d", tc.b, tc.n)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("pmf b=%d n=%d sums to %v", tc.b, tc.n, sum)
		}
	}
}

func TestOccupancyPMFEdges(t *testing.T) {
	pmf, _ := OccupancyPMF(5, 0)
	if pmf[0] != 1 {
		t.Fatal("0 items means 0 occupied with certainty")
	}
	pmf, _ = OccupancyPMF(5, 1)
	if math.Abs(pmf[1]-1) > 1e-12 {
		t.Fatal("1 item means exactly 1 occupied bin")
	}
	if _, err := OccupancyPMF(0, 1); err == nil {
		t.Fatal("no bins must fail")
	}
	if _, err := OccupancyPMF(5, -1); err == nil {
		t.Fatal("negative items must fail")
	}
}

func TestOccupancyMomentsMatchPMF(t *testing.T) {
	const b, n = 40, 90
	pmf, err := OccupancyPMF(b, n)
	if err != nil {
		t.Fatal(err)
	}
	var mean, m2 float64
	for k, p := range pmf {
		mean += float64(k) * p
		m2 += float64(k) * float64(k) * p
	}
	variance := m2 - mean*mean
	am, av := OccupancyMoments(b, n)
	if math.Abs(mean-am) > 1e-6 {
		t.Fatalf("mean: pmf %v analytic %v", mean, am)
	}
	if math.Abs(variance-av) > 1e-6 {
		t.Fatalf("variance: pmf %v analytic %v", variance, av)
	}
}

func TestOccupancyMomentsEdges(t *testing.T) {
	if m, v := OccupancyMoments(0, 5); m != 0 || v != 0 {
		t.Fatal("no bins")
	}
	if m, v := OccupancyMoments(5, 0); m != 0 || v != 0 {
		t.Fatal("no items")
	}
	m, _ := OccupancyMoments(1000000, 1)
	if math.Abs(m-1) > 1e-9 {
		t.Fatalf("single item occupies one bin: %v", m)
	}
}

func TestInvertOccupancyRoundTrip(t *testing.T) {
	const b = 1 << 16
	for _, n := range []int{1, 100, 10000, 60000} {
		mean, _ := OccupancyMoments(b, n)
		got := InvertOccupancy(b, mean)
		if math.Abs(got-float64(n)) > float64(n)*0.001+0.5 {
			t.Fatalf("invert(E[X_%d]) = %v", n, got)
		}
	}
	if InvertOccupancy(100, 0) != 0 || InvertOccupancy(0, 5) != 0 {
		t.Fatal("degenerate inputs must be zero")
	}
	// Saturated table must not return +Inf.
	if v := InvertOccupancy(100, 100); math.IsInf(v, 0) || v <= 0 {
		t.Fatalf("saturated inversion: %v", v)
	}
}

// TestUnionCardinalityCICoverage simulates the full PSC observation
// pipeline — hash n items into b bins, add Binomial(t,1/2) noise — and
// checks the derived CI covers the true n in the vast majority of runs.
func TestUnionCardinalityCICoverage(t *testing.T) {
	const b = 1 << 14
	const n = 3000
	const trials = 400
	r := simtime.Rand(11, "occupancy")
	covered := 0
	const runs = 60
	for run := 0; run < runs; run++ {
		bins := make([]bool, b)
		occ := 0
		for i := 0; i < n; i++ {
			k := int(r.Uint64() % b)
			if !bins[k] {
				bins[k] = true
				occ++
			}
		}
		noise := 0
		for i := 0; i < trials; i++ {
			if r.Uint64()&1 == 1 {
				noise++
			}
		}
		iv, err := UnionCardinalityCI(PSCObservation{
			Reported: occ + noise, Bins: b, NoiseTrials: trials,
		})
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(n) {
			covered++
		}
	}
	if covered < runs*90/100 {
		t.Fatalf("CI covered true n in only %d/%d runs", covered, runs)
	}
}

func TestUnionCardinalityCIPointEstimate(t *testing.T) {
	const b = 1 << 14
	const n = 2000
	mean, _ := OccupancyMoments(b, n)
	iv, err := UnionCardinalityCI(PSCObservation{
		Reported: int(mean + 0.5 + 100), Bins: b, NoiseTrials: 200, // noise mean 100
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv.Value-n) > n*0.02 {
		t.Fatalf("point estimate %v, want ~%d", iv.Value, n)
	}
	if !iv.Contains(n) {
		t.Fatalf("CI %+v must contain %d", iv, n)
	}
	// The CI corrects collisions: upper bound must exceed the raw
	// occupied-bin count.
	if iv.Hi <= mean {
		t.Fatal("upper bound must exceed raw occupancy")
	}
}

func TestUnionCardinalityCIErrors(t *testing.T) {
	if _, err := UnionCardinalityCI(PSCObservation{Reported: 1, Bins: 0}); err == nil {
		t.Fatal("no bins must fail")
	}
	if _, err := UnionCardinalityCI(PSCObservation{Reported: 1, Bins: 8, NoiseTrials: -1}); err == nil {
		t.Fatal("negative noise must fail")
	}
}

func TestUnionCardinalityCIZeroObservation(t *testing.T) {
	// All noise, nothing observed: CI must include 0.
	iv, err := UnionCardinalityCI(PSCObservation{Reported: 50, Bins: 1 << 12, NoiseTrials: 100})
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo > 0 {
		t.Fatalf("pure-noise observation must admit 0: %+v", iv)
	}
}

func TestCollisionBiasGrowsWithLoad(t *testing.T) {
	b := 1 << 12
	small := CollisionBias(b, 100)
	large := CollisionBias(b, 4000)
	if small < 0 || large <= small {
		t.Fatalf("collision bias must grow with load: %v -> %v", small, large)
	}
}

func TestPSCObservationString(t *testing.T) {
	s := PSCObservation{Reported: 5, Bins: 8, NoiseTrials: 2}.String()
	if s != "psc(reported=5 bins=8 noise-trials=2)" {
		t.Fatal(s)
	}
}
