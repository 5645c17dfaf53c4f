package simtime

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsInTimestampOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(3*Second, func(Time) { order = append(order, 3) })
	s.At(1*Second, func(Time) { order = append(order, 1) })
	s.At(2*Second, func(Time) { order = append(order, 2) })
	end := s.Run(Day)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if end != Day {
		t.Fatalf("run should end at horizon, got %v", end)
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Second, func(Time) { order = append(order, i) })
	}
	s.Run(Day)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestSchedulerHorizonStopsEarly(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.At(2*Hour, func(Time) { ran = true })
	s.Run(1 * Hour)
	if ran {
		t.Fatal("event beyond horizon must not run")
	}
	if len(s.queue) != 1 {
		t.Fatalf("event should remain queued, pending=%d", len(s.queue))
	}
	s.Run(3 * Hour)
	if !ran {
		t.Fatal("event should run once horizon advances")
	}
}

func TestSchedulerEventsScheduleMoreEvents(t *testing.T) {
	s := NewScheduler()
	count := 0
	var chain Event
	chain = func(now Time) {
		count++
		if count < 5 {
			s.After(time.Minute, chain)
		}
	}
	s.After(time.Minute, chain)
	s.Run(Day)
	if count != 5 {
		t.Fatalf("chained events: got %d, want 5", count)
	}
	if s.Now() != Day {
		t.Fatalf("clock should advance to horizon, got %v", s.Now())
	}
}

func TestSchedulerPastEventClampsToNow(t *testing.T) {
	s := NewScheduler()
	var at Time
	s.At(Hour, func(now Time) {
		s.At(Minute, func(n Time) { at = n }) // in the past
	})
	s.Run(Day)
	if at != Hour {
		t.Fatalf("past event should run at current time %v, ran at %v", Hour, at)
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick Event
	tick = func(Time) {
		count++
		if count == 3 {
			s.Stop()
		}
		s.After(time.Minute, tick)
	}
	s.After(time.Minute, tick)
	s.Run(Day)
	if count != 3 {
		t.Fatalf("stop should halt the loop: count=%d", count)
	}
}

func TestRandDeterministicPerStream(t *testing.T) {
	a1 := Rand(42, "alpha")
	a2 := Rand(42, "alpha")
	b := Rand(42, "beta")
	sameCount, diffCount := 0, 0
	for i := 0; i < 100; i++ {
		x, y, z := a1.Uint64(), a2.Uint64(), b.Uint64()
		if x == y {
			sameCount++
		}
		if x == z {
			diffCount++
		}
	}
	if sameCount != 100 {
		t.Fatal("same seed+stream must reproduce exactly")
	}
	if diffCount > 2 {
		t.Fatalf("different streams should diverge, %d collisions", diffCount)
	}
}

func TestZipfMassOrderingAndNormalization(t *testing.T) {
	z := NewZipf(1000, 1.1)
	total := 0.0
	prev := math.Inf(1)
	for k := 1; k <= 1000; k++ {
		p := z.Prob(k)
		if p > prev+1e-12 {
			t.Fatalf("Zipf mass must be non-increasing at rank %d", k)
		}
		prev = p
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("Zipf masses must sum to 1, got %v", total)
	}
	if z.Prob(0) != 0 || z.Prob(1001) != 0 {
		t.Fatal("out-of-range ranks must have zero mass")
	}
}

func TestZipfSamplingMatchesMass(t *testing.T) {
	const n = 50
	z := NewZipf(n, 1.0)
	r := Rand(7, "zipf")
	counts := make([]int, n+1)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Rank(r)]++
	}
	for k := 1; k <= 5; k++ {
		want := z.Prob(k)
		got := float64(counts[k]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("rank %d: sampled %v want %v", k, got, want)
		}
	}
}

func TestWeightedChoiceRespectsWeights(t *testing.T) {
	w := NewWeightedChoice([]float64{1, 0, 3})
	r := Rand(1, "wc")
	counts := [3]int{}
	for i := 0; i < 100000; i++ {
		counts[w.Pick(r)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight choice picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio should be ~3, got %v", ratio)
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	for _, weights := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("weights %v must panic", weights)
				}
			}()
			NewWeightedChoice(weights)
		}()
	}
}

func TestExpMeanMatchesRate(t *testing.T) {
	r := Rand(3, "exp")
	const rate = 2.0
	var total float64
	const n = 100000
	for i := 0; i < n; i++ {
		total += Exp(r, rate).Seconds()
	}
	mean := total / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("exp mean: got %v want %v", mean, 1/rate)
	}
	if Exp(r, 0) < Day*1000 {
		t.Fatal("zero rate should mean 'never'")
	}
}

func TestPoissonMean(t *testing.T) {
	r := Rand(9, "poisson")
	for _, mean := range []float64{0.5, 5, 200} {
		var total float64
		const n = 50000
		for i := 0; i < n; i++ {
			total += float64(Poisson(r, mean))
		}
		got := total / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("poisson mean %v: got %v", mean, got)
		}
	}
	if Poisson(r, 0) != 0 || Poisson(r, -1) != 0 {
		t.Fatal("non-positive mean must yield 0")
	}
}

// Property: the scheduler's clock is monotone regardless of the order in
// which events are scheduled.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewScheduler()
		last := Time(-1)
		for _, o := range offsets {
			s.At(Time(o)*Second, func(now Time) {
				if now < last {
					t.Errorf("clock went backwards: %v after %v", now, last)
				}
				last = now
			})
		}
		s.Run(Time(70000) * Second)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := 90 * Minute
	if tm.Seconds() != 5400 {
		t.Fatalf("Seconds: %v", tm.Seconds())
	}
	if tm.Add(30*time.Minute) != 2*Hour {
		t.Fatal("Add")
	}
	if !tm.Before(2 * Hour) {
		t.Fatal("Before")
	}
	if tm.String() != "1h30m0s" {
		t.Fatalf("String: %q", tm.String())
	}
}
