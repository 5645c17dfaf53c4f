package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Value: 10, Lo: 8, Hi: 14}
	if !iv.Contains(8) || !iv.Contains(14) || iv.Contains(7.9) {
		t.Fatal("Contains")
	}
	if iv.Width() != 6 {
		t.Fatal("Width")
	}
	s := iv.Scale(2)
	if s.Value != 20 || s.Lo != 16 || s.Hi != 28 {
		t.Fatal("Scale")
	}
}

func TestIntervalIntersect(t *testing.T) {
	a := Interval{Lo: 0, Hi: 10}
	b := Interval{Lo: 5, Hi: 15}
	ov, ok := a.Intersect(b)
	if !ok || ov.Lo != 5 || ov.Hi != 10 {
		t.Fatalf("intersect: %+v ok=%v", ov, ok)
	}
	if _, ok := a.Intersect(Interval{Lo: 11, Hi: 12}); ok {
		t.Fatal("disjoint intervals must not intersect")
	}
	// Touching endpoints intersect.
	if _, ok := a.Intersect(Interval{Lo: 10, Hi: 20}); !ok {
		t.Fatal("touching intervals must intersect")
	}
}

func TestNormalCI(t *testing.T) {
	iv := NormalCI(100, 10)
	if iv.Value != 100 {
		t.Fatal("center")
	}
	if math.Abs(iv.Lo-(100-19.6)) > 0.01 || math.Abs(iv.Hi-(100+19.6)) > 0.01 {
		t.Fatalf("95%% CI: %+v", iv)
	}
	// Negative sigma treated as magnitude.
	if NormalCI(0, -5).Width() != NormalCI(0, 5).Width() {
		t.Fatal("negative sigma")
	}
}

// TestInferTotalPaperExample reproduces the worked example in §3.3:
// 32 million streams at 1.5% exit weight with σ = 3.1 million noise
// infer to 2.1e9 ± 4.1e8 network-wide streams.
func TestInferTotalPaperExample(t *testing.T) {
	local := NormalCI(3.2e7, 3.1e6)
	total, err := InferTotal(local, 0.015)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total.Value-2.133e9) > 0.01e9 {
		t.Fatalf("inferred total %v, want ~2.1e9", total.Value)
	}
	halfWidth := (total.Hi - total.Lo) / 2
	if math.Abs(halfWidth-4.05e8) > 0.1e8 {
		t.Fatalf("inferred half-width %v, want ~4.1e8", halfWidth)
	}
}

func TestInferTotalErrors(t *testing.T) {
	for _, frac := range []float64{0, -0.1, 1.5} {
		if _, err := InferTotal(Interval{}, frac); err == nil {
			t.Errorf("fraction %v must fail", frac)
		}
	}
}

func TestClampNonNegative(t *testing.T) {
	iv := Interval{Value: -3, Lo: -10, Hi: 4}.ClampNonNegative()
	if iv.Value != 0 || iv.Lo != 0 || iv.Hi != 4 {
		t.Fatalf("clamp: %+v", iv)
	}
}

func TestRangeOnly(t *testing.T) {
	iv, err := RangeOnly(11882, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 11882 || math.Abs(iv.Hi-59410) > 1 {
		t.Fatalf("range-only: %+v", iv)
	}
	if _, err := RangeOnly(1, 0); err == nil {
		t.Fatal("zero fraction must fail")
	}
}

// Property: CI coverage scales out — intersect is commutative and
// scaling preserves containment.
func TestIntervalProperties(t *testing.T) {
	f := func(v, lo, hi, x uint16, scale uint8) bool {
		l, h := float64(lo), float64(hi)
		if l > h {
			l, h = h, l
		}
		iv := Interval{Value: float64(v), Lo: l, Hi: h}
		s := float64(scale)/16 + 0.5
		scaled := iv.Scale(s)
		if iv.Contains(float64(x)) != scaled.Contains(float64(x)*s) {
			return false
		}
		other := Interval{Lo: float64(x), Hi: float64(x) + 10}
		a, okA := iv.Intersect(other)
		b, okB := other.Intersect(iv)
		return okA == okB && (!okA || (a.Lo == b.Lo && a.Hi == b.Hi))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
