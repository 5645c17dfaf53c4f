package elgamal

// The field kernel (feMul, feSqr, feSqrN: assembly on amd64) against
// the pure-Go bodies in field.go and against math/big. Off amd64 both
// sides run the same Go code and these tests only pin the math/big
// values and feSqrN's n ≤ 0 case.

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// feInvGeneric is feInv's addition chain on the generic bodies: the
// oracle and the benchmark baseline for the kernel's inversion.
func feInvGeneric(z, x *fe) {
	runs := feOnesRunsGeneric(x)
	t := runs[5]
	feSqrNGeneric(&t, &t, 32)
	feMulGeneric(&t, &t, x)
	feSqrNGeneric(&t, &t, 96+32)
	feMulGeneric(&t, &t, &runs[5])
	feSqrNGeneric(&t, &t, 32)
	feMulGeneric(&t, &t, &runs[5])
	for i := 4; i >= 1; i-- {
		feSqrNGeneric(&t, &t, 1<<i)
		feMulGeneric(&t, &t, &runs[i])
	}
	feSqrNGeneric(&t, &t, 2)
	feMulGeneric(z, &t, x)
}

// feOnesRunsGeneric is feOnesRuns on the generic bodies.
func feOnesRunsGeneric(x *fe) (runs [6]fe) {
	runs[0] = *x
	for i := 1; i < len(runs); i++ {
		feSqrNGeneric(&runs[i], &runs[i-1], 1<<(i-1))
		feMulGeneric(&runs[i], &runs[i], &runs[i-1])
	}
	return runs
}

// feSqrtGeneric is feSqrt's addition chain on the generic bodies: the
// oracle for the kernel's square root.
func feSqrtGeneric(z, x *fe) bool {
	runs := feOnesRunsGeneric(x)
	t := runs[5]
	feSqrNGeneric(&t, &t, 32)
	feMulGeneric(&t, &t, x)
	feSqrNGeneric(&t, &t, 96)
	feMulGeneric(&t, &t, x)
	feSqrNGeneric(&t, &t, 94)
	var check fe
	feSqrGeneric(&check, &t)
	*z = t
	return check == *x
}

// feLess reports x < p, i.e. x is a reduced residue.
func feLess(x *fe) bool {
	for i := 3; i >= 0; i-- {
		if x[i] != p256P[i] {
			return x[i] < p256P[i]
		}
	}
	return false
}

// randomResidue draws a reduced residue. Every fourth draw builds its
// limbs from 0, 1, 2³²−1, 2⁶⁴−1 and p's own limbs, so the carry and
// borrow chains meet their extremes more often than uniform draws do.
func randomResidue(rng *rand.Rand) fe {
	special := []uint64{0, 1, 1<<32 - 1, math.MaxUint64, p256P[1], p256P[3]}
	for {
		var x fe
		skew := rng.Intn(4) == 0
		for i := range x {
			if skew && rng.Intn(2) == 0 {
				x[i] = special[rng.Intn(len(special))]
			} else {
				x[i] = rng.Uint64()
			}
		}
		if feLess(&x) {
			return x
		}
	}
}

// checkKernelPair compares every kernel operation on (x, y) with the
// generic body, in the plain and every aliased form the formulas use.
func checkKernelPair(t *testing.T, x, y fe) {
	t.Helper()
	var mul, sqrX, sqr fe
	feMulGeneric(&mul, &x, &y)
	feMulGeneric(&sqrX, &x, &x)
	feSqrGeneric(&sqr, &x)
	for _, c := range []struct {
		form string
		run  func(z *fe)
		want fe
	}{
		{"feMul(z, x, y)", func(z *fe) { feMul(z, &x, &y) }, mul},
		{"feMul(x, x, y)", func(z *fe) { *z = x; feMul(z, z, &y) }, mul},
		{"feMul(y, x, y)", func(z *fe) { *z = y; feMul(z, &x, z) }, mul},
		{"feMul(z, x, x)", func(z *fe) { feMul(z, &x, &x) }, sqrX},
		{"feMul(x, x, x)", func(z *fe) { *z = x; feMul(z, z, z) }, sqrX},
		{"feSqr(z, x)", func(z *fe) { feSqr(z, &x) }, sqr},
		{"feSqr(x, x)", func(z *fe) { *z = x; feSqr(z, z) }, sqr},
	} {
		var got fe
		if c.run(&got); got != c.want {
			t.Fatalf("%s on x = %x, y = %x: %x, generic %x", c.form, x, y, got, c.want)
		}
	}
}

// TestFieldKernelMatchesGeneric holds feMul, feSqr, feSqrN, feInv and
// feSqrt to the generic bodies bit for bit: every pair of boundary values, then
// 100 000 seeded random residues.
func TestFieldKernelMatchesGeneric(t *testing.T) {
	vals := fieldBoundaryValues()
	for _, a := range vals {
		for _, b := range vals {
			checkKernelPair(t, feFromSaturated(a), feFromSaturated(b))
		}
	}
	n := 100_000
	if testing.Short() || raceEnabled {
		n = 10_000
	}
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < n; i++ {
		x, y := randomResidue(rng), randomResidue(rng)
		checkKernelPair(t, x, y)
		for k := 1; k <= 8; k++ {
			var want, got, inPlace fe
			feSqrNGeneric(&want, &x, k)
			feSqrN(&got, &x, k)
			inPlace = x
			feSqrN(&inPlace, &inPlace, k)
			if got != want || inPlace != want {
				t.Fatalf("feSqrN(%x, %d) = %x (in place %x), generic %x", x, k, got, inPlace, want)
			}
		}
		if i%64 == 0 {
			var want, got fe
			feInvGeneric(&want, &x)
			if feInv(&got, &x); got != want {
				t.Fatalf("feInv(%x) = %x, generic %x", x, got, want)
			}
			wantOK := feSqrtGeneric(&want, &x)
			if ok := feSqrt(&got, &x); got != want || ok != wantOK {
				t.Fatalf("feSqrt(%x) = %x, %v, generic %x, %v", x, got, ok, want, wantOK)
			}
		}
	}
}

// TestFeSqrNNonPositive pins feSqrN's n ≤ 0 case to z = x in both
// implementations: no squaring, and no loop that counts down through
// 2⁶⁴ iterations.
func TestFeSqrNNonPositive(t *testing.T) {
	x := feFromSaturated(big.NewInt(12345))
	for _, n := range []int{0, -1, math.MinInt} {
		for name, sqrN := range map[string]func(z, x *fe, n int){"kernel": feSqrN, "generic": feSqrNGeneric} {
			z := fe{1, 2, 3, 4}
			if sqrN(&z, &x, n); z != x {
				t.Errorf("%s feSqrN(x, %d) = %x, want x = %x", name, n, z, x)
			}
			z = x
			if sqrN(&z, &z, n); z != x {
				t.Errorf("%s feSqrN(z = x, %d) = %x, want x = %x", name, n, z, x)
			}
		}
	}
}

// FuzzFieldArith compares the kernel, the generic bodies and math/big
// on arbitrary residues: each 32-byte operand is read big-endian and
// reduced mod p, and n picks a squaring count in [0, 15]. The square
// root of the first operand is held to big.Int.ModSqrt: a root (either
// sign) when there is one, a refusal when there is not.
func FuzzFieldArith(f *testing.F) {
	p := curve.Params().P
	vals := fieldBoundaryValues()
	for i, a := range vals {
		b := vals[(i*7+3)%len(vals)]
		f.Add(a.FillBytes(make([]byte, 32)), b.FillBytes(make([]byte, 32)), uint8(i))
	}
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 256), p)
	// mont is the Montgomery product a·b·R⁻¹ mod p on raw residues.
	mont := func(a, b *big.Int) *big.Int {
		v := new(big.Int).Mul(a, b)
		v.Mul(v, rInv)
		return v.Mod(v, p)
	}
	f.Fuzz(func(t *testing.T, xb, yb []byte, n uint8) {
		a := new(big.Int).Mod(new(big.Int).SetBytes(xb), p)
		b := new(big.Int).Mod(new(big.Int).SetBytes(yb), p)
		x, y := feFromSaturated(a), feFromSaturated(b)

		var kernel, generic fe
		feMul(&kernel, &x, &y)
		feMulGeneric(&generic, &x, &y)
		if want := feFromSaturated(mont(a, b)); kernel != want || generic != want {
			t.Fatalf("mul %x·%x: kernel %x, generic %x, math/big %x", a, b, kernel, generic, want)
		}
		feSqr(&kernel, &x)
		feSqrGeneric(&generic, &x)
		if want := feFromSaturated(mont(a, a)); kernel != want || generic != want {
			t.Fatalf("sqr %x: kernel %x, generic %x, math/big %x", a, kernel, generic, want)
		}
		k := int(n % 16)
		feSqrN(&kernel, &x, k)
		feSqrNGeneric(&generic, &x, k)
		v := new(big.Int).Set(a)
		for i := 0; i < k; i++ {
			v = mont(v, v)
		}
		if want := feFromSaturated(v); kernel != want || generic != want {
			t.Fatalf("sqr^%d %x: kernel %x, generic %x, math/big %x", k, a, kernel, generic, want)
		}

		// x holds the Montgomery form of a·R⁻¹; a root of that, back in
		// Montgomery form, is the limbs of root·R.
		okK, okG := feSqrt(&kernel, &x), feSqrtGeneric(&generic, &x)
		root := new(big.Int).ModSqrt(mont(a, big.NewInt(1)), p)
		if okK != okG || okK != (root != nil) || kernel != generic {
			t.Fatalf("sqrt %x: kernel %x (%v), generic %x (%v), math/big %v", a, kernel, okK, generic, okG, root)
		}
		if root != nil {
			r := new(big.Int).Lsh(root, 256)
			want, neg := feFromSaturated(r.Mod(r, p)), feFromSaturated(r.Sub(p, r).Mod(r, p))
			if kernel != want && kernel != neg {
				t.Fatalf("sqrt %x: kernel %x, math/big ±%x", a, kernel, want)
			}
		}
	})
}

// BenchmarkFieldOps reports ns per field multiplication, squaring,
// inversion and square root for the kernel and the generic bodies. Run it with -cpu 1
// for the per-core cost; on amd64 the kernel feMul should read at most
// 0.8× the generic one.
func BenchmarkFieldOps(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randomResidue(rng), randomResidue(rng)
	for _, arm := range []struct {
		name string
		mul  func(z, x, y *fe)
		sqr  func(z, x *fe)
		inv  func(z, x *fe)
		sqrt func(z, x *fe) bool
	}{
		{"kernel", feMul, feSqr, feInv, feSqrt},
		{"generic", feMulGeneric, feSqrGeneric, feInvGeneric, feSqrtGeneric},
	} {
		// Each result feeds the next call, so the loop measures latency
		// and the compiler cannot hoist the call.
		b.Run("Mul/"+arm.name, func(b *testing.B) {
			z := x
			for i := 0; i < b.N; i++ {
				arm.mul(&z, &z, &y)
			}
		})
		b.Run("Sqr/"+arm.name, func(b *testing.B) {
			z := x
			for i := 0; i < b.N; i++ {
				arm.sqr(&z, &z)
			}
		})
		b.Run("Inv/"+arm.name, func(b *testing.B) {
			z := x
			for i := 0; i < b.N; i++ {
				arm.inv(&z, &z)
			}
		})
		b.Run("Sqrt/"+arm.name, func(b *testing.B) {
			z := x
			for i := 0; i < b.N; i++ {
				arm.sqrt(&z, &z)
			}
		})
	}
}
