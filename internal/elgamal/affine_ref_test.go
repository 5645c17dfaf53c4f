package elgamal

// Reference implementation of the group operations in the affine
// math/big style this package used before the Jacobian core: textbook
// chord-and-tangent formulas paying one modular inversion per point
// addition, and plain double-and-add scalar multiplication. It is the
// ground truth the equivalence property tests compare the fast paths
// against, and the "old per-element affine path" baseline arm of
// BenchmarkGroupOps. Never call it from protocol code.

import "math/big"

// refAffineAdd returns p + q using affine formulas (one field inversion
// per call).
func refAffineAdd(p, q Point) Point {
	if p.IsIdentity() {
		return Point{X: new(big.Int).Set(q.X), Y: new(big.Int).Set(q.Y)}
	}
	if q.IsIdentity() {
		return Point{X: new(big.Int).Set(p.X), Y: new(big.Int).Set(p.Y)}
	}
	pp := curve.Params().P
	var lambda *big.Int
	if p.X.Cmp(q.X) == 0 {
		if p.Y.Cmp(q.Y) != 0 || p.Y.Sign() == 0 {
			return Identity() // p == −q
		}
		// Tangent: λ = (3x² − 3) / 2y
		num := new(big.Int).Mul(p.X, p.X)
		num.Mul(num, big.NewInt(3))
		num.Sub(num, big.NewInt(3))
		den := new(big.Int).Lsh(p.Y, 1)
		den.ModInverse(den, pp)
		lambda = num.Mul(num, den)
	} else {
		// Chord: λ = (y2 − y1) / (x2 − x1)
		num := new(big.Int).Sub(q.Y, p.Y)
		den := new(big.Int).Sub(q.X, p.X)
		den.Mod(den, pp)
		den.ModInverse(den, pp)
		lambda = num.Mul(num, den)
	}
	lambda.Mod(lambda, pp)
	x := new(big.Int).Mul(lambda, lambda)
	x.Sub(x, p.X)
	x.Sub(x, q.X)
	x.Mod(x, pp)
	y := new(big.Int).Sub(p.X, x)
	y.Mul(y, lambda)
	y.Sub(y, p.Y)
	y.Mod(y, pp)
	return Point{X: x, Y: y}
}

// refAffineMul returns k·p by double-and-add over refAffineAdd.
func refAffineMul(p Point, k *big.Int) Point {
	kk := new(big.Int).Mod(k, order)
	acc := Identity()
	for i := kk.BitLen() - 1; i >= 0; i-- {
		acc = refAffineAdd(acc, acc)
		if kk.Bit(i) == 1 {
			acc = refAffineAdd(acc, p)
		}
	}
	return acc
}

// refAffineBaseMul returns k·G on the reference path.
func refAffineBaseMul(k *big.Int) Point { return refAffineMul(Generator(), k) }
