package elgamal

// Reference implementation of the group operations in the affine
// math/big style this package used before the Jacobian core: textbook
// chord-and-tangent formulas paying one modular inversion per point
// addition, and plain double-and-add scalar multiplication. It is the
// ground truth the equivalence property tests compare the fast paths
// against, and the "old per-element affine path" baseline arm of
// BenchmarkGroupOps. Never call it from protocol code.

import (
	"crypto/elliptic"
	"math/big"
)

// curve is the stdlib P-256, the tests' oracle for the curve's
// parameters and its group law.
var curve = elliptic.P256()

// feFromSaturated loads a reduced big.Int into limbs without Montgomery
// conversion (the caller has already accounted for the R factor).
func feFromSaturated(v *big.Int) fe {
	var out fe
	limbsFromBig(out[:], v)
	return out
}

// feFromBig converts a big.Int in [0, p) into Montgomery form.
func feFromBig(v *big.Int) fe { return feMont(feFromSaturated(v)) }

// toBig converts out of Montgomery form into a fresh big.Int.
func (x *fe) toBig() *big.Int {
	var buf [32]byte
	return new(big.Int).SetBytes(x.appendBytes(buf[:0]))
}

// pointXY builds the Point with affine coordinates (x, y), both in
// [0, p), without checking curve membership — the test suite's way to
// hold a stdlib result or an off-curve point. (0, 0) is the identity,
// the convention crypto/elliptic uses.
func pointXY(x, y *big.Int) Point {
	if x.Sign() == 0 && y.Sign() == 0 {
		return Identity()
	}
	return Point{x: feFromBig(x), y: feFromBig(y)}
}

// coords returns p's affine coordinates as big.Ints, (0, 0) for the
// identity.
func coords(p Point) (x, y *big.Int) {
	if p.IsIdentity() {
		return new(big.Int), new(big.Int)
	}
	return p.x.toBig(), p.y.toBig()
}

// refAffineAdd returns p + q using affine formulas (one field inversion
// per call).
func refAffineAdd(p, q Point) Point {
	if p.IsIdentity() {
		return q
	}
	if q.IsIdentity() {
		return p
	}
	px, py := coords(p)
	qx, qy := coords(q)
	pp := curve.Params().P
	var lambda *big.Int
	if px.Cmp(qx) == 0 {
		if py.Cmp(qy) != 0 || py.Sign() == 0 {
			return Identity() // p == −q
		}
		// Tangent: λ = (3x² − 3) / 2y
		num := new(big.Int).Mul(px, px)
		num.Mul(num, big.NewInt(3))
		num.Sub(num, big.NewInt(3))
		den := new(big.Int).Lsh(py, 1)
		den.ModInverse(den, pp)
		lambda = num.Mul(num, den)
	} else {
		// Chord: λ = (y2 − y1) / (x2 − x1)
		num := new(big.Int).Sub(qy, py)
		den := new(big.Int).Sub(qx, px)
		den.Mod(den, pp)
		den.ModInverse(den, pp)
		lambda = num.Mul(num, den)
	}
	lambda.Mod(lambda, pp)
	x := new(big.Int).Mul(lambda, lambda)
	x.Sub(x, px)
	x.Sub(x, qx)
	x.Mod(x, pp)
	y := new(big.Int).Sub(px, x)
	y.Mul(y, lambda)
	y.Sub(y, py)
	y.Mod(y, pp)
	return pointXY(x, y)
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
