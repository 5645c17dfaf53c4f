package elgamal

// P-256 base-field arithmetic on 4×64-bit limbs in Montgomery form: the
// layer every Point coordinate lives in (group.go) and the Jacobian and
// affine batch formulas compute on (jacobian.go, affine.go). No
// operation allocates, and nothing here touches math/big: the curve's
// constants below are literal limbs, which the tests hold to
// crypto/elliptic's parameters.
//
// feMul, feSqr and feSqrN have two implementations with bit-identical
// outputs. On amd64 they are Go's own P-256 Montgomery assembly
// (field_amd64.s, from Go 1.24's crypto/internal/fips140/nistec, whose
// p256Element is this fe), about 0.65× the cost of the pure-Go bodies
// (BenchmarkFieldOps: a multiplication ~23–28 ns against ~33–43 ns on
// one core of a 2.1 GHz Xeon, where math/big Mul+Mod takes ~240 ns).
// On every other architecture they are the pure-Go feMulGeneric,
// feSqrGeneric and feSqrNGeneric below (field_generic.go), which the
// tests hold the assembly to.
//
// Arithmetic here is *variable time*. The reproduction runs simulated
// parties inside one trusted process, so timing side channels between
// parties are out of scope; see the package comment in group.go.

import (
	"encoding/binary"
	"math/bits"
)

// fe is a field element: 4 little-endian 64-bit limbs, Montgomery form
// (value·2^256 mod p).
type fe [4]uint64

// p256P is the field prime p = 2^256 − 2^224 + 2^192 + 2^96 − 1.
var p256P = fe{0xffffffffffffffff, 0x00000000ffffffff, 0x0000000000000000, 0xffffffff00000001}

// Montgomery constants, and the curve coefficient b in Montgomery form.
var (
	feOneVal = fe{0x0000000000000001, 0xffffffff00000000, 0xffffffffffffffff, 0x00000000fffffffe} // R mod p, the Montgomery form of 1
	feR2     = fe{0x0000000000000003, 0xfffffffbffffffff, 0xfffffffffffffffe, 0x00000004fffffffd} // R² mod p, used to convert into Montgomery form
	feBVal   = feMont(fe{0x3bce3c3e27d2604b, 0x651d06b0cc53b0f6, 0xb3ebbd55769886bc, 0x5ac635d8aa3a93e7})
)

// feMont converts a value below p, given as plain little-endian limbs,
// into Montgomery form.
func feMont(v fe) fe {
	var out fe
	feMul(&out, &v, &feR2)
	return out
}

// feFromBytes decodes 32 big-endian bytes into Montgomery form. It
// refuses a value ≥ p: the conversion would reduce it to value − p, and
// one point would have two encodings.
func feFromBytes(b []byte) (fe, bool) {
	var raw fe
	for i := range raw {
		raw[3-i] = binary.BigEndian.Uint64(b[8*i:])
	}
	var borrow uint64
	for i := range raw {
		_, borrow = bits.Sub64(raw[i], p256P[i], borrow)
	}
	if borrow == 0 {
		return fe{}, false
	}
	var out fe
	feMul(&out, &raw, &feR2)
	return out, true
}

// appendBytes appends x out of Montgomery form as 32 big-endian bytes.
func (x *fe) appendBytes(dst []byte) []byte {
	var raw fe
	feMul(&raw, x, &fe{1}) // divides by R, leaving the true value
	for i := 3; i >= 0; i-- {
		dst = binary.BigEndian.AppendUint64(dst, raw[i])
	}
	return dst
}

// isZero reports whether x is zero (works in Montgomery form: the
// Montgomery representation of 0 is 0).
func (x *fe) isZero() bool {
	return x[0]|x[1]|x[2]|x[3] == 0
}

// feEqual reports limb equality; both sides must be reduced, which every
// producer in this file guarantees.
func feEqual(x, y *fe) bool {
	return x[0] == y[0] && x[1] == y[1] && x[2] == y[2] && x[3] == y[3]
}

// The reductions in feAdd, feSub, feMul and feSqr are branch-free:
// whether a sum reaches p or a difference borrows is a coin flip on
// random operands, so a branch on it mispredicts about every second
// call. Each result is selected with a mask (all ones or zero, from the
// final borrow) instead.

// feAdd computes z = x + y mod p.
func feAdd(z, x, y *fe) {
	var c uint64
	var t0, t1, t2, t3 uint64
	t0, c = bits.Add64(x[0], y[0], 0)
	t1, c = bits.Add64(x[1], y[1], c)
	t2, c = bits.Add64(x[2], y[2], c)
	t3, c = bits.Add64(x[3], y[3], c)
	// Reduce: t − p if the sum overflowed or is ≥ p, else t.
	var u0, u1, u2, u3, b uint64
	u0, b = bits.Sub64(t0, p256P[0], 0)
	u1, b = bits.Sub64(t1, p256P[1], b)
	u2, b = bits.Sub64(t2, p256P[2], b)
	u3, b = bits.Sub64(t3, p256P[3], b)
	_, b = bits.Sub64(c, 0, b)
	keep := -b // all ones when t < p
	z[0] = u0 ^ (keep & (u0 ^ t0))
	z[1] = u1 ^ (keep & (u1 ^ t1))
	z[2] = u2 ^ (keep & (u2 ^ t2))
	z[3] = u3 ^ (keep & (u3 ^ t3))
}

// feSub computes z = x − y mod p: the difference, plus p when it
// borrowed.
func feSub(z, x, y *fe) {
	var b, c uint64
	var t0, t1, t2, t3 uint64
	t0, b = bits.Sub64(x[0], y[0], 0)
	t1, b = bits.Sub64(x[1], y[1], b)
	t2, b = bits.Sub64(x[2], y[2], b)
	t3, b = bits.Sub64(x[3], y[3], b)
	mask := -b
	z[0], c = bits.Add64(t0, p256P[0]&mask, 0)
	z[1], c = bits.Add64(t1, p256P[1]&mask, c)
	z[2], c = bits.Add64(t2, p256P[2]&mask, c)
	z[3], _ = bits.Add64(t3, p256P[3]&mask, c)
}

// feNeg computes z = −x mod p.
func feNeg(z, x *fe) {
	var zero fe
	feSub(z, &zero, x)
}

// feHalf computes z = x/2 mod p: x, plus p when x is odd, shifted
// right by one bit.
func feHalf(z, x *fe) {
	mask := -(x[0] & 1)
	var c uint64
	var t0, t1, t2, t3 uint64
	t0, c = bits.Add64(x[0], p256P[0]&mask, 0)
	t1, c = bits.Add64(x[1], p256P[1]&mask, c)
	t2, c = bits.Add64(x[2], p256P[2]&mask, c)
	t3, c = bits.Add64(x[3], p256P[3]&mask, c)
	z[0] = t0>>1 | t1<<63
	z[1] = t1>>1 | t2<<63
	z[2] = t2>>1 | t3<<63
	z[3] = t3>>1 | c<<63
}

// feMulBy2 computes z = 2x mod p.
func feMulBy2(z, x *fe) { feAdd(z, x, x) }

// feMulBy3 computes z = 3x mod p.
func feMulBy3(z, x *fe) {
	var t fe
	feAdd(&t, x, x)
	feAdd(z, &t, x)
}

// feMulGeneric computes z = x·y·R⁻¹ mod p (Montgomery CIOS). Because
// p[0] = 2^64 − 1 ≡ −1 (mod 2^64), the Montgomery factor −p⁻¹ mod 2^64
// is 1, so m is simply the running low limb — and because
// p = 2^256 + 2^192 + 2^96 − 2^224 − 1, the reduction step
// t += m·p needs only shifted additions and subtractions of m instead
// of four 64×64 multiplications:
//
//	t += m·2^256 + m·2^192 + m·2^96   (positive part, ≥ the negative)
//	t −= m·2^224 + m                  (the −m zeroes limb 0 exactly)
func feMulGeneric(z, x, y *fe) {
	var t0, t1, t2, t3, t4 uint64
	for i := 0; i < 4; i++ {
		xi := x[i]
		var carry, c, b, hi, lo uint64
		hi, lo = bits.Mul64(xi, y[0])
		t0, c = bits.Add64(t0, lo, 0)
		carry = hi + c
		hi, lo = bits.Mul64(xi, y[1])
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t1, c = bits.Add64(t1, lo, 0)
		carry = hi + c
		hi, lo = bits.Mul64(xi, y[2])
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t2, c = bits.Add64(t2, lo, 0)
		carry = hi + c
		hi, lo = bits.Mul64(xi, y[3])
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t3, c = bits.Add64(t3, lo, 0)
		t4 += hi + c

		m := t0
		ml := m << 32
		mh := m >> 32
		var t5 uint64
		t1, c = bits.Add64(t1, ml, 0)
		t2, c = bits.Add64(t2, mh, c)
		t3, c = bits.Add64(t3, m, c)
		t4, c = bits.Add64(t4, m, c)
		t5 = c
		_, b = bits.Sub64(t0, m, 0) // exact zero by construction
		t1, b = bits.Sub64(t1, 0, b)
		t2, b = bits.Sub64(t2, 0, b)
		t3, b = bits.Sub64(t3, ml, b)
		t4, b = bits.Sub64(t4, mh, b)
		t5 -= b // cannot underflow: t + m·p ≥ 0 and fits 321 bits
		t0, t1, t2, t3, t4 = t1, t2, t3, t4, t5
	}
	// Branch-free final reduction: t − p if that does not borrow, else t.
	var u0, u1, u2, u3, bb uint64
	u0, bb = bits.Sub64(t0, p256P[0], 0)
	u1, bb = bits.Sub64(t1, p256P[1], bb)
	u2, bb = bits.Sub64(t2, p256P[2], bb)
	u3, bb = bits.Sub64(t3, p256P[3], bb)
	_, bb = bits.Sub64(t4, 0, bb)
	keep := -bb // all ones when t < p
	z[0] = u0 ^ (keep & (u0 ^ t0))
	z[1] = u1 ^ (keep & (u1 ^ t1))
	z[2] = u2 ^ (keep & (u2 ^ t2))
	z[3] = u3 ^ (keep & (u3 ^ t3))
}

// feSqrGeneric computes z = x²·R⁻¹ mod p. Separate-operand-scanning
// squaring: the six cross products are computed once and doubled with
// shifts (10 half-size multiplications instead of 16), then four
// shift-based Montgomery reduction rounds fold the low half into the
// high half.
func feSqrGeneric(z, x *fe) {
	// Cross products Σ_{i<j} xᵢxⱼ·2^{64(i+j)} in limbs r1..r6.
	h01, l01 := bits.Mul64(x[0], x[1])
	h02, l02 := bits.Mul64(x[0], x[2])
	h03, l03 := bits.Mul64(x[0], x[3])
	h12, l12 := bits.Mul64(x[1], x[2])
	h13, l13 := bits.Mul64(x[1], x[3])
	h23, l23 := bits.Mul64(x[2], x[3])

	var c uint64
	r1 := l01
	r2, c := bits.Add64(h01, l02, 0)
	r3, c := bits.Add64(h02, l03, c)
	r4, c := bits.Add64(h03, l13, c)
	r5, c := bits.Add64(h13, l23, c)
	r6 := h23 + c
	r3, c = bits.Add64(r3, l12, 0)
	r4, c = bits.Add64(r4, h12, c)
	r5, c = bits.Add64(r5, 0, c)
	r6 += c

	// Double the cross sum (top bit cannot overflow: the sum of cross
	// products is < 2^447).
	r7 := r6 >> 63
	r6 = r6<<1 | r5>>63
	r5 = r5<<1 | r4>>63
	r4 = r4<<1 | r3>>63
	r3 = r3<<1 | r2>>63
	r2 = r2<<1 | r1>>63
	r1 = r1 << 1

	// Add the squares on the diagonal.
	h0, l0 := bits.Mul64(x[0], x[0])
	h1, l1 := bits.Mul64(x[1], x[1])
	h2, l2 := bits.Mul64(x[2], x[2])
	h3, l3 := bits.Mul64(x[3], x[3])
	r0 := l0
	r1, c = bits.Add64(r1, h0, 0)
	r2, c = bits.Add64(r2, l1, c)
	r3, c = bits.Add64(r3, h1, c)
	r4, c = bits.Add64(r4, l2, c)
	r5, c = bits.Add64(r5, h2, c)
	r6, c = bits.Add64(r6, l3, c)
	r7, _ = bits.Add64(r7, h3, c)

	// Four Montgomery reduction rounds over the 8-limb square, same
	// shift-based t += m·p as feMulGeneric, folding into a running
	// 5-limb window (t4 tracks the carry limb above the window).
	t0, t1, t2, t3, t4 := r0, r1, r2, r3, uint64(0)
	high := [4]uint64{r4, r5, r6, r7}
	for i := 0; i < 4; i++ {
		var cc, b, t5 uint64
		m := t0
		ml := m << 32
		mh := m >> 32
		t1, cc = bits.Add64(t1, ml, 0)
		t2, cc = bits.Add64(t2, mh, cc)
		t3, cc = bits.Add64(t3, m, cc)
		t4, cc = bits.Add64(t4, m, cc)
		t5 = cc
		_, b = bits.Sub64(t0, m, 0)
		t1, b = bits.Sub64(t1, 0, b)
		t2, b = bits.Sub64(t2, 0, b)
		t3, b = bits.Sub64(t3, ml, b)
		t4, b = bits.Sub64(t4, mh, b)
		t5 -= b
		// Shift the window down and pull in the next high limb.
		t0, t1, t2 = t1, t2, t3
		t3, cc = bits.Add64(t4, high[i], 0)
		t4 = t5 + cc
	}

	// Branch-free final reduction: t − p if that does not borrow, else t.
	var u0, u1, u2, u3, bb uint64
	u0, bb = bits.Sub64(t0, p256P[0], 0)
	u1, bb = bits.Sub64(t1, p256P[1], bb)
	u2, bb = bits.Sub64(t2, p256P[2], bb)
	u3, bb = bits.Sub64(t3, p256P[3], bb)
	_, bb = bits.Sub64(t4, 0, bb)
	keep := -bb // all ones when t < p
	z[0] = u0 ^ (keep & (u0 ^ t0))
	z[1] = u1 ^ (keep & (u1 ^ t1))
	z[2] = u2 ^ (keep & (u2 ^ t2))
	z[3] = u3 ^ (keep & (u3 ^ t3))
}

// feInv computes z = x⁻¹ = x^(p−2) mod p (Fermat), 255 squarings and 13
// multiplications that allocate nothing. Reading p − 2 from the top bit
// down, it is 32 ones, 31 zeros, a one, 96 zeros, 94 ones, a zero and a
// one; runs[i] (feOnesRuns) holds x raised to a run of 2^i ones.
// Inversions are rare by design — one per single-point normalization,
// per *batch* of them (batchToAffine) or per step of affine additions
// (affineScratch.add).
func feInv(z, x *fe) {
	runs := feOnesRuns(x)
	t := runs[5]
	feSqrN(&t, &t, 32)
	feMul(&t, &t, x)
	feSqrN(&t, &t, 96+32)
	feMul(&t, &t, &runs[5])
	feSqrN(&t, &t, 32)
	feMul(&t, &t, &runs[5])
	for i := 4; i >= 1; i-- { // 64 + 16 + 8 + 4 + 2 = 94 ones
		feSqrN(&t, &t, 1<<i)
		feMul(&t, &t, &runs[i])
	}
	feSqrN(&t, &t, 2)
	feMul(z, &t, x)
}

// feOnesRuns returns runs[i] = x^(2^(2^i) − 1), x raised to a run of
// 2^i ones, for i = 0…5: the 31 squarings and 5 multiplications feInv's
// and feSqrt's chains start from.
func feOnesRuns(x *fe) (runs [6]fe) {
	runs[0] = *x
	for i := 1; i < len(runs); i++ {
		feSqrN(&runs[i], &runs[i-1], 1<<(i-1))
		feMul(&runs[i], &runs[i], &runs[i-1])
	}
	return runs
}

// feSqrt sets z to a square root of x and reports whether x is a
// square; when it is not, z is left holding a non-root. Since
// p ≡ 3 (mod 4) a root is x^((p+1)/4), and (p+1)/4 read from the top
// bit down is 32 ones, 31 zeros, a one, 95 zeros, a one and 94 zeros:
// 253 squarings and 7 multiplications, plus the squaring that checks
// the result. Decompressing a point (ParsePoint) costs one of these.
func feSqrt(z, x *fe) bool {
	runs := feOnesRuns(x)
	t := runs[5]
	feSqrN(&t, &t, 32)
	feMul(&t, &t, x)
	feSqrN(&t, &t, 96)
	feMul(&t, &t, x)
	feSqrN(&t, &t, 94)
	var check fe
	feSqr(&check, &t)
	*z = t
	return check == *x
}

// feSqrNGeneric computes z = x^(2^n) by n squarings, and z = x for
// n ≤ 0.
func feSqrNGeneric(z, x *fe, n int) {
	*z = *x
	for i := 0; i < n; i++ {
		feSqrGeneric(z, z)
	}
}
