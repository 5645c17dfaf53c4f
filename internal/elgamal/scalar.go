package elgamal

// Scalars as limbs: the four little-endian 64-bit limbs the fixed-base
// tables and the wNAF chains read. The block shuffle argument handles
// a scalar per element and proof round, and it only ever moves them
// between that form and the 32-byte big-endian wire form its openings
// travel in (BlockOpening.Rand). The one arithmetic it needs — an
// opening's residual w − r and the verifier's negation n − r — runs on
// the limbs, so an opening is drawn, rewritten, checked and used
// without a big.Int; so does a Chaum–Pedersen response t + c·x
// (scalarMulAdd), which the blind-proof batches compute per element.

import (
	"bufio"
	"encoding/binary"
	"io"
	"math/big"
	"math/bits"
)

// orderLimbs is the group order n as limbs.
var orderLimbs = [4]uint64{0xf3b9cac2fc632551, 0xbce6faada7179e84, 0xffffffffffffffff, 0xffffffff00000000}

// The math/big edge: the exported API takes scalars as *big.Int, and
// these convert them to and from limbs.

// limbsFromBig loads a non-negative big.Int of at most 64·len(out)
// bits into little-endian 64-bit limbs, independent of the platform's
// big.Word size.
func limbsFromBig(out []uint64, v *big.Int) {
	for i := range out {
		out[i] = 0
	}
	if bits.UintSize == 64 {
		for i, w := range v.Bits() {
			out[i] = uint64(w)
		}
		return
	}
	for i, w := range v.Bits() {
		out[i/2] |= uint64(w) << (32 * uint(i%2))
	}
}

// scalarLimbs loads a scalar already reduced mod the group order into
// 4 little-endian limbs.
func scalarLimbs(k *big.Int) [4]uint64 {
	var out [4]uint64
	limbsFromBig(out[:], k)
	return out
}

// reducedLimbs returns the limbs of k mod the group order, copying k
// through Mod only when it is negative or not below the order.
func reducedLimbs(k *big.Int) [4]uint64 {
	if k.Sign() < 0 || k.Cmp(order) >= 0 {
		k = new(big.Int).Mod(k, order)
	}
	return scalarLimbs(k)
}

// scalarBig returns the scalar l as a fresh big.Int.
func scalarBig(l *[4]uint64) *big.Int {
	var b [scalarLen]byte
	putScalar(b[:], l)
	return new(big.Int).SetBytes(b[:])
}

// scalarFromWire decodes the 32-byte big-endian scalar at the head of b
// into limbs and reports whether it is below the group order.
func scalarFromWire(b []byte) ([4]uint64, bool) {
	var l [4]uint64
	for i := range l {
		l[3-i] = binary.BigEndian.Uint64(b[8*i:])
	}
	var borrow uint64
	for i := range l {
		_, borrow = bits.Sub64(l[i], orderLimbs[i], borrow)
	}
	return l, borrow == 1
}

// scalarFromDigest reads the 32 big-endian bytes at the head of b — a
// hash output — as a scalar mod n. A value at or above n is below 2n,
// so subtracting n once, with no borrow and so no wrap, reduces it.
func scalarFromDigest(b []byte) [4]uint64 {
	l, ok := scalarFromWire(b)
	if !ok {
		l = scalarSub(l, orderLimbs)
	}
	return l
}

// putScalar writes l as a 32-byte big-endian scalar at the head of dst.
func putScalar(dst []byte, l *[4]uint64) {
	for i := range l {
		binary.BigEndian.PutUint64(dst[8*i:], l[3-i])
	}
}

// scalarSub returns a − b mod n for a and b below n. It runs in
// constant time: a prover's residual is made from secret randomizers.
func scalarSub(a, b [4]uint64) [4]uint64 {
	var d [4]uint64
	var borrow uint64
	for i := range d {
		d[i], borrow = bits.Sub64(a[i], b[i], borrow)
	}
	mask := -borrow // all ones when a < b: add n back
	var carry uint64
	for i := range d {
		d[i], carry = bits.Add64(d[i], orderLimbs[i]&mask, carry)
	}
	return d
}

// scalarNeg returns n − a mod n (zero for zero) for a below n.
func scalarNeg(a [4]uint64) [4]uint64 { return scalarSub([4]uint64{}, a) }

// drawScalars fills dst, a whole number of wire scalars, with uniform
// scalars in [1, n−1], reading in bulk and drawing again only for the
// rare value outside (n is within 2⁻³² of 2²⁵⁶).
func drawScalars(r *bufio.Reader, dst []byte) {
	if _, err := io.ReadFull(r, dst); err != nil {
		panic("elgamal: crypto/rand failed: " + err.Error())
	}
	for off := 0; off < len(dst); off += scalarLen {
		for {
			if l, ok := scalarFromWire(dst[off:]); ok && l != [4]uint64{} {
				break
			}
			if _, err := io.ReadFull(r, dst[off:off+scalarLen]); err != nil {
				panic("elgamal: crypto/rand failed: " + err.Error())
			}
		}
	}
}

// Multiplication mod n, for Chaum–Pedersen responses t + c·x: a
// Montgomery product a·b·2⁻²⁵⁶ (CIOS, n0inv = −n⁻¹ mod 2⁶⁴), and a
// second one by 2⁵¹² mod n to cancel the factor. Like scalarSub it
// runs in constant time: x and t are secrets.
var (
	scalarN0inv uint64 = 0xccd1c8aaee00bc4f
	scalarRR           = [4]uint64{0x83244c95be79eea2, 0x4699799c49bd6fa6, 0x2845b2392b6bec59, 0x66e12d94f3d95620}
)

// scalarMontMul returns a·b·2⁻²⁵⁶ mod n for a and b below n.
func scalarMontMul(a, b *[4]uint64) [4]uint64 {
	var t [5]uint64 // the running sum, below 2n after every round
	for i := range a {
		// t += a[i]·b
		var carry, c uint64
		var hi, lo uint64
		for j := range b {
			hi, lo = bits.Mul64(a[i], b[j])
			lo, c = bits.Add64(lo, t[j], 0)
			hi += c
			t[j], c = bits.Add64(lo, carry, 0)
			carry = hi + c
		}
		var top uint64
		t[4], top = bits.Add64(t[4], carry, 0)
		// t = (t + m·n) / 2⁶⁴, m chosen to zero the low limb
		m := t[0] * scalarN0inv
		hi, lo = bits.Mul64(m, orderLimbs[0])
		_, c = bits.Add64(lo, t[0], 0)
		carry = hi + c
		for j := 1; j < 4; j++ {
			hi, lo = bits.Mul64(m, orderLimbs[j])
			lo, c = bits.Add64(lo, t[j], 0)
			hi += c
			t[j-1], c = bits.Add64(lo, carry, 0)
			carry = hi + c
		}
		t[3], c = bits.Add64(t[4], carry, 0)
		t[4] = top + c
	}
	return scalarReduceOnce(t)
}

// scalarReduceOnce returns t mod n for t below 2n, without a branch.
func scalarReduceOnce(t [5]uint64) [4]uint64 {
	var d [4]uint64
	var borrow uint64
	for i := range d {
		d[i], borrow = bits.Sub64(t[i], orderLimbs[i], borrow)
	}
	_, borrow = bits.Sub64(t[4], 0, borrow)
	keep := -borrow // all ones when t < n
	for i := range d {
		d[i] ^= keep & (d[i] ^ t[i])
	}
	return d
}

// scalarMulAdd returns a·b + c mod n for a, b and c below n.
func scalarMulAdd(a, b, c [4]uint64) [4]uint64 {
	ab := scalarMontMul(&a, &b)
	ab = scalarMontMul(&ab, &scalarRR)
	var t [5]uint64
	var carry uint64
	for i := range ab {
		t[i], carry = bits.Add64(ab[i], c[i], carry)
	}
	t[4] = carry
	return scalarReduceOnce(t)
}
