package elgamal

// Scalars without math/big. The block shuffle argument handles a
// scalar per element and proof round, and it only ever moves them
// between two forms: the 32-byte big-endian wire form its openings
// travel in (BlockOpening.Rand) and the four little-endian 64-bit limbs
// the fixed-base tables read (scalarLimbs). The one arithmetic it needs
// — an opening's residual w − r and the verifier's negation n − r —
// runs on the limbs, so an opening is drawn, rewritten, checked and
// used without a big.Int.

import (
	"bufio"
	"encoding/binary"
	"io"
	"math/bits"
)

// orderLimbs is the group order n as limbs.
var orderLimbs = scalarLimbs(order)

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
