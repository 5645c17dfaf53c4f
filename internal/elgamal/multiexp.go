package elgamal

// Variable-time multi-scalar multiplication: Σᵢ kᵢ·Pᵢ via Strauss
// interleaving with width-5 wNAF digits. All terms share one doubling
// chain — 256 doublings total no matter how many terms — so the
// marginal cost of a term is ~43 mixed additions plus a tiny odd-
// multiples precomputation. This is what makes random-linear-
// combination batch proof verification (verify.go) several times
// cheaper than verifying each Chaum–Pedersen equation with two full
// scalar multiplications.

import "math/big"

const (
	wnafWidth = 5
	// wnafTableSize is the number of odd multiples 1,3,...,2^(w-1)-1.
	wnafTableSize = 1 << (wnafWidth - 2)
)

// wnafDigits writes the width-w NAF of k (reduced mod the group order)
// into digits, returning the number of digit positions used. Digit i is
// zero or an odd value in [−2^(w−1)+1, 2^(w−1)−1].
func wnafDigits(k *big.Int, digits *[257]int8) int {
	var limbs [5]uint64 // one spare limb: wNAF can carry past bit 255
	limbsFromBig(limbs[:], k)
	n := 0
	pos := 0
	nonZero := limbs[0] | limbs[1] | limbs[2] | limbs[3] | limbs[4]
	for nonZero != 0 {
		if limbs[0]&1 == 0 {
			digits[pos] = 0
		} else {
			d := int64(limbs[0] & (1<<wnafWidth - 1))
			if d >= 1<<(wnafWidth-1) {
				d -= 1 << wnafWidth
			}
			digits[pos] = int8(d)
			// limbs -= d
			if d > 0 {
				borrow := uint64(d)
				for i := 0; i < 5 && borrow != 0; i++ {
					old := limbs[i]
					limbs[i] = old - borrow
					if old >= borrow {
						borrow = 0
					} else {
						borrow = 1
					}
				}
			} else {
				carry := uint64(-d)
				for i := 0; i < 5 && carry != 0; i++ {
					old := limbs[i]
					limbs[i] = old + carry
					if limbs[i] >= old {
						carry = 0
					} else {
						carry = 1
					}
				}
			}
		}
		// limbs >>= 1
		limbs[0] = limbs[0]>>1 | limbs[1]<<63
		limbs[1] = limbs[1]>>1 | limbs[2]<<63
		limbs[2] = limbs[2]>>1 | limbs[3]<<63
		limbs[3] = limbs[3]>>1 | limbs[4]<<63
		limbs[4] >>= 1
		pos++
		if digits[pos-1] != 0 {
			n = pos
		}
		nonZero = limbs[0] | limbs[1] | limbs[2] | limbs[3] | limbs[4]
	}
	return n
}

// msmTerm is one kᵢ·Pᵢ term. The scalar must already be reduced mod the
// group order; identity points and zero scalars are skipped.
type msmTerm struct {
	scalar *big.Int
	point  Point
}

// pippengerThreshold is the term count from which the bucket method
// beats Strauss interleaving: below it the per-window bucket
// aggregation overhead dominates, above it the absence of per-term
// precomputation wins.
const pippengerThreshold = 128

// multiScalarMul computes Σ kᵢ·Pᵢ in Jacobian coordinates, dispatching
// between Strauss interleaving (small batches) and the Pippenger bucket
// method (large batches). Returns false if any point fails curve
// validation (callers treat that as a verification failure, never a
// panic).
func multiScalarMul(dst *jacPoint, terms []msmTerm) bool {
	if len(terms) >= pippengerThreshold {
		return pippengerMSM(dst, terms)
	}
	return straussMSM(dst, terms)
}

// straussMSM is Strauss interleaving with width-5 wNAF digits.
//
// The per-term wNAF digits are transposed into per-bit-position buckets
// (a counting sort) before the shared doubling chain runs, so the main
// loop touches exactly the additions it performs in one sequential
// sweep — scanning every term at every bit position would cost more in
// cache misses than the field arithmetic itself.
func straussMSM(dst *jacPoint, terms []msmTerm) bool {
	digits := make([]int8, 0, 257*len(terms))
	lens := make([]int, 0, len(terms))
	live := make([]Point, 0, len(terms))
	var counts [257]int32
	maxLen := 0
	var scratch [257]int8
	for _, t := range terms {
		if t.scalar.Sign() == 0 || t.point.IsIdentity() {
			continue
		}
		if !t.point.IsValid() {
			return false
		}
		n := wnafDigits(t.scalar, &scratch)
		if n == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			if scratch[i] != 0 {
				counts[i]++
			}
		}
		digits = append(digits, scratch[:n]...)
		lens = append(lens, n)
		live = append(live, t.point)
		if n > maxLen {
			maxLen = n
		}
	}
	dst.setInfinity()
	if len(live) == 0 {
		return true
	}

	// Odd multiples 1P, 3P, ..., 15P per live term, accumulated in
	// Jacobian form and normalized together: one inversion for the
	// whole precomputation.
	jacOdd := make([]jacPoint, 0, len(live)*wnafTableSize)
	for _, p := range live {
		single := p.jacobian()
		var twice jacPoint
		twice.double(&single)
		jacOdd = append(jacOdd, single)
		prev := single
		for m := 1; m < wnafTableSize; m++ {
			var next jacPoint
			next.add(&prev, &twice)
			jacOdd = append(jacOdd, next)
			prev = next
		}
	}
	odd := batchToAffine(jacOdd)

	// Transpose digits into contiguous per-position buckets: bucket i
	// holds an index into odd (with the digit's sign folded in as ±1
	// offsets, encoded as 2·idx or 2·idx+1 for negation).
	var offsets [258]int32
	for i := 0; i < 257; i++ {
		offsets[i+1] = offsets[i] + counts[i]
	}
	entries := make([]int32, offsets[257])
	var next [257]int32
	copy(next[:], offsets[:257])
	pos := 0
	for j, n := range lens {
		base := int32(j * wnafTableSize)
		for i := 0; i < n; i++ {
			d := digits[pos+i]
			if d == 0 {
				continue
			}
			var e int32
			if d > 0 {
				e = (base + int32(d>>1)) << 1
			} else {
				e = (base+int32((-d)>>1))<<1 | 1
			}
			entries[next[i]] = e
			next[i]++
		}
		pos += n
	}

	for i := maxLen - 1; i >= 0; i-- {
		dst.double(dst)
		for _, e := range entries[offsets[i]:offsets[i+1]] {
			if e&1 == 0 {
				dst.addMixed(dst, &odd[e>>1])
			} else {
				dst.subMixed(dst, &odd[e>>1])
			}
		}
	}
	return true
}

// pippengerWindow picks the signed-window width c minimizing
// (257/c)·(N·madd + 2^(c-1)·2·add) for N terms.
func pippengerWindow(n int) uint {
	best, bestCost := uint(6), ^uint64(0)
	for c := uint(6); c <= 13; c++ {
		windows := uint64((257 + int(c) - 1) / int(c))
		// Mixed bucket adds ~11 field muls, aggregation general adds ~16.
		cost := windows * (uint64(n)*11 + (uint64(1)<<(c-1))*2*16)
		if cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return best
}

// pippengerMSM is the bucket method with signed base-2^c digits: for
// each of the 257/c windows it sorts every term's digit into a bucket,
// then folds the buckets with a running sum. No per-term
// precomputation, so the marginal term costs one bucket addition per
// window regardless of scalar width.
func pippengerMSM(dst *jacPoint, terms []msmTerm) bool {
	c := pippengerWindow(len(terms))
	windows := (257 + int(c) - 1) / int(c)
	half := int32(1) << (c - 1)

	points := make([]Point, 0, len(terms))
	digits := make([]int32, 0, len(terms)*windows)
	for _, t := range terms {
		if t.scalar.Sign() == 0 || t.point.IsIdentity() {
			continue
		}
		if !t.point.IsValid() {
			return false
		}
		// Signed base-2^c decomposition: digit ∈ (−2^(c−1), 2^(c−1)].
		limbs := scalarLimbs(t.scalar)
		carry := int32(0)
		start := len(digits)
		digits = append(digits, make([]int32, windows)...)
		for w := 0; w < windows; w++ {
			bit := w * int(c)
			limb := bit >> 6
			off := uint(bit & 63)
			var raw uint64
			if limb < 4 {
				raw = limbs[limb] >> off
				if off+c > 64 && limb+1 < 4 {
					raw |= limbs[limb+1] << (64 - off)
				}
			}
			d := int32(raw&(1<<c-1)) + carry
			if d > half {
				d -= 1 << c
				carry = 1
			} else {
				carry = 0
			}
			digits[start+w] = d
		}
		// carry can only remain set if the scalar's top window
		// overflowed, impossible for reduced scalars (< 2^256 with two
		// spare top bits in the final window).
		points = append(points, t.point)
	}
	dst.setInfinity()
	if len(points) == 0 {
		return true
	}

	buckets := make([]jacPoint, half)
	var windowSum, running jacPoint
	for w := windows - 1; w >= 0; w-- {
		if !dst.isInfinity() {
			for i := uint(0); i < c; i++ {
				dst.double(dst)
			}
		}
		for i := range buckets {
			buckets[i].setInfinity()
		}
		used := false
		for j := range points {
			d := digits[j*windows+w]
			if d > 0 {
				buckets[d-1].addMixed(&buckets[d-1], &points[j])
				used = true
			} else if d < 0 {
				buckets[-d-1].subMixed(&buckets[-d-1], &points[j])
				used = true
			}
		}
		if !used {
			continue
		}
		// Fold buckets: Σ b·bucket[b−1] via suffix running sums.
		windowSum.setInfinity()
		running.setInfinity()
		for b := int(half) - 1; b >= 0; b-- {
			running.add(&running, &buckets[b])
			windowSum.add(&windowSum, &running)
		}
		dst.add(dst, &windowSum)
	}
	return true
}
