package elgamal

// Variable-time multi-scalar multiplication: Σᵢ kᵢ·Pᵢ via Strauss
// interleaving with width-5 wNAF digits. All terms share one doubling
// chain — 256 doublings total no matter how many terms — so the
// marginal cost of a term is ~43 mixed additions plus a tiny odd-
// multiples precomputation. This is what makes random-linear-
// combination batch proof verification (verify.go) several times
// cheaper than verifying each Chaum–Pedersen equation with two full
// scalar multiplications.

import (
	"math/big"
	"slices"
	"sync"
)

const (
	wnafWidth = 5
	// wnafTableSize is the number of odd multiples 1,3,...,2^(w-1)-1.
	wnafTableSize = 1 << (wnafWidth - 2)
)

// wnafDigits writes the width-w NAF of the scalar k, given as limbs,
// into digits, returning the number of digit positions used. Digit i is
// zero or an odd value in [−2^(w−1)+1, 2^(w−1)−1].
func wnafDigits(k *[4]uint64, digits *[257]int8) int {
	limbs := [5]uint64{k[0], k[1], k[2], k[3]} // one spare limb: wNAF can carry past bit 255
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

// msmScratch is the working memory of a multi-scalar multiplication —
// the live points, their digits, the buckets or odd multiples and the
// normalization's products — plus the term list batch verification
// builds for it (eqAccum, foldPoints). It comes from msmPool, so a
// round's thousands of verifications reuse a few per worker, and must
// not be shared between goroutines.
type msmScratch struct {
	terms   []msmTerm
	points  []Point
	digits  []int32 // Pippenger's, len(points)·windows
	wnaf    []int8  // Strauss's, every live term's digits back to back
	lens    []int
	jac     []jacPoint // Pippenger's buckets, Strauss's odd multiples
	odd     []Point
	prods   []fe
	entries []int32
}

var msmPool = sync.Pool{New: func() any { return new(msmScratch) }}

// getMSMScratch returns a pooled scratch with an empty term list.
// Return it with put.
func getMSMScratch() *msmScratch {
	s := msmPool.Get().(*msmScratch)
	s.terms = s.terms[:0]
	return s
}

// put returns s to the pool. The terms point at their callers'
// scalars, so they are cleared first: a pooled scratch pins no memory.
// Terms past len were cleared by an earlier put.
func (s *msmScratch) put() {
	clear(s.terms)
	msmPool.Put(s)
}

// mul computes Σ kᵢ·Pᵢ in Jacobian coordinates on s's buffers,
// dispatching between Strauss interleaving (small batches) and the
// Pippenger bucket method (large batches). terms may be s.terms.
// Returns false if any point fails curve validation (callers treat
// that as a verification failure, never a panic).
func (s *msmScratch) mul(dst *jacPoint, terms []msmTerm) bool {
	if len(terms) >= pippengerThreshold {
		return s.pippenger(dst, terms)
	}
	return s.strauss(dst, terms)
}

// strauss is Strauss interleaving with width-5 wNAF digits.
//
// The per-term wNAF digits are transposed into per-bit-position buckets
// (a counting sort) before the shared doubling chain runs, so the main
// loop touches exactly the additions it performs in one sequential
// sweep — scanning every term at every bit position would cost more in
// cache misses than the field arithmetic itself.
func (s *msmScratch) strauss(dst *jacPoint, terms []msmTerm) bool {
	// Grown once up front: a scratch fresh from the pool would
	// otherwise double its way up to the term count.
	s.wnaf = slices.Grow(s.wnaf[:0], 257*len(terms))
	s.lens = slices.Grow(s.lens[:0], len(terms))
	s.points = slices.Grow(s.points[:0], len(terms))
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
		l := scalarLimbs(t.scalar)
		n := wnafDigits(&l, &scratch)
		if n == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			if scratch[i] != 0 {
				counts[i]++
			}
		}
		s.wnaf = append(s.wnaf, scratch[:n]...)
		s.lens = append(s.lens, n)
		s.points = append(s.points, t.point)
		if n > maxLen {
			maxLen = n
		}
	}
	dst.setInfinity()
	if len(s.points) == 0 {
		return true
	}

	// Odd multiples 1P, 3P, ..., 15P per live term, accumulated in
	// Jacobian form and normalized together: one inversion for the
	// whole precomputation.
	jacOdd := resize(s.jac, len(s.points)*wnafTableSize)
	s.jac = jacOdd
	for j := range s.points {
		oddMultiples(jacOdd[j*wnafTableSize:][:wnafTableSize], &s.points[j])
	}
	s.odd = resize(s.odd, len(jacOdd))
	s.prods = batchToAffineInto(s.odd, jacOdd, s.prods)
	odd := s.odd

	// Transpose digits into contiguous per-position buckets: bucket i
	// holds an index into odd (with the digit's sign folded in as ±1
	// offsets, encoded as 2·idx or 2·idx+1 for negation).
	var offsets [258]int32
	for i := 0; i < 257; i++ {
		offsets[i+1] = offsets[i] + counts[i]
	}
	entries := resize(s.entries, int(offsets[257]))
	s.entries = entries
	var next [257]int32
	copy(next[:], offsets[:257])
	pos := 0
	for j, n := range s.lens {
		base := int32(j * wnafTableSize)
		for i := 0; i < n; i++ {
			d := s.wnaf[pos+i]
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

// oddMultiples sets win to P, 3P, 5P, …, 15P for a finite point P, in
// Jacobian coordinates: one doubling and seven additions.
func oddMultiples(win []jacPoint, p *Point) {
	win[0] = p.jacobian()
	var twice jacPoint
	twice.double(&win[0])
	for m := 1; m < len(win); m++ {
		win[m].add(&win[m-1], &twice)
	}
}

// varMulChunk is the most points one varMul call multiplies. A call
// pays two field inversions (≈ 6 µs each), so at 64 points they are
// about 0.2 % of the chunk's ≈ 5.5 ms, and its scratch stays under
// 100 KB.
const varMulChunk = 64

// varMul sets out[i] = k·ps[i] for a chunk of at most varMulChunk
// points, where ps splits into len(ks) equal runs and run j takes the
// scalar whose limbs are ks[j] (reduced mod the group order): one
// scalar for a whole chunk of decryption shares, one per ciphertext's
// two halves for a blinding. Every multiplication is a width-5 wNAF
// chain of Jacobian doublings and mixed additions of the point's odd
// multiples, and the chunk shares its field inversions: the odd
// multiples of every point are normalized under one, the results under
// another. out must not alias ps.
//
// As in Mul, the zero Point — (0, 0), no group element — comes back as
// itself, and any other point off the curve panics: the chain would
// return garbage for it, not a group element.
func (s *msmScratch) varMul(out, ps []Point, ks [][4]uint64) {
	per := len(ps) / len(ks)
	s.wnaf = resize(s.wnaf, 257*len(ks))
	s.lens = resize(s.lens, len(ks))
	for j := range ks {
		s.lens[j] = wnafDigits(&ks[j], (*[257]int8)(s.wnaf[257*j:]))
	}
	jac := resize(s.jac, len(ps)*wnafTableSize)
	s.jac = jac
	for i := range ps {
		win := jac[i*wnafTableSize:][:wnafTableSize]
		if p := &ps[i]; p.infinity || s.lens[i/per] == 0 || *p == (Point{}) {
			clear(win) // at infinity: normalizes to the identity, and marks the chain dead
		} else if p.IsValid() {
			oddMultiples(win, p)
		} else {
			panic("elgamal: scalar multiplication of a point not on the curve")
		}
	}
	odd := resize(s.odd, len(jac))
	s.odd = odd
	s.prods = batchToAffineInto(odd, jac, s.prods)

	// Each chain accumulates in jac[i], whose odd multiples are no
	// longer needed: they were normalized into odd above.
	res := jac[:len(ps)]
	for i := range ps {
		r, win := &res[i], odd[i*wnafTableSize:][:wnafTableSize]
		r.setInfinity()
		if win[0].infinity {
			continue
		}
		j := i / per
		digits := s.wnaf[257*j:][:s.lens[j]]
		for pos := len(digits) - 1; pos >= 0; pos-- {
			r.double(r)
			if d := digits[pos]; d > 0 {
				r.addMixed(r, &win[d>>1])
			} else if d < 0 {
				r.subMixed(r, &win[(-d)>>1])
			}
		}
	}
	s.prods = batchToAffineInto(out, res, s.prods)
	for i := range ps {
		if ps[i] == (Point{}) && s.lens[i/per] != 0 {
			out[i] = Point{}
		}
	}
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

// pippenger is the bucket method with signed base-2^c digits: for
// each of the 257/c windows it sorts every term's digit into a bucket,
// then folds the buckets with a running sum. No per-term
// precomputation, so the marginal term costs one bucket addition per
// window regardless of scalar width.
func (s *msmScratch) pippenger(dst *jacPoint, terms []msmTerm) bool {
	c := pippengerWindow(len(terms))
	windows := (257 + int(c) - 1) / int(c)
	half := int32(1) << (c - 1)

	s.points = slices.Grow(s.points[:0], len(terms))
	s.digits = resize(s.digits, len(terms)*windows)
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
		digits := s.digits[len(s.points)*windows:][:windows]
		for w := range digits {
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
			digits[w] = d
		}
		// carry can only remain set if the scalar's top window
		// overflowed, impossible for reduced scalars (< 2^256 with two
		// spare top bits in the final window).
		s.points = append(s.points, t.point)
	}
	dst.setInfinity()
	points, digits := s.points, s.digits
	if len(points) == 0 {
		return true
	}

	buckets := resize(s.jac, int(half))
	s.jac = buckets
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
