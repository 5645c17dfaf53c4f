package elgamal

// The affine batch plane: many independent point additions under one
// field inversion.
//
// An affine addition needs λ = (y₂ − y₁)/(x₂ − x₁), and the division is
// why single additions run in Jacobian coordinates instead. A batch does
// not have to pay it per element: the n denominators of n independent
// additions are inverted together with Montgomery's trick (prefix
// products, one feInv, peel the inverses off backwards), which leaves
// 5 multiplications and a squaring per addition against addMixed's 8
// and 3 — and the sums are already affine, so there is no normalization
// pass after them. The inversion (feInv, ≈ 7 µs) is the fixed cost of
// a step, which is why callers hand add chunks of at least
// batchMinChunk additions. Points are affine already, so a chunk's
// accumulators are plain copies of its inputs.
//
// The verifier runs this on a prover's ciphertexts with a prover's
// scalars, so add is total. An operand at infinity needs no arithmetic
// and is settled on the spot. Equal x — a doubling or a cancellation,
// which a cheating prover can arrange at will — would put a zero into
// the shared product and poison every other element's inverse, so that
// element stays out of the product and takes that one step through the
// Jacobian group law (addMixed, then its own toAffine). Along one
// chain of fixed-base window steps an element can meet equal x only a
// few times — after a doubling the accumulator is a multiple no later
// window holds, after a cancellation the chain restarts from infinity —
// so a hostile element costs less than the Jacobian multiplication it
// used to get.

// affineScratch is the working memory of one batch of affine additions.
// Each parallel.For chunk makes its own; it must not be shared between
// workers.
type affineScratch struct {
	addend []*Point // what add adds to each element; nil for nothing
	den    []fe     // x₂ − x₁ of each addition in the shared product
	prod   []fe     // prod[k] = den[0]·…·den[k]
	elem   []int32  // the element den[k] belongs to
}

func newAffineScratch(n int) *affineScratch {
	fes := make([]fe, 2*n)
	return &affineScratch{
		addend: make([]*Point, n),
		den:    fes[:n],
		prod:   fes[n:],
		elem:   make([]int32, n),
	}
}

// add sets acc[i] += *addend[i] for every i below len(acc).
func (s *affineScratch) add(acc []Point) {
	n := 0
	run := feOneVal
	for i := range acc {
		p, q := &acc[i], s.addend[i]
		if q == nil || q.infinity {
			continue
		}
		if p.infinity {
			*p = *q
			continue
		}
		feSub(&s.den[n], &q.x, &p.x)
		if s.den[n].isZero() {
			addEqualX(p, q)
			continue
		}
		feMul(&run, &run, &s.den[n])
		s.prod[n] = run
		s.elem[n] = int32(i)
		n++
	}
	if n == 0 {
		return
	}
	var inv fe // the inverse of den[0]·…·den[k] as k counts down
	feInv(&inv, &run)
	for k := n - 1; k >= 0; k-- {
		var denInv fe
		if k == 0 {
			denInv = inv
		} else {
			feMul(&denInv, &inv, &s.prod[k-1])
			feMul(&inv, &inv, &s.den[k])
		}
		i := s.elem[k]
		p, q := &acc[i], s.addend[i]
		var lambda, x3, t fe
		feSub(&t, &q.y, &p.y)
		feMul(&lambda, &t, &denInv)
		feSqr(&x3, &lambda)
		feSub(&x3, &x3, &p.x)
		feSub(&x3, &x3, &q.x)
		feSub(&t, &p.x, &x3)
		feMul(&t, &t, &lambda)
		feSub(&p.y, &t, &p.y)
		p.x = x3
	}
}

// addEqualX sets p += q for finite points with the same x (q = ±p),
// outside the shared inversion.
func addEqualX(p, q *Point) {
	jp := p.jacobian()
	jp.addMixed(&jp, q)
	*p = jp.toAffine()
}

// addVec sets acc[i] += add[i].
func (s *affineScratch) addVec(acc, add []Point) {
	for i := range add {
		s.addend[i] = &add[i]
	}
	s.add(acc)
}
