package elgamal

// Jacobian-coordinate P-256 group arithmetic. A point (X, Y, Z)
// represents the affine point (X/Z², Y/Z³); the point at infinity has
// Z = 0. Working projectively defers the field inversion that an affine
// addition needs: a chain of additions (a table multiplication, an MSM)
// costs *one* inversion when its result becomes a Point again (toAffine),
// and a vector of them shares one (batchToAffine, Montgomery's
// simultaneous-inversion trick).

import (
	"math/big"
	"slices"
)

// jacPoint is a point in Jacobian coordinates, field elements in
// Montgomery form.
type jacPoint struct {
	x, y, z fe
}

// isInfinity reports whether the point is the group identity.
func (p *jacPoint) isInfinity() bool { return p.z.isZero() }

// setInfinity sets p to the group identity.
func (p *jacPoint) setInfinity() { *p = jacPoint{} }

// jacobian lifts p to Z = 1 (Z = 0 for the identity).
func (p *Point) jacobian() jacPoint {
	if p.infinity {
		return jacPoint{}
	}
	return jacPoint{x: p.x, y: p.y, z: feOneVal}
}

// toAffine normalizes p to a Point with one field inversion. Prefer
// batchToAffine for vectors.
func (p *jacPoint) toAffine() Point {
	if p.isInfinity() {
		return Identity()
	}
	var zInv, zInv2, zInv3 fe
	var out Point
	feInv(&zInv, &p.z)
	feSqr(&zInv2, &zInv)
	feMul(&zInv3, &zInv2, &zInv)
	feMul(&out.x, &p.x, &zInv2)
	feMul(&out.y, &p.y, &zInv3)
	return out
}

// double sets p = 2q using dbl-2001-b for a = −3 (3M + 5S).
func (p *jacPoint) double(q *jacPoint) {
	if q.isInfinity() {
		p.setInfinity()
		return
	}
	var delta, gamma, beta, alpha, t1, t2 fe
	feSqr(&delta, &q.z)
	feSqr(&gamma, &q.y)
	feMul(&beta, &q.x, &gamma)
	// alpha = 3(X − delta)(X + delta)
	feSub(&t1, &q.x, &delta)
	feAdd(&t2, &q.x, &delta)
	feMul(&alpha, &t1, &t2)
	feMulBy3(&alpha, &alpha)
	// Z3 = (Y + Z)² − gamma − delta  (computed first: reads q.y, q.z)
	feAdd(&t1, &q.y, &q.z)
	feSqr(&t1, &t1)
	feSub(&t1, &t1, &gamma)
	feSub(&p.z, &t1, &delta)
	// X3 = alpha² − 8beta
	var x3 fe
	feSqr(&x3, &alpha)
	feMulBy8(&t1, &beta)
	feSub(&x3, &x3, &t1)
	// Y3 = alpha(4beta − X3) − 8gamma²
	feMulBy4(&t1, &beta)
	feSub(&t1, &t1, &x3)
	feMul(&t1, &alpha, &t1)
	feSqr(&t2, &gamma)
	feMulBy8(&t2, &t2)
	feSub(&p.y, &t1, &t2)
	p.x = x3
}

// addMixed sets p = q + r where r is affine (madd-2004-hmv, 8M + 3S).
func (p *jacPoint) addMixed(q *jacPoint, r *Point) {
	if r.infinity {
		*p = *q
		return
	}
	if q.isInfinity() {
		p.x, p.y, p.z = r.x, r.y, feOneVal
		return
	}
	var t1, t2, t3, t4 fe
	feSqr(&t1, &q.z)      // Z1²
	feMul(&t2, &t1, &q.z) // Z1³
	feMul(&t1, &t1, &r.x) // U2 = X2·Z1²
	feMul(&t2, &t2, &r.y) // S2 = Y2·Z1³
	feSub(&t1, &t1, &q.x) // H = U2 − X1
	feSub(&t2, &t2, &q.y) // R = S2 − Y1
	if t1.isZero() {
		if t2.isZero() {
			p.double(q)
			return
		}
		p.setInfinity()
		return
	}
	var z3 fe
	feMul(&z3, &q.z, &t1) // Z3 = Z1·H
	feSqr(&t3, &t1)       // H²
	feMul(&t4, &t3, &t1)  // H³
	feMul(&t3, &t3, &q.x) // X1·H²
	feMulBy2(&t1, &t3)    // 2·X1·H²
	var x3 fe
	feSqr(&x3, &t2)       // R²
	feSub(&x3, &x3, &t1)  // R² − 2X1H²
	feSub(&x3, &x3, &t4)  // − H³
	feSub(&t3, &t3, &x3)  // X1H² − X3
	feMul(&t3, &t3, &t2)  // R(X1H² − X3)
	feMul(&t4, &t4, &q.y) // H³·Y1
	feSub(&p.y, &t3, &t4)
	p.x = x3
	p.z = z3
}

// subMixed sets p = q − r for affine r.
func (p *jacPoint) subMixed(q *jacPoint, r *Point) {
	neg := r.Neg()
	p.addMixed(q, &neg)
}

// add sets p = q + r (general Jacobian add-2007-bl, 11M + 5S).
func (p *jacPoint) add(q, r *jacPoint) {
	if q.isInfinity() {
		*p = *r
		return
	}
	if r.isInfinity() {
		*p = *q
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, i, j, rr, v, t fe
	feSqr(&z1z1, &q.z)
	feSqr(&z2z2, &r.z)
	feMul(&u1, &q.x, &z2z2)
	feMul(&u2, &r.x, &z1z1)
	feMul(&s1, &q.y, &r.z)
	feMul(&s1, &s1, &z2z2)
	feMul(&s2, &r.y, &q.z)
	feMul(&s2, &s2, &z1z1)
	feSub(&h, &u2, &u1)
	feSub(&rr, &s2, &s1)
	if h.isZero() {
		if rr.isZero() {
			p.double(q)
			return
		}
		p.setInfinity()
		return
	}
	feMulBy2(&rr, &rr) // r = 2(S2 − S1)
	feMulBy2(&i, &h)   // 2H
	feSqr(&i, &i)      // I = (2H)²
	feMul(&j, &h, &i)  // J = H·I
	feMul(&v, &u1, &i) // V = U1·I
	var x3 fe
	feSqr(&x3, &rr)
	feSub(&x3, &x3, &j)
	feMulBy2(&t, &v)
	feSub(&x3, &x3, &t) // X3 = r² − J − 2V
	feSub(&t, &v, &x3)
	feMul(&t, &t, &rr)
	feMul(&s1, &s1, &j)
	feMulBy2(&s1, &s1)
	var y3 fe
	feSub(&y3, &t, &s1) // Y3 = r(V − X3) − 2S1·J
	var z3 fe
	feAdd(&z3, &q.z, &r.z)
	feSqr(&z3, &z3)
	feSub(&z3, &z3, &z1z1)
	feSub(&z3, &z3, &z2z2)
	feMul(&z3, &z3, &h) // Z3 = ((Z1+Z2)² − Z1Z1 − Z2Z2)·H
	p.x, p.y, p.z = x3, y3, z3
}

// batchToAffine normalizes a vector of Jacobian points to affine with a
// single field inversion (see batchToAffineInto).
func batchToAffine(ps []jacPoint) []Point {
	out := make([]Point, len(ps))
	batchToAffineInto(out, ps, nil)
	return out
}

// batchToAffineInto normalizes ps into out, which must be as long, with
// a single field inversion (Montgomery's simultaneous-inversion trick):
// accumulate prefix products of the Zs, invert the total once, then
// peel per-point inverses off backwards. prods is scratch for the
// products, grown once when short and returned so a caller can keep it.
func batchToAffineInto(out []Point, ps []jacPoint, prods []fe) []fe {
	// Prefix products over the non-infinity Zs.
	prods = slices.Grow(prods[:0], len(ps))
	acc := feOneVal
	for i := range ps {
		if ps[i].isInfinity() {
			out[i] = Identity()
			continue
		}
		out[i].infinity = false
		feMul(&acc, &acc, &ps[i].z)
		prods = append(prods, acc)
	}
	if len(prods) == 0 {
		return prods
	}
	var inv fe
	feInv(&inv, &prods[len(prods)-1])
	k := len(prods) - 1
	for i := len(ps) - 1; i >= 0; i-- {
		if out[i].infinity {
			continue
		}
		var zInv fe
		if k == 0 {
			zInv = inv
		} else {
			feMul(&zInv, &inv, &prods[k-1])
			feMul(&inv, &inv, &ps[i].z)
		}
		k--
		var zInv2, zInv3 fe
		feSqr(&zInv2, &zInv)
		feMul(&zInv3, &zInv2, &zInv)
		feMul(&out[i].x, &ps[i].x, &zInv2)
		feMul(&out[i].y, &ps[i].y, &zInv3)
	}
	return prods
}

// scalarLimbs loads a scalar already reduced mod the group order into
// 4 little-endian limbs.
func scalarLimbs(k *big.Int) [4]uint64 {
	var out [4]uint64
	limbsFromBig(out[:], k)
	return out
}
