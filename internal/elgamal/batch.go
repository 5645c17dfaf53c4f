package elgamal

// Vectorized group and ciphertext operations. These are the entry
// points the PSC hot loops call. Everything with a shared base or an
// element-wise sum runs on the affine batch plane (affine.go): a
// parallel.For chunk keeps its points affine, walks the fixed-base
// tables one window step at a time across the whole chunk
// (fixedTable.accumulate) and pays one field inversion per step, not a
// Jacobian addition per element and a normalization pass at the end.
// A chunk's accumulators, scalar limbs and inversion scratch come from
// a pool (chunkScratch), so a call allocates its output and nothing per
// chunk.
// Per-element variable-base work (blinding, decryption shares) goes to
// the stdlib assembly, spread over the same worker pool.

import (
	"math/big"

	"repro/internal/parallel"
)

// batchMinChunk is the smallest slice of vector work handed to a
// worker. A step of the affine plane costs one inversion (≈ 7 µs)
// plus ≈ 0.2 µs per element, so at 64 elements the inversion is about
// a third of the step and by a PSC block's 512 per worker it is about
// 6 %; below 64 the split would cost more in inversions than the second
// core returns.
const batchMinChunk = 64

// reduceScalars returns the scalars reduced mod the group order,
// reusing the input slice entries that are already reduced.
func reduceScalars(ks []*big.Int) []*big.Int {
	out := make([]*big.Int, len(ks))
	for i, k := range ks {
		if k.Sign() < 0 || k.Cmp(order) >= 0 {
			out[i] = new(big.Int).Mod(k, order)
		} else {
			out[i] = k
		}
	}
	return out
}

// BatchBaseMul computes kᵢ·G for every scalar.
func BatchBaseMul(ks []*big.Int) []Point {
	return batchTableMul(baseTable(), reduceScalars(ks))
}

// batchTableMul computes kᵢ·B for reduced scalars through B's table,
// each chunk accumulating in place in its slice of the output.
func batchTableMul(t *fixedTable, ks []*big.Int) []Point {
	out := make([]Point, len(ks))
	parallel.For(len(ks), batchMinChunk, func(lo, hi int) {
		c := getChunkScratch(0, hi-lo, hi-lo)
		defer c.put()
		acc := out[lo:hi]
		for i := range acc {
			acc[i] = Identity()
			c.limbs[i] = scalarLimbs(ks[lo+i])
		}
		accumulate([]*fixedTable{t}, acc, c.limbs, &c.s)
	})
	return out
}

// batchMulTableThreshold is the batch size from which building a
// windowed table for an uncached base is cheaper than per-element
// stdlib multiplications (a build costs roughly 60 of them).
const batchMulTableThreshold = 64

// BatchMul computes kᵢ·base for every scalar. All elements share one
// base, the common PSC shape (the round's joint key), so for large
// batches the base gets a windowed table — either cached from
// Precompute or built on the spot — and every element becomes a few
// dozen table additions instead of a full scalar multiplication.
func BatchMul(base Point, ks []*big.Int) []Point {
	if base.IsIdentity() {
		out := make([]Point, len(ks))
		for i := range out {
			out[i] = Identity()
		}
		return out
	}
	if base == generator {
		return BatchBaseMul(ks)
	}
	ks = reduceScalars(ks)
	t := sharedBaseTable(base, len(ks))
	if t == nil {
		out := make([]Point, len(ks))
		parallel.For(len(ks), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = base.Mul(ks[i])
			}
		})
		return out
	}
	return batchTableMul(t, ks)
}

// sharedBaseTable resolves the table to use for a batch against one
// shared base: nil means "no table is worth it, use stdlib".
func sharedBaseTable(base Point, n int) *fixedTable {
	if base == generator {
		return baseTable()
	}
	t := cachedTable(base)
	if t == nil && n >= batchMulTableThreshold {
		Precompute(base)
		t = cachedTable(base)
		if t == nil {
			// Cache full; build a throwaway table for this call.
			t = buildTable(base, sharedTableWidth)
		}
	}
	return t
}

// BatchEncrypt encrypts every message under pk with fresh randomizers,
// returning the ciphertexts and the randomizers (shuffle provers need
// them; discard otherwise). An encryption of M is the re-randomization
// of the trivial ciphertext (identity, M).
func BatchEncrypt(pk Point, msgs []Point) ([]Ciphertext, []*big.Int) {
	trivial := make([]Ciphertext, len(msgs))
	id := Identity()
	for i, m := range msgs {
		trivial[i] = Ciphertext{C1: id, C2: m}
	}
	return BatchRerandomize(pk, trivial)
}

// BatchEncryptBits encrypts the PSC bin encoding of each bit (identity
// for 0, the generator for 1) under pk, returning ciphertexts and
// randomizers (bit-proof provers need them).
func BatchEncryptBits(pk Point, bits []bool) ([]Ciphertext, []*big.Int) {
	msgs := make([]Point, len(bits))
	gen := Generator()
	id := Identity()
	for i, b := range bits {
		if b {
			msgs[i] = gen
		} else {
			msgs[i] = id
		}
	}
	return BatchEncrypt(pk, msgs)
}

// BatchRerandomizeWith refreshes every ciphertext with the given
// randomizers: out[i] = (C1ᵢ + rᵢ·G, C2ᵢ + rᵢ·pk).
func BatchRerandomizeWith(pk Point, cs []Ciphertext, rs []*big.Int) []Ciphertext {
	return rerandomizePermuted(pk, cs, nil, rs)
}

// source returns the input index feeding output i: perm[i], or i for
// a nil perm.
func source(perm []int, i int) int {
	if perm == nil {
		return i
	}
	return perm[i]
}

// rerandomizePermuted returns out[i] = in[perm[i]] re-randomized with
// rs[i], or in[i] for a nil perm.
func rerandomizePermuted(pk Point, in []Ciphertext, perm []int, rs []*big.Int) []Ciphertext {
	n := len(in)
	if perm != nil {
		n = len(perm)
	}
	if n != len(rs) {
		panic("elgamal: BatchRerandomizeWith length mismatch")
	}
	out := make([]Ciphertext, n)
	rerandomizeInto(out, pk, in, perm, &scalarSource{big: rs})
	return out
}

// scalarSource yields the randomizer of each output of a batch
// re-randomization as the limbs of a reduced scalar: from big.Ints,
// reduced as they are read, or from wire scalars (scalar.go) the caller
// has already checked below the order — output i's from scalar from[i]
// (i for a nil from), negated when neg is set.
type scalarSource struct {
	big  []*big.Int
	wire []byte
	from []int
	neg  bool
}

func (s *scalarSource) limbs(i int) [4]uint64 {
	if s.big != nil {
		return reducedLimbs(s.big[i])
	}
	l, _ := scalarFromWire(s.wire[scalarLen*source(s.from, i):])
	if s.neg {
		l = scalarNeg(l)
	}
	return l
}

// reducedLimbs returns the limbs of k mod the group order.
func reducedLimbs(k *big.Int) [4]uint64 {
	if k.Sign() < 0 || k.Cmp(order) >= 0 {
		k = new(big.Int).Mod(k, order)
	}
	return scalarLimbs(k)
}

// rerandomizeInto sets out[i] = in[perm[i]] (in[i] for a nil perm)
// re-randomized with rs's scalar i. A chunk seeds its affine
// accumulators with the input halves, read through perm so no permuted
// copy is gathered first, and walks the generator table over the first
// and pk's table over the second in the same steps, from one set of
// scalar limbs and one scratch.
func rerandomizeInto(out []Ciphertext, pk Point, in []Ciphertext, perm []int, rs *scalarSource) {
	n := len(out)
	pt := sharedBaseTable(pk, n)
	if pt == nil {
		parallel.For(n, 1, func(lo, hi int) {
			var k [scalarLen]byte
			for i := lo; i < hi; i++ {
				l := rs.limbs(i)
				putScalar(k[:], &l)
				out[i] = in[source(perm, i)].RerandomizeWith(pk, new(big.Int).SetBytes(k[:]))
			}
		})
		return
	}
	gt := baseTable()
	parallel.For(n, batchMinChunk, func(lo, hi int) {
		m := hi - lo
		c := getChunkScratch(2*m, m, 2*m)
		defer c.put()
		c1, c2 := c.acc[:m], c.acc[m:]
		for i := range c1 {
			ct := &in[source(perm, lo+i)]
			c1[i], c2[i] = ct.C1, ct.C2
			c.limbs[i] = rs.limbs(lo + i)
		}
		accumulate([]*fixedTable{gt, pt}, c.acc, c.limbs, &c.s)
		for i := range c1 {
			out[lo+i] = Ciphertext{C1: c1[i], C2: c2[i]}
		}
	})
}

// BatchRerandomize refreshes every ciphertext with fresh randomizers,
// returning them alongside the new ciphertexts.
func BatchRerandomize(pk Point, cs []Ciphertext) ([]Ciphertext, []*big.Int) {
	rs := RandomScalars(len(cs))
	return BatchRerandomizeWith(pk, cs, rs), rs
}

// BatchAddCiphertexts computes the homomorphic sum aᵢ + bᵢ elementwise
// — the tally server's table-combining step — with one field inversion
// per chunk for both halves of all its ciphertexts.
func BatchAddCiphertexts(as, bs []Ciphertext) []Ciphertext {
	if len(as) != len(bs) {
		panic("elgamal: BatchAddCiphertexts length mismatch")
	}
	out := make([]Ciphertext, len(as))
	parallel.For(len(as), batchMinChunk, func(lo, hi int) {
		n := hi - lo
		c := getChunkScratch(4*n, 0, 2*n)
		defer c.put()
		acc, add := c.acc[:2*n], c.acc[2*n:]
		for i := 0; i < n; i++ {
			acc[i], acc[n+i] = as[lo+i].C1, as[lo+i].C2
			add[i], add[n+i] = bs[lo+i].C1, bs[lo+i].C2
		}
		c.s.addVec(acc, add)
		for i := 0; i < n; i++ {
			out[lo+i] = Ciphertext{C1: acc[i], C2: acc[n+i]}
		}
	})
	return out
}

// BatchExpBlind exponent-blinds every ciphertext with a fresh non-zero
// scalar, returning the blinds for proof generation. The bases here are
// the per-element ciphertext halves — no sharing to exploit — so each
// element is two stdlib multiplications, spread across the worker pool.
func BatchExpBlind(cs []Ciphertext) ([]Ciphertext, []*big.Int) {
	ss := RandomScalars(len(cs))
	out := make([]Ciphertext, len(cs))
	parallel.For(len(cs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = cs[i].ExpBlindWith(ss[i])
		}
	})
	return out, ss
}

// BatchPartialDecrypt computes this party's decryption share for every
// ciphertext in the batch.
func (k *PrivateKey) BatchPartialDecrypt(cs []Ciphertext) []DecryptionShare {
	out := make([]DecryptionShare, len(cs))
	parallel.For(len(cs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = k.PartialDecrypt(cs[i])
		}
	})
	return out
}

// RecoverBatch recovers every plaintext point from a batch and its
// parties' share vectors (shares[j][i] is party j's share for
// ciphertext i): Mᵢ = C2ᵢ − Σⱼ sharesⱼᵢ, one field inversion per party
// and chunk.
func RecoverBatch(cs []Ciphertext, shares [][]DecryptionShare) []Point {
	for _, sv := range shares {
		if len(sv) != len(cs) {
			panic("elgamal: RecoverBatch length mismatch")
		}
	}
	out := make([]Point, len(cs))
	parallel.For(len(cs), batchMinChunk, func(lo, hi int) {
		c := getChunkScratch(hi-lo, 0, hi-lo)
		defer c.put()
		acc, sub := out[lo:hi], c.acc
		for i := range acc {
			acc[i] = cs[lo+i].C2
		}
		for _, sv := range shares {
			for i := range sub {
				sub[i] = sv[lo+i].Share.Neg()
			}
			c.s.addVec(acc, sub)
		}
	})
	return out
}
