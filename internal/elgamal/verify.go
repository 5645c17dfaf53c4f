package elgamal

// Batched verification of the per-element proofs. The tally server
// verifies thousands of blinding and noise-bit equations per PSC round;
// checking each with two full scalar multiplications would be the
// single largest cost of a verified round. Instead, the verifier draws
// an independent random 128-bit coefficient per equation and checks one
// random linear combination
//
//	Σ λₑ·(respₑ·Bₑ − chₑ·Pₑ − Tₑ) == O
//
// with a shared-doubling multi-scalar multiplication (multiexp.go).
// If every equation holds the combination is the identity; if any
// fails, a random combination vanishes with probability ≤ 2⁻¹²⁸
// (standard small-exponent batch verification). The bit proofs'
// equations over the fixed bases G and pk collapse into a single
// accumulated coefficient each, so they cost one table multiplication
// per *batch*. (Decryption shares need none of this: a chunk of them
// carries one proof, see BatchProveShares.)
//
// A batch rejection falls back to exact per-element verification to
// locate the offending element, so callers keep byte-identical error
// reporting and the accept/reject semantics of the one-at-a-time path.

import (
	"bufio"
	"math/big"
	"sync"

	"repro/internal/parallel"
)

// batchVerifyMin is the batch size below which per-element verification
// is used directly; tiny batches don't repay the combination setup.
const batchVerifyMin = 4

// batchLambdaBits is the width of the random combination coefficients:
// false-accept probability 2^-128.
const batchLambdaBits = 128

// eqAccum accumulates the terms of one random linear combination.
type eqAccum struct {
	rand    *bufio.Reader
	gCoeff  *big.Int
	pk      Point
	pkCoeff *big.Int
	terms   []msmTerm
}

func newEqAccum(pk Point, capacity int) *eqAccum {
	return &eqAccum{
		rand:    randReaders.Get().(*bufio.Reader),
		gCoeff:  new(big.Int),
		pk:      pk,
		pkCoeff: new(big.Int),
		terms:   make([]msmTerm, 0, capacity),
	}
}

func (a *eqAccum) lambda() *big.Int {
	return randomScalarBits(a.rand, batchLambdaBits)
}

// addG adds c·G to the combination.
func (a *eqAccum) addG(c *big.Int) {
	a.gCoeff.Add(a.gCoeff, c)
}

// addPK adds c·pk to the combination.
func (a *eqAccum) addPK(c *big.Int) {
	a.pkCoeff.Add(a.pkCoeff, c)
}

// add adds c·p to the combination.
func (a *eqAccum) add(c *big.Int, p Point) {
	if p.IsIdentity() {
		return
	}
	a.terms = append(a.terms, msmTerm{scalar: c.Mod(c, order), point: p})
}

// sub adds −c·p to the combination.
func (a *eqAccum) sub(c *big.Int, p Point) {
	a.add(new(big.Int).Neg(c), p)
}

// check evaluates the combination; true means all folded equations hold
// (up to the 2^-128 soundness error).
func (a *eqAccum) check() bool {
	defer randReaders.Put(a.rand)
	if c := a.gCoeff.Mod(a.gCoeff, order); c.Sign() != 0 {
		a.terms = append(a.terms, msmTerm{scalar: c, point: Generator()})
	}
	if c := a.pkCoeff.Mod(a.pkCoeff, order); c.Sign() != 0 {
		a.terms = append(a.terms, msmTerm{scalar: c, point: a.pk})
	}
	var sum jacPoint
	if !multiScalarMul(&sum, a.terms) {
		return false // an input point was off-curve
	}
	return sum.isInfinity()
}

// dleqFold folds one Chaum–Pedersen equation pair into the accumulator.
func dleqFold(a *eqAccum, domain string, b1, p1, b2, p2 Point, pr EqualityProof) bool {
	if pr.Response == nil || !pr.Commit1.IsValid() || !pr.Commit2.IsValid() {
		return false
	}
	ch := hashToScalar(domain,
		b1.uncompressed(), p1.uncompressed(), b2.uncompressed(), p2.uncompressed(),
		pr.Commit1.uncompressed(), pr.Commit2.uncompressed())
	resp := new(big.Int).Mod(pr.Response, order)

	// Equation 1: resp·B1 − ch·P1 − T1 = O
	l := a.lambda()
	lr := new(big.Int).Mul(l, resp)
	lc := new(big.Int).Mul(l, ch)
	a.add(lr, b1)
	a.sub(lc, p1)
	a.sub(l, pr.Commit1)

	// Equation 2: resp·B2 − ch·P2 − T2 = O
	l = a.lambda()
	lr = new(big.Int).Mul(l, resp)
	lc = new(big.Int).Mul(l, ch)
	a.add(lr, b2)
	a.sub(lc, p2)
	a.sub(l, pr.Commit2)
	return true
}

// VerifyBlindsBatch verifies a CP's exponent-blinding proofs for a
// whole batch in one randomized check. It returns (-1, true) on
// acceptance; on rejection it re-verifies element by element and
// returns the index of the first failing one. A blinded C1 at the
// identity fails like a bad proof (see VerifyBlind).
func VerifyBlindsBatch(ins, outs []Ciphertext, proofs []EqualityProof) (int, bool) {
	if len(ins) != len(outs) || len(ins) != len(proofs) {
		return 0, false
	}
	scan := func() (int, bool) {
		return scanVerify(len(ins), func(i int) bool {
			return VerifyBlind(ins[i], outs[i], proofs[i])
		})
	}
	if len(ins) < batchVerifyMin {
		return scan()
	}
	acc := newEqAccum(Identity(), 6*len(ins))
	ok := true
	for i := range ins {
		if outs[i].C1.IsIdentity() || !dleqFold(acc, blindDomain, ins[i].C1, outs[i].C1, ins[i].C2, outs[i].C2, proofs[i]) {
			ok = false
			break
		}
	}
	if ok && acc.check() {
		return -1, true
	}
	return scan()
}

// VerifyBitsBatch verifies the CDS bit proofs for a batch of noise
// ciphertexts in one randomized check, with the same contract as
// VerifyBlindsBatch. The challenge-splitting constraint
// (c0 + c1 == H(transcript)) is exact per element; only the four group
// equations per proof are folded into the combination.
func VerifyBitsBatch(pk Point, cs []Ciphertext, proofs []BitProof) (int, bool) {
	if len(cs) != len(proofs) {
		return 0, false
	}
	scan := func() (int, bool) {
		return scanVerify(len(cs), func(i int) bool {
			return VerifyBit(pk, cs[i], proofs[i])
		})
	}
	if len(cs) < batchVerifyMin {
		return scan()
	}
	acc := newEqAccum(pk, 6*len(cs))
	ok := true
	for i := range cs {
		pr := proofs[i]
		if pr.Chal0 == nil || pr.Chal1 == nil || pr.Resp0 == nil || pr.Resp1 == nil || !cs[i].IsValid() {
			ok = false
			break
		}
		total := bitChallenge(pk, cs[i], pr)
		sum := new(big.Int).Add(pr.Chal0, pr.Chal1)
		if sum.Mod(sum, order).Cmp(total) != 0 {
			ok = false
			break
		}
		c0 := new(big.Int).Mod(pr.Chal0, order)
		c1 := new(big.Int).Mod(pr.Chal1, order)
		z0 := new(big.Int).Mod(pr.Resp0, order)
		z1 := new(big.Int).Mod(pr.Resp1, order)

		// Branch 0: z0·G − c0·C1 − A0 = O and z0·PK − c0·C2 − B0 = O.
		l := acc.lambda()
		acc.addG(new(big.Int).Mul(l, z0))
		acc.sub(new(big.Int).Mul(l, c0), cs[i].C1)
		acc.sub(l, pr.Commit0G)
		l = acc.lambda()
		acc.addPK(new(big.Int).Mul(l, z0))
		acc.sub(new(big.Int).Mul(l, c0), cs[i].C2)
		acc.sub(l, pr.Commit0P)
		// Branch 1: z1·G − c1·C1 − A1 = O and
		// z1·PK − c1·(C2 − G) − B1 = O, whose −c1·(−G) folds into the G
		// coefficient.
		l = acc.lambda()
		acc.addG(new(big.Int).Mul(l, z1))
		acc.sub(new(big.Int).Mul(l, c1), cs[i].C1)
		acc.sub(l, pr.Commit1G)
		l = acc.lambda()
		acc.addPK(new(big.Int).Mul(l, z1))
		acc.sub(new(big.Int).Mul(l, c1), cs[i].C2)
		acc.addG(new(big.Int).Mul(l, c1))
		acc.sub(l, pr.Commit1P)
	}
	if ok && acc.check() {
		return -1, true
	}
	return scan()
}

// scanVerify runs the exact per-element check across the worker pool,
// returning (-1, true) if every element verifies or the smallest
// failing index otherwise (smallest keeps error messages deterministic
// for serial runs; any failing index rejects the batch).
func scanVerify(n int, check func(i int) bool) (int, bool) {
	bad := -1
	var mu sync.Mutex
	parallel.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !check(i) {
				mu.Lock()
				if bad < 0 || i < bad {
					bad = i
				}
				mu.Unlock()
				return
			}
		}
	})
	if bad >= 0 {
		return bad, false
	}
	return -1, true
}
