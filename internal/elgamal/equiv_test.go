package elgamal

// Equivalence property tests: the Jacobian/table/batch fast paths must
// agree bit-for-bit with both the stdlib crypto/elliptic results and
// the affine math/big reference implementation (affine_ref_test.go) on random
// scalars, boundary scalars, and the identity point.

import (
	"bufio"
	"crypto/elliptic"
	"math/big"
	"testing"
)

// edgeScalars are the boundary cases every multiplication path must
// agree on: 0, 1, 2, order−1, order, order+1 and a few mid values.
func edgeScalars() []*big.Int {
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(3),
		new(big.Int).Sub(order, big.NewInt(1)),
		new(big.Int).Set(order),
		new(big.Int).Add(order, big.NewInt(1)),
		new(big.Int).Rsh(order, 1),
		new(big.Int).Lsh(big.NewInt(1), 255),
	}
}

// stdlibBaseMul is the old BaseMul implementation, kept inline here as
// the stdlib ground truth.
func stdlibBaseMul(k *big.Int) Point {
	kk := new(big.Int).Mod(k, order)
	if kk.Sign() == 0 {
		return Identity()
	}
	return pointXY(elliptic.P256().ScalarBaseMult(kk.Bytes()))
}

// stdlibMul is the old Point.Mul implementation.
func stdlibMul(p Point, k *big.Int) Point {
	if p.IsIdentity() || k.Sign() == 0 {
		return Identity()
	}
	kk := new(big.Int).Mod(k, order)
	if kk.Sign() == 0 {
		return Identity()
	}
	x, y := coords(p)
	return pointXY(elliptic.P256().ScalarMult(x, y, kk.Bytes()))
}

// stdlibAdd is the old Point.Add implementation.
func stdlibAdd(p, q Point) Point {
	px, py := coords(p)
	qx, qy := coords(q)
	return pointXY(elliptic.P256().Add(px, py, qx, qy))
}

func TestFieldArithmeticMatchesBig(t *testing.T) {
	p := curve.Params().P
	for i := 0; i < 200; i++ {
		a := RandomScalar() // < order < p, fine as a field element
		b := RandomScalar()
		fa := feFromBig(a)
		fb := feFromBig(b)

		var sum, diff, prod, inv fe
		feAdd(&sum, &fa, &fb)
		feSub(&diff, &fa, &fb)
		feMul(&prod, &fa, &fb)
		feInv(&inv, &fa)

		wantSum := new(big.Int).Add(a, b)
		wantSum.Mod(wantSum, p)
		wantDiff := new(big.Int).Sub(a, b)
		wantDiff.Mod(wantDiff, p)
		wantProd := new(big.Int).Mul(a, b)
		wantProd.Mod(wantProd, p)
		wantInv := new(big.Int).ModInverse(a, p)

		if sum.toBig().Cmp(wantSum) != 0 {
			t.Fatalf("feAdd mismatch for %v + %v", a, b)
		}
		if diff.toBig().Cmp(wantDiff) != 0 {
			t.Fatalf("feSub mismatch for %v - %v", a, b)
		}
		if prod.toBig().Cmp(wantProd) != 0 {
			t.Fatalf("feMul mismatch for %v * %v", a, b)
		}
		if inv.toBig().Cmp(wantInv) != 0 {
			t.Fatalf("feInv mismatch for %v", a)
		}
		if got := fa.toBig(); got.Cmp(a) != 0 {
			t.Fatalf("Montgomery round-trip mismatch: got %v want %v", got, a)
		}
	}
	// p − 1 and small values exercise the reduction boundary.
	for _, v := range []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(p, big.NewInt(1))} {
		f := feFromBig(v)
		if f.toBig().Cmp(v) != 0 {
			t.Fatalf("round-trip mismatch for boundary value %v", v)
		}
	}

	// Every pair of boundary operands, taken as raw limbs (the field
	// functions are maps on residues, so the Montgomery factor only
	// shows in feMul's R⁻¹): these are the sums that just reach p, the
	// differences that just borrow and the products whose last
	// subtraction is decided in the top limb — what the reduction masks
	// select on.
	vals := fieldBoundaryValues()
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 256), p)
	for _, a := range vals {
		for _, b := range vals {
			fa, fb := feFromSaturated(a), feFromSaturated(b)
			var sum, diff, prod fe
			feAdd(&sum, &fa, &fb)
			feSub(&diff, &fa, &fb)
			feMul(&prod, &fa, &fb)
			wantSum := new(big.Int).Add(a, b)
			wantDiff := new(big.Int).Sub(a, b)
			wantProd := new(big.Int).Mul(a, b)
			wantProd.Mul(wantProd, rInv)
			for _, c := range []struct {
				op   string
				got  fe
				want *big.Int
			}{{"+", sum, wantSum}, {"-", diff, wantDiff}, {"*", prod, wantProd}} {
				if want := feFromSaturated(c.want.Mod(c.want, p)); c.got != want {
					t.Fatalf("raw %x %s %x: got %x, want %x", a, c.op, b, c.got, want)
				}
			}
			// In-place forms, as the point formulas call them.
			z := fa
			feSub(&z, &z, &fb)
			if z != diff {
				t.Fatalf("aliased feSub differs for %x - %x", a, b)
			}
			z = fa
			feAdd(&z, &z, &fb)
			if z != sum {
				t.Fatalf("aliased feAdd differs for %x + %x", a, b)
			}
		}
	}
}

// fieldBoundaryValues returns the operands the reduction masks exist
// for: 0, 1, 2, p − 1, p − 2, (p ± 1)/2, 2⁶⁴ − 1 in each limb alone, all
// limbs but the top one full, and a random x with x + 1.
func fieldBoundaryValues() []*big.Int {
	p := curve.Params().P
	one := big.NewInt(1)
	half := new(big.Int).Rsh(p, 1)
	x := new(big.Int).Mod(RandomScalar(), p)
	vals := []*big.Int{
		big.NewInt(0), one, big.NewInt(2),
		new(big.Int).Sub(p, one), new(big.Int).Sub(p, big.NewInt(2)),
		half, new(big.Int).Add(half, one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 192), one),
		x, new(big.Int).Mod(new(big.Int).Add(x, one), p),
	}
	limb := new(big.Int).Sub(new(big.Int).Lsh(one, 64), one)
	for i := uint(0); i < 4; i++ {
		v := new(big.Int).Lsh(limb, 64*i)
		vals = append(vals, v.Mod(v, p))
	}
	return vals
}

func TestBaseMulEquivalence(t *testing.T) {
	scalars := edgeScalars()
	for i := 0; i < 50; i++ {
		scalars = append(scalars, RandomScalar())
	}
	for _, k := range scalars {
		want := stdlibBaseMul(k)
		if got := BaseMul(k); !got.Equal(want) {
			t.Fatalf("BaseMul(%v) = %v want %v", k, got, want)
		}
	}
	// The affine math/big reference must agree too (fewer iterations —
	// it pays one inversion per bit).
	for _, k := range append(edgeScalars(), RandomScalar()) {
		want := stdlibBaseMul(k)
		if got := refAffineBaseMul(k); !got.Equal(want) {
			t.Fatalf("refAffineBaseMul(%v) disagrees with stdlib", k)
		}
	}
}

func TestMulEquivalence(t *testing.T) {
	bases := []Point{Identity(), Generator(), stdlibBaseMul(big.NewInt(12345)), stdlibBaseMul(RandomScalar())}
	scalars := append(edgeScalars(), RandomScalar(), RandomScalar())
	for _, p := range bases {
		for _, k := range scalars {
			want := stdlibMul(p, k)
			if got := p.Mul(k); !got.Equal(want) {
				t.Fatalf("Mul(%v) mismatch on base %v", k, p)
			}
			if got := refAffineMul(p, k); !p.IsIdentity() && !got.Equal(want) {
				t.Fatalf("refAffineMul(%v) mismatch", k)
			}
		}
	}
}

func TestMulWithPrecomputedTable(t *testing.T) {
	base := stdlibBaseMul(RandomScalar())
	Precompute(base)
	for _, k := range append(edgeScalars(), RandomScalar(), RandomScalar()) {
		want := stdlibMul(base, k)
		if got := base.Mul(k); !got.Equal(want) {
			t.Fatalf("table Mul(%v) disagrees with stdlib", k)
		}
	}
}

func TestAddEquivalence(t *testing.T) {
	g := Generator()
	p := stdlibBaseMul(big.NewInt(7))
	q := stdlibBaseMul(big.NewInt(11))
	cases := [][2]Point{
		{p, q},
		{p, p},                   // doubling
		{p, p.Neg()},             // inverse: identity
		{Identity(), p},          // left identity
		{p, Identity()},          // right identity
		{Identity(), Identity()}, // identity + identity
		{g, g.Neg()},             // generator cancellation
		{stdlibBaseMul(RandomScalar()), stdlibBaseMul(RandomScalar())},
	}
	for _, c := range cases {
		want := stdlibAdd(c[0], c[1])
		if got := c[0].Add(c[1]); !got.Equal(want) {
			t.Fatalf("Add mismatch: got %v want %v", got, want)
		}
		if got := refAffineAdd(c[0], c[1]); !got.Equal(want) {
			t.Fatalf("refAffineAdd mismatch")
		}
	}
	// Sub must match Add of the negation.
	want := stdlibAdd(p, q.Neg())
	if got := p.Sub(q); !got.Equal(want) {
		t.Fatalf("Sub mismatch")
	}
}

func TestBatchBaseMulEquivalence(t *testing.T) {
	ks := edgeScalars()
	for i := 0; i < 100; i++ {
		ks = append(ks, RandomScalar())
	}
	got := BatchBaseMul(ks)
	for i, k := range ks {
		if want := stdlibBaseMul(k); !got[i].Equal(want) {
			t.Fatalf("BatchBaseMul[%d] (k=%v) mismatch", i, k)
		}
	}
}

func TestBatchMulEquivalence(t *testing.T) {
	base := stdlibBaseMul(RandomScalar())
	ks := edgeScalars()
	for i := 0; i < 100; i++ {
		ks = append(ks, RandomScalar())
	}
	got := BatchMul(base, ks) // large batch: table path
	for i, k := range ks {
		if want := stdlibMul(base, k); !got[i].Equal(want) {
			t.Fatalf("BatchMul[%d] mismatch", i)
		}
	}
	small := ks[:3] // small batch: per-element path
	got = BatchMul(base, small)
	for i, k := range small {
		if want := stdlibMul(base, k); !got[i].Equal(want) {
			t.Fatalf("small BatchMul[%d] mismatch", i)
		}
	}
	gotG := BatchMul(Generator(), small)
	for i, k := range small {
		if want := stdlibBaseMul(k); !gotG[i].Equal(want) {
			t.Fatalf("BatchMul generator[%d] mismatch", i)
		}
	}
	gotID := BatchMul(Identity(), small)
	for i := range small {
		if !gotID[i].IsIdentity() {
			t.Fatalf("BatchMul identity base[%d] not identity", i)
		}
	}
}

func TestBatchAddEquivalence(t *testing.T) {
	n := 64
	ps := make([]Point, n)
	qs := make([]Point, n)
	for i := range ps {
		ps[i] = stdlibBaseMul(RandomScalar())
		qs[i] = stdlibBaseMul(RandomScalar())
	}
	// Sprinkle in edge combinations.
	ps[0], qs[0] = Identity(), Identity()
	ps[1] = Identity()
	qs[2] = Identity()
	qs[3] = ps[3]       // doubling
	qs[4] = ps[4].Neg() // cancellation
	// Both halves of every sum are pᵢ + qᵢ, once in each operand order.
	as := make([]Ciphertext, n)
	bs := make([]Ciphertext, n)
	for i := range ps {
		as[i] = Ciphertext{C1: ps[i], C2: qs[i]}
		bs[i] = Ciphertext{C1: qs[i], C2: ps[i]}
	}
	for i, got := range BatchAddCiphertexts(as, bs) {
		if want := stdlibAdd(ps[i], qs[i]); !got.C1.Equal(want) || !got.C2.Equal(want) {
			t.Fatalf("BatchAddCiphertexts[%d] mismatch", i)
		}
	}
}

func TestBatchEncryptDecrypt(t *testing.T) {
	key := GenerateKey()
	n := 80
	msgs := make([]Point, n)
	for i := range msgs {
		switch i % 3 {
		case 0:
			msgs[i] = Identity()
		case 1:
			msgs[i] = Generator()
		default:
			msgs[i] = stdlibBaseMul(RandomScalar())
		}
	}
	cts, rs := BatchEncrypt(key.PK, msgs)
	if len(cts) != n || len(rs) != n {
		t.Fatalf("BatchEncrypt returned %d cts, %d rs", len(cts), len(rs))
	}
	for i, ct := range cts {
		if !ct.IsValid() {
			t.Fatalf("ciphertext %d invalid", i)
		}
		// Deterministic re-encryption with the returned randomizer must
		// reproduce the ciphertext exactly.
		if again := EncryptWith(key.PK, msgs[i], rs[i]); !again.Equal(ct) {
			t.Fatalf("ciphertext %d does not match EncryptWith(r)", i)
		}
		if got := key.Decrypt(ct); !got.Equal(msgs[i]) {
			t.Fatalf("decrypt %d: wrong plaintext", i)
		}
	}
}

func TestBatchRerandomizeAndBlind(t *testing.T) {
	key := GenerateKey()
	n := 70
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = i%2 == 0
	}
	cts, rs := BatchEncryptBits(key.PK, bits)
	if len(rs) != n {
		t.Fatalf("missing randomizers")
	}
	rr, rrs := BatchRerandomize(key.PK, cts)
	for i := range cts {
		if want := cts[i].RerandomizeWith(key.PK, rrs[i]); !want.Equal(rr[i]) {
			t.Fatalf("BatchRerandomize[%d] disagrees with RerandomizeWith", i)
		}
		if got := key.Decrypt(rr[i]); got.IsIdentity() != !bits[i] {
			t.Fatalf("rerandomized plaintext %d changed", i)
		}
	}
	bl, ss := BatchExpBlind(cts)
	for i := range cts {
		if want := cts[i].ExpBlindWith(ss[i]); !want.Equal(bl[i]) {
			t.Fatalf("BatchExpBlind[%d] disagrees with ExpBlindWith", i)
		}
		if got := key.Decrypt(bl[i]); got.IsIdentity() != !bits[i] {
			t.Fatalf("blinded zero-ness %d changed", i)
		}
	}
}

func TestBatchPartialDecryptAndRecover(t *testing.T) {
	k1, k2 := GenerateKey(), GenerateKey()
	joint, err := CombineKeys(k1.PK, k2.PK)
	if err != nil {
		t.Fatal(err)
	}
	n := 50
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = i%3 == 0
	}
	cts, _ := BatchEncryptBits(joint, bits)
	s1 := k1.BatchPartialDecrypt(cts)
	s2 := k2.BatchPartialDecrypt(cts)
	for i := range cts {
		if want := k1.PartialDecrypt(cts[i]); !want.Share.Equal(s1[i].Share) {
			t.Fatalf("BatchPartialDecrypt[%d] mismatch", i)
		}
	}
	pts := RecoverBatch(cts, [][]DecryptionShare{s1, s2})
	for i := range cts {
		if want := Recover(cts[i], []DecryptionShare{s1[i], s2[i]}); !want.Equal(pts[i]) {
			t.Fatalf("RecoverBatch[%d] disagrees with Recover", i)
		}
		if pts[i].IsIdentity() == bits[i] {
			t.Fatalf("RecoverBatch[%d] wrong plaintext", i)
		}
	}
}

func TestMultiScalarMul(t *testing.T) {
	s := getMSMScratch()
	defer s.put()
	for n := 1; n <= 20; n += 3 {
		terms := make([]msmTerm, n)
		want := Identity()
		for i := range terms {
			k := RandomScalar()
			if i == 0 {
				k = big.NewInt(0) // zero scalar must be skipped
			}
			p := stdlibBaseMul(RandomScalar())
			if i == 1 {
				p = Identity() // identity point must be skipped
			}
			terms[i] = msmTerm{scalar: k, point: p}
			want = stdlibAdd(want, stdlibMul(p, k))
		}
		var sum jacPoint
		if !s.mul(&sum, terms) {
			t.Fatalf("msm rejected valid terms")
		}
		if got := sum.toAffine(); !got.Equal(want) {
			t.Fatalf("msm(n=%d) mismatch", n)
		}
	}
	// Off-curve input must be rejected, not computed with.
	bad := []msmTerm{{scalar: big.NewInt(2), point: pointXY(big.NewInt(1), big.NewInt(1))}}
	var sum jacPoint
	if s.mul(&sum, bad) {
		t.Fatal("msm accepted an off-curve point")
	}
}

func TestWNAFDigits(t *testing.T) {
	scalars := append(edgeScalars(), RandomScalar(), RandomScalar(), RandomScalar())
	for _, k := range scalars {
		kk := new(big.Int).Mod(k, order)
		var digits [257]int8
		l := scalarLimbs(kk)
		n := wnafDigits(&l, &digits)
		// Reconstruct: Σ digits[i]·2^i must equal the scalar.
		got := new(big.Int)
		for i := n - 1; i >= 0; i-- {
			got.Lsh(got, 1)
			got.Add(got, big.NewInt(int64(digits[i])))
		}
		if got.Cmp(kk) != 0 {
			t.Fatalf("wNAF reconstruction mismatch for %v: got %v", kk, got)
		}
		for i := 0; i < n; i++ {
			d := int(digits[i])
			if d != 0 && (d%2 == 0 || d > 15 || d < -15) {
				t.Fatalf("invalid wNAF digit %d at %d", d, i)
			}
		}
	}
}

func TestRandomScalars(t *testing.T) {
	ks := RandomScalars(100)
	seen := make(map[string]bool)
	for _, k := range ks {
		if k.Sign() <= 0 || k.Cmp(order) >= 0 {
			t.Fatalf("scalar out of range: %v", k)
		}
		s := k.String()
		if seen[s] {
			t.Fatalf("duplicate scalar")
		}
		seen[s] = true
	}
}

func TestBatchVerifyShares(t *testing.T) {
	key, other := GenerateKey(), GenerateKey()
	for _, n := range []int{1, 2, 20, 200} { // 200 takes the Pippenger path
		cts, shares := shareChunk(key.PK, key, n)
		proof := key.BatchProveShares(cts, shares)
		verify := func(cs []Ciphertext, sh []DecryptionShare) (int, bool) {
			return VerifySharesBatch(key.PK, cs, sh, proof)
		}
		if idx, ok := verify(cts, shares); !ok || idx != -1 {
			t.Fatalf("n=%d: valid share chunk gave (%d,%v)", n, idx, ok)
		}
		// One wrong share anywhere in the chunk: first, last, middle. The
		// fold cannot say which, so the index stays -1.
		for _, at := range []int{0, n - 1, n / 2} {
			bad := append([]DecryptionShare(nil), shares...)
			bad[at] = DecryptionShare{Share: shares[at].Share.Add(Generator())}
			if idx, ok := verify(cts, bad); ok || idx != -1 {
				t.Fatalf("n=%d: wrong share at %d gave (%d,%v), want (-1,false)", n, at, idx, ok)
			}
			// Re-proving over the lie does not help.
			if _, ok := VerifySharesBatch(key.PK, cts, bad, key.BatchProveShares(cts, bad)); ok {
				t.Fatalf("n=%d: chunk with a wrong share at %d verified under a fresh proof", n, at)
			}
		}
		// The same shares under another key's name.
		if _, ok := VerifySharesBatch(other.PK, cts, shares, proof); ok {
			t.Fatalf("n=%d: proof verified against another key", n)
		}
		// A tampered response.
		bent := proof
		bent.Response = new(big.Int).Add(proof.Response, big.NewInt(1))
		if _, ok := VerifySharesBatch(key.PK, cts, shares, bent); ok {
			t.Fatalf("n=%d: tampered response accepted", n)
		}
		// Length mismatch names no element.
		if idx, ok := verify(cts, shares[:n-1]); ok || idx != -1 {
			t.Fatalf("n=%d: short share vector gave (%d,%v)", n, idx, ok)
		}
		// Malformed inputs are the one thing the index reports.
		at := n / 2
		bad := append([]DecryptionShare(nil), shares...)
		bad[at] = DecryptionShare{Share: pointXY(big.NewInt(1), big.NewInt(1))}
		if idx, ok := verify(cts, bad); ok || idx != at {
			t.Fatalf("n=%d: off-curve share gave (%d,%v), want (%d,false)", n, idx, ok, at)
		}
		badCts := append([]Ciphertext(nil), cts...)
		badCts[at].C1 = Point{}
		if idx, ok := verify(badCts, shares); ok || idx != at {
			t.Fatalf("n=%d: nil ciphertext gave (%d,%v), want (%d,false)", n, idx, ok, at)
		}
		if n < 2 {
			continue
		}
		// Every share still correct, but the chunk permuted under the
		// proof: the coefficients, and with them the statement, change.
		pc, ps := append([]Ciphertext(nil), cts...), append([]DecryptionShare(nil), shares...)
		pc[0], pc[n-1], ps[0], ps[n-1] = pc[n-1], pc[0], ps[n-1], ps[0]
		if _, ok := verify(pc, ps); ok {
			t.Fatalf("n=%d: proof replayed onto a permuted chunk accepted", n)
		}
		if _, ok := VerifySharesBatch(key.PK, pc, ps, key.BatchProveShares(pc, ps)); !ok {
			t.Fatalf("n=%d: permuted chunk rejected under its own proof", n)
		}
	}

	// Two wrong shares that cancel under equal weights (+D and −D) are
	// caught: the coefficients differ per position.
	cts, shares := shareChunk(key.PK, key, 8)
	shares[2].Share = shares[2].Share.Add(Generator())
	shares[5].Share = shares[5].Share.Sub(Generator())
	if _, ok := VerifySharesBatch(key.PK, cts, shares, key.BatchProveShares(cts, shares)); ok {
		t.Fatal("cancelling pair of wrong shares accepted")
	}

	// Identity C1s: the honest share is the identity and verifies, alone
	// (the fold itself is then the identity) or among others; any other
	// share for one is caught.
	trivial := []Ciphertext{{C1: Identity(), C2: Generator()}, {C1: Identity(), C2: Identity()}}
	tshares := key.BatchPartialDecrypt(trivial)
	if _, ok := VerifySharesBatch(key.PK, trivial, tshares, key.BatchProveShares(trivial, tshares)); !ok {
		t.Fatal("all-identity chunk rejected")
	}
	tshares[1].Share = Generator()
	if _, ok := VerifySharesBatch(key.PK, trivial, tshares, key.BatchProveShares(trivial, tshares)); ok {
		t.Fatal("non-identity share for an identity C1 accepted")
	}
	mixed, _ := shareChunk(key.PK, key, 4)
	mixed[1].C1 = Identity()
	mshares := key.BatchPartialDecrypt(mixed)
	if _, ok := VerifySharesBatch(key.PK, mixed, mshares, key.BatchProveShares(mixed, mshares)); !ok {
		t.Fatal("chunk with one identity C1 rejected")
	}

	// The empty chunk is vacuous: the proof still shows knowledge of the
	// key, and there is no share to be wrong.
	if idx, ok := VerifySharesBatch(key.PK, nil, nil, key.BatchProveShares(nil, nil)); !ok || idx != -1 {
		t.Fatalf("empty chunk gave (%d,%v)", idx, ok)
	}
	if _, ok := VerifySharesBatch(key.PK, nil, nil, other.BatchProveShares(nil, nil)); ok {
		t.Fatal("empty chunk verified under another key's proof")
	}
}

func TestBatchVerifyBlinds(t *testing.T) {
	key := GenerateKey()
	n := 16
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = i%2 == 1
	}
	cts, _ := BatchEncryptBits(key.PK, bits)
	blinded, ss := BatchExpBlind(cts)
	proofs := make([]EqualityProof, n)
	for i := range cts {
		proofs[i] = ProveBlind(cts[i], blinded[i], ss[i])
	}
	if idx, ok := VerifyBlindsBatch(cts, blinded, proofs); !ok {
		t.Fatalf("valid blind batch rejected at %d", idx)
	}
	blinded[5] = blinded[5].ExpBlindWith(big.NewInt(3))
	if idx, ok := VerifyBlindsBatch(cts, blinded, proofs); ok || idx != 5 {
		t.Fatalf("tampered blind: got (%d,%v), want (5,false)", idx, ok)
	}

	// The zero blind: s = 0 sends any element to (O, O), an encryption of
	// nothing, and the DLEQ for it is honest — the proof's equations hold.
	// It must be refused all the same, batched, one at a time, and below
	// the batching threshold.
	blinded, ss = BatchExpBlind(cts)
	proofs = BatchProveBlinds(cts, blinded, ss)
	zero := Ciphertext{C1: Identity(), C2: Identity()}
	blinded[9], proofs[9] = zero, ProveBlind(cts[9], zero, new(big.Int))
	if !VerifyDLEQ(blindDomain, cts[9].C1, zero.C1, cts[9].C2, zero.C2, proofs[9]) {
		t.Fatal("the zero blind's DLEQ should hold: the test no longer exercises the identity check")
	}
	if VerifyBlind(cts[9], zero, proofs[9]) {
		t.Fatal("zero blind accepted")
	}
	if idx, ok := VerifyBlindsBatch(cts, blinded, proofs); ok || idx != 9 {
		t.Fatalf("zero blind in a batch: got (%d,%v), want (9,false)", idx, ok)
	}
	if idx, ok := VerifyBlindsBatch(cts[8:10], blinded[8:10], proofs[8:10]); ok || idx != 1 {
		t.Fatalf("zero blind in a short batch: got (%d,%v), want (1,false)", idx, ok)
	}
}

func TestBatchVerifyBits(t *testing.T) {
	key := GenerateKey()
	n := 12
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = i%3 == 0
	}
	cts, rs := BatchEncryptBits(key.PK, bits)
	proofs := make([]BitProof, n)
	for i := range cts {
		proofs[i] = ProveBit(key.PK, cts[i], bits[i], rs[i])
	}
	if idx, ok := VerifyBitsBatch(key.PK, cts, proofs); !ok {
		t.Fatalf("valid bit batch rejected at %d", idx)
	}
	// A ciphertext that encrypts 2·G is not a bit; its proof cannot hold.
	two, r2 := EncryptWith(key.PK, BaseMul(big.NewInt(2)), RandomScalar()), RandomScalar()
	_ = r2
	orig := cts[4]
	cts[4] = two
	if idx, ok := VerifyBitsBatch(key.PK, cts, proofs); ok || idx != 4 {
		t.Fatalf("non-bit ciphertext: got (%d,%v), want (4,false)", idx, ok)
	}
	cts[4] = orig
}

// TestPippengerMSM exercises the bucket-method path (term counts above
// the Strauss/Pippenger threshold) against stdlib arithmetic, with a
// mix of scalar widths and edge values.
func TestPippengerMSM(t *testing.T) {
	n := pippengerThreshold + 37
	terms := make([]msmTerm, n)
	want := Identity()
	for i := range terms {
		var k *big.Int
		switch i % 6 {
		case 0:
			k = RandomScalar()
		case 1:
			k = randomScalarBits(randReaders.Get().(*bufio.Reader), 128)
		case 2:
			k = big.NewInt(0)
		case 3:
			k = big.NewInt(1)
		case 4:
			k = new(big.Int).Sub(order, big.NewInt(1))
		default:
			k = big.NewInt(int64(i))
		}
		p := stdlibBaseMul(big.NewInt(int64(i + 3)))
		if i == 7 {
			p = Identity()
		}
		terms[i] = msmTerm{scalar: k, point: p}
		want = stdlibAdd(want, stdlibMul(p, k))
	}
	s := getMSMScratch()
	defer s.put()
	var sum jacPoint
	if !s.pippenger(&sum, terms) {
		t.Fatal("pippenger rejected valid terms")
	}
	if got := sum.toAffine(); !got.Equal(want) {
		t.Fatalf("pippenger mismatch: got %v want %v", got, want)
	}
	// Strauss on the same terms must agree.
	var sum2 jacPoint
	if !s.strauss(&sum2, terms) {
		t.Fatal("strauss rejected valid terms")
	}
	if got := sum2.toAffine(); !got.Equal(want) {
		t.Fatal("strauss mismatch on large batch")
	}
	// Off-curve rejection on the bucket path too.
	terms[11].point = pointXY(big.NewInt(2), big.NewInt(9))
	if s.pippenger(&sum, terms) {
		t.Fatal("pippenger accepted an off-curve point")
	}
}

// TestFeSqrMatchesMul pins the dedicated squaring against feMul on
// random and boundary field elements.
func TestFeSqrMatchesMul(t *testing.T) {
	p := curve.Params().P
	vals := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(p, big.NewInt(1)),
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Rsh(p, 1),
	}
	for i := 0; i < 500; i++ {
		vals = append(vals, new(big.Int).Mod(RandomScalar(), p))
	}
	// The same values once more as raw limbs: feFromBig turns p − 1 into
	// some mid-range Montgomery residue, and the final subtraction is
	// decided by the limbs the function sees.
	raw := make([]fe, 0, len(vals))
	for _, v := range append(fieldBoundaryValues(), vals...) {
		raw = append(raw, feFromSaturated(v))
	}
	for _, f := range raw {
		var viaMul, viaSqr fe
		feMul(&viaMul, &f, &f)
		feSqr(&viaSqr, &f)
		if viaMul != viaSqr {
			t.Fatalf("feSqr mismatch for raw limbs %x", f)
		}
	}
	for _, v := range vals {
		f := feFromBig(v)
		var viaMul, viaSqr fe
		feMul(&viaMul, &f, &f)
		feSqr(&viaSqr, &f)
		if !feEqual(&viaMul, &viaSqr) {
			t.Fatalf("feSqr mismatch for %v", v)
		}
		want := new(big.Int).Mul(v, v)
		want.Mod(want, p)
		if got := viaSqr.toBig(); got.Cmp(want) != 0 {
			t.Fatalf("feSqr wrong value for %v", v)
		}
	}
}
