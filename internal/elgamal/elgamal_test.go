package elgamal

import (
	"math/big"
	"testing"
)

// Recover combines all parties' shares to expose the plaintext point:
// M = C2 − Σ x_i·C1. Every share must be present. It is the
// single-element reference RecoverBatch is held to.
func Recover(c Ciphertext, shares []DecryptionShare) Point {
	m := c.C2
	for _, s := range shares {
		m = m.Sub(s.Share)
	}
	return m
}

// Decrypt is single-party decryption, a convenience for tests.
func (k *PrivateKey) Decrypt(c Ciphertext) Point {
	return Recover(c, []DecryptionShare{k.PartialDecrypt(c)})
}

func TestGroupBasics(t *testing.T) {
	g := Generator()
	id := Identity()
	if !id.IsIdentity() || !id.IsValid() {
		t.Fatal("identity must be valid and identity")
	}
	if g.IsIdentity() || !g.IsValid() {
		t.Fatal("generator must be valid non-identity")
	}
	if !g.Add(id).Equal(g) {
		t.Fatal("G + 0 != G")
	}
	if !g.Sub(g).IsIdentity() {
		t.Fatal("G - G != 0")
	}
	two := big.NewInt(2)
	if !g.Add(g).Equal(g.Mul(two)) {
		t.Fatal("G+G != 2G")
	}
	if !BaseMul(two).Equal(g.Mul(two)) {
		t.Fatal("BaseMul(2) != 2G")
	}
	if !g.Mul(order).IsIdentity() {
		t.Fatal("order·G != identity")
	}
	if !g.Neg().Add(g).IsIdentity() {
		t.Fatal("-G + G != 0")
	}
}

func TestPointEncoding(t *testing.T) {
	// G and −G share an x: one of each parity.
	for _, p := range []Point{Identity(), Generator(), Generator().Neg(), BaseMul(big.NewInt(12345))} {
		b := p.Bytes()
		q, n, err := ParsePoint(b)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if n != len(b) {
			t.Fatalf("consumed %d of %d", n, len(b))
		}
		if !p.Equal(q) {
			t.Fatal("round trip mismatch")
		}
	}
	if _, _, err := ParsePoint(nil); err == nil {
		t.Fatal("empty encoding must fail")
	}
	if _, _, err := ParsePoint([]byte{9}); err == nil {
		t.Fatal("bad tag must fail")
	}
	// An x on no curve point must be rejected, whichever parity.
	for _, tag := range []byte{2, 3} {
		if _, _, err := ParsePoint(compressed(tag, rootlessX())); err == nil {
			t.Fatalf("tag %d with an x that has no root accepted", tag)
		}
	}
	if _, _, err := ParsePoint(Generator().Bytes()[:20]); err == nil {
		t.Fatal("short encoding must fail")
	}
	// The uncompressed form never crosses the wire.
	if _, _, err := ParsePoint(Generator().uncompressed()); err == nil {
		t.Fatal("uncompressed encoding accepted")
	}
	// A coordinate ≥ p names the same residue as coordinate − p; taking
	// it would give one point two encodings. aliasedPoint finds a point
	// whose x + p still fits 32 bytes.
	x, y := aliasedPoint()
	tag := byte(2 | y.Bit(0))
	if p, _, err := ParsePoint(compressed(tag, x)); err != nil || !p.Equal(pointXY(x, y)) {
		t.Fatalf("canonical (%v, y) rejected or misread: %v", x, err)
	}
	if _, _, err := ParsePoint(compressed(tag, new(big.Int).Add(x, curve.Params().P))); err == nil {
		t.Fatal("x + p accepted as an encoding of x")
	}
	if _, _, err := ParsePoint(compressed(2, curve.Params().P)); err == nil {
		t.Fatal("x = p accepted")
	}
}

// compressed returns the 33-byte encoding with the given tag and x.
func compressed(tag byte, x *big.Int) []byte {
	return append([]byte{tag}, x.FillBytes(make([]byte, 32))...)
}

// curveRHS returns x³ − 3x + b mod p.
func curveRHS(x *big.Int) *big.Int {
	params := curve.Params()
	rhs := new(big.Int).Exp(x, big.NewInt(3), params.P)
	rhs.Sub(rhs, new(big.Int).Mul(x, big.NewInt(3)))
	return rhs.Add(rhs, params.B).Mod(rhs, params.P)
}

// rootlessX returns the smallest x that is on no curve point.
func rootlessX() *big.Int {
	for x := new(big.Int); ; x.Add(x, big.NewInt(1)) {
		if new(big.Int).ModSqrt(curveRHS(x), curve.Params().P) == nil {
			return x
		}
	}
}

// aliasedPoint returns the curve point with the smallest x, whose x + p
// is below 2²⁵⁶.
func aliasedPoint() (x, y *big.Int) {
	for x = new(big.Int); ; x.Add(x, big.NewInt(1)) {
		if y = new(big.Int).ModSqrt(curveRHS(x), curve.Params().P); y != nil {
			return x, y
		}
	}
}

// TestPointOpsDoNotAllocate holds the representation to its point: a
// Point is a value, so decoding (a compressed point's square root, either
// parity), the group law on single points and encoding into a buffer
// with room, compressed or not, allocate nothing.
func TestPointOpsDoNotAllocate(t *testing.T) {
	g, p := Generator(), BaseMul(big.NewInt(12345))
	enc := Ciphertext{C1: g, C2: p}.Bytes()
	odd := g.Neg().Bytes() // the other parity from enc's first point
	buf := make([]byte, 0, uncompressedLen)
	var sink Point
	var ok bool
	for name, op := range map[string]func(){
		"ParsePoint":      func() { sink, _, _ = ParsePoint(enc) },
		"ParsePoint/odd":  func() { sink, _, _ = ParsePoint(odd) },
		"ParseCiphertext": func() { c, _, _ := ParseCiphertext(enc); sink = c.C2 },
		"Add":             func() { sink = g.Add(p) },
		"Sub":             func() { sink = g.Sub(p) },
		"Neg":             func() { sink = p.Neg() },
		"Equal":           func() { ok = g.Equal(p) },
		"IsValid":         func() { ok = p.IsValid() },
		"Identity":        func() { sink = Identity() },
		"Generator":       func() { sink = Generator() },
		"AppendBytes":     func() { buf = p.AppendBytes(buf[:0]) },
		"Uncompressed":    func() { buf = p.appendUncompressed(buf[:0]) },
	} {
		if n := testing.AllocsPerRun(50, op); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
	_, _ = sink, ok
}

// TestZeroPointIsNotAGroupElement: the zero Point is (0, 0), off the
// curve, and everything that takes a point from outside refuses it.
func TestZeroPointIsNotAGroupElement(t *testing.T) {
	var z Point
	if z.IsValid() || z.IsIdentity() || z.Equal(Identity()) {
		t.Fatal("the zero Point passes for a group element")
	}
	if _, _, err := ParsePoint(z.Bytes()); err == nil {
		t.Fatal("the zero Point's encoding parses")
	}
	k := GenerateKey()
	g := Generator()
	pr := ProveDLEQ("test", g, k.PK, g, k.PK, k.X)
	if !VerifyDLEQ("test", g, k.PK, g, k.PK, pr) {
		t.Fatal("honest DLEQ rejected")
	}
	if VerifyDLEQ("test", g, z, g, k.PK, pr) {
		t.Fatal("VerifyDLEQ accepted the zero Point as a statement point")
	}
	for _, bad := range []EqualityProof{{Commit1: z, Commit2: pr.Commit2, Response: pr.Response}, {Commit1: pr.Commit1, Commit2: z, Response: pr.Response}} {
		if VerifyDLEQ("test", g, k.PK, g, k.PK, bad) {
			t.Fatal("VerifyDLEQ accepted the zero Point as a commitment")
		}
	}
	cts := makeBatch(k.PK, []bool{true, false, true, false, true, false})
	blinded, ss := BatchExpBlind(cts)
	proofs := BatchProveBlinds(cts, blinded, ss)
	proofs[3].Commit2 = z
	if idx, ok := VerifyBlindsBatch(cts, blinded, proofs); ok || idx != 3 {
		t.Fatalf("zero commitment in a blind batch: got (%d,%v), want (3,false)", idx, ok)
	}
}

func TestEncryptDecrypt(t *testing.T) {
	k := GenerateKey()
	msg := BaseMul(big.NewInt(777))
	c := Encrypt(k.PK, msg)
	if !k.Decrypt(c).Equal(msg) {
		t.Fatal("decrypt(encrypt(m)) != m")
	}
}

func TestEncryptBit(t *testing.T) {
	k := GenerateKey()
	if !k.Decrypt(EncryptBit(k.PK, false)).IsIdentity() {
		t.Fatal("bit 0 must decrypt to identity")
	}
	if !k.Decrypt(EncryptBit(k.PK, true)).Equal(Generator()) {
		t.Fatal("bit 1 must decrypt to G")
	}
}

func TestHomomorphicAddIsORInExponent(t *testing.T) {
	k := GenerateKey()
	zero := EncryptBit(k.PK, false)
	one := EncryptBit(k.PK, true)

	sum00 := zero.Add(EncryptBit(k.PK, false))
	if !k.Decrypt(sum00).IsIdentity() {
		t.Fatal("0+0 must stay identity")
	}
	sum01 := zero.Add(one)
	if k.Decrypt(sum01).IsIdentity() {
		t.Fatal("0+1 must be non-identity")
	}
	sum11 := one.Add(EncryptBit(k.PK, true))
	if k.Decrypt(sum11).IsIdentity() {
		t.Fatal("1+1 must be non-identity (2G)")
	}
}

func TestRerandomizePreservesPlaintext(t *testing.T) {
	k := GenerateKey()
	msg := BaseMul(big.NewInt(31337))
	c := Encrypt(k.PK, msg)
	c2 := c.RerandomizeWith(k.PK, RandomScalar())
	if c2.Equal(c) {
		t.Fatal("rerandomization must change the ciphertext")
	}
	if !k.Decrypt(c2).Equal(msg) {
		t.Fatal("rerandomization must preserve the plaintext")
	}
}

func TestExpBlindPreservesZeroOnly(t *testing.T) {
	k := GenerateKey()
	zero := EncryptBit(k.PK, false).ExpBlindWith(RandomScalar())
	if !k.Decrypt(zero).IsIdentity() {
		t.Fatal("blinded 0 must stay identity")
	}
	one := EncryptBit(k.PK, true)
	b1 := one.ExpBlindWith(RandomScalar())
	b2 := one.ExpBlindWith(RandomScalar())
	p1, p2 := k.Decrypt(b1), k.Decrypt(b2)
	if p1.IsIdentity() || p2.IsIdentity() {
		t.Fatal("blinded 1 must stay non-identity")
	}
	if p1.Equal(p2) {
		t.Fatal("independent blindings should give unlinkable plaintexts")
	}
}

func TestDistributedDecryption(t *testing.T) {
	parties := []*PrivateKey{GenerateKey(), GenerateKey(), GenerateKey()}
	pk, err := CombineKeys(parties[0].PK, parties[1].PK, parties[2].PK)
	if err != nil {
		t.Fatal(err)
	}
	msg := BaseMul(big.NewInt(99))
	c := Encrypt(pk, msg)

	var shares []DecryptionShare
	for _, p := range parties {
		shares = append(shares, p.PartialDecrypt(c))
	}
	if !Recover(c, shares).Equal(msg) {
		t.Fatal("full share set must recover the message")
	}
	// Missing one share must NOT recover the message.
	if Recover(c, shares[:2]).Equal(msg) {
		t.Fatal("partial share set must not recover the message")
	}
}

func TestCombineKeysRejectsInvalid(t *testing.T) {
	if _, err := CombineKeys(); err == nil {
		t.Fatal("no keys must fail")
	}
	if _, err := CombineKeys(Point{}); err == nil {
		t.Fatal("invalid key must fail")
	}
	// An identity member contributes no secret; a member that cancels
	// the others leaves every ciphertext a plaintext.
	a, b := GenerateKey().PK, GenerateKey().PK
	if _, err := CombineKeys(a, Identity(), b); err == nil {
		t.Fatal("identity member key must fail")
	}
	if _, err := CombineKeys(a, b, a.Add(b).Neg()); err == nil {
		t.Fatal("keys summing to the identity must fail")
	}
	if _, err := CombineKeys(a, b, Point{}); err == nil {
		t.Fatal("a zero Point member key must fail")
	}
}

func TestProofOfPossession(t *testing.T) {
	k, other := GenerateKey(), GenerateKey()
	if !VerifyPossession(k.PK, k.ProvePossession()) {
		t.Fatal("honest proof of possession rejected")
	}
	if VerifyPossession(other.PK, k.ProvePossession()) {
		t.Fatal("a proof of possession verified for another key")
	}
	// The rogue key: chosen to cancel two honest ones, logarithm unknown
	// to its maker, who can only borrow someone's proof.
	rogue := k.PK.Add(other.PK).Neg()
	if VerifyPossession(rogue, other.ProvePossession()) {
		t.Fatal("rogue key accepted on a borrowed proof")
	}
	// x = 0 proves honestly, and is no key.
	zero := &PrivateKey{X: new(big.Int), PK: Identity()}
	if VerifyPossession(zero.PK, zero.ProvePossession()) {
		t.Fatal("identity key accepted")
	}
	if VerifyPossession(k.PK, EqualityProof{}) || VerifyPossession(Point{}, k.ProvePossession()) {
		t.Fatal("garbage accepted")
	}
}

func TestCiphertextEncoding(t *testing.T) {
	k := GenerateKey()
	c := EncryptBit(k.PK, true)
	b := c.Bytes()
	c2, n, err := ParseCiphertext(b)
	if err != nil || n != len(b) {
		t.Fatalf("parse: %v (n=%d len=%d)", err, n, len(b))
	}
	if !c.Equal(c2) {
		t.Fatal("ciphertext round trip")
	}
	if _, _, err := ParseCiphertext(b[:3]); err == nil {
		t.Fatal("short ciphertext must fail")
	}
}

// shareChunk encrypts n bits under pk and returns the ciphertexts with
// k's decryption shares for them.
func shareChunk(pk Point, k *PrivateKey, n int) ([]Ciphertext, []DecryptionShare) {
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = i%3 == 0
	}
	cts, _ := BatchEncryptBits(pk, bits)
	return cts, k.BatchPartialDecrypt(cts)
}

func TestChaumPedersenShareProof(t *testing.T) {
	parties := []*PrivateKey{GenerateKey(), GenerateKey()}
	pk, _ := CombineKeys(parties[0].PK, parties[1].PK)
	cts, shares := shareChunk(pk, parties[0], 6)

	proof := parties[0].BatchProveShares(cts, shares)
	if _, ok := VerifySharesBatch(parties[0].PK, cts, shares, proof); !ok {
		t.Fatal("honest chunk proof must verify")
	}
	// One wrong share: computed with a different key.
	bad := append([]DecryptionShare(nil), shares...)
	bad[4] = parties[1].PartialDecrypt(cts[4])
	if _, ok := VerifySharesBatch(parties[0].PK, cts, bad, proof); ok {
		t.Fatal("proof must not verify a chunk with a different share in it")
	}
	// Tampered response.
	tampered := proof
	tampered.Response = new(big.Int).Add(proof.Response, big.NewInt(1))
	if _, ok := VerifySharesBatch(parties[0].PK, cts, shares, tampered); ok {
		t.Fatal("tampered proof must fail")
	}
	// Malicious party lying about a share, proving the lie with its own key.
	bad[4] = DecryptionShare{Share: BaseMul(big.NewInt(5))}
	lieProof := parties[0].BatchProveShares(cts, bad)
	if _, ok := VerifySharesBatch(parties[0].PK, cts, bad, lieProof); ok {
		t.Fatal("proof for a chunk with an incorrect share must fail")
	}
	// The other party's honest chunk does not verify under this key.
	others := parties[1].BatchPartialDecrypt(cts)
	if _, ok := VerifySharesBatch(parties[0].PK, cts, others, parties[1].BatchProveShares(cts, others)); ok {
		t.Fatal("shares proved under another key must fail")
	}
}

func TestVerifyShareRejectsGarbage(t *testing.T) {
	k := GenerateKey()
	cts, shares := shareChunk(k.PK, k, 3)
	if _, ok := VerifySharesBatch(k.PK, cts, shares, EqualityProof{}); ok {
		t.Fatal("empty proof must fail")
	}
	proof := k.BatchProveShares(cts, shares)
	if _, ok := VerifySharesBatch(Point{}, cts, shares, proof); ok {
		t.Fatal("invalid pk must fail")
	}
	zeroShare := append([]DecryptionShare(nil), shares...)
	zeroShare[1].Share = Point{}
	if idx, ok := VerifySharesBatch(k.PK, cts, zeroShare, proof); ok || idx != 1 {
		t.Fatalf("zero Point share gave (%d,%v), want (1,false)", idx, ok)
	}
	zeroCommit := proof
	zeroCommit.Commit1 = Point{}
	if _, ok := VerifySharesBatch(k.PK, cts, shares, zeroCommit); ok {
		t.Fatal("zero Point commitment must fail")
	}
}

func makeBatch(pk Point, bits []bool) []Ciphertext {
	out := make([]Ciphertext, len(bits))
	for i, b := range bits {
		out[i] = EncryptBit(pk, b)
	}
	return out
}

func TestShufflePreservesMultiset(t *testing.T) {
	k := GenerateKey()
	bits := []bool{true, false, true, true, false, false, false, true}
	in := makeBatch(k.PK, bits)
	out, _ := Shuffle(k.PK, in)
	if len(out) != len(in) {
		t.Fatal("length change")
	}
	ones := 0
	for _, c := range out {
		if !k.Decrypt(c).IsIdentity() {
			ones++
		}
	}
	if ones != 4 {
		t.Fatalf("shuffle changed plaintext multiset: %d ones, want 4", ones)
	}
}

func TestRandomScalarInRange(t *testing.T) {
	for i := 0; i < 32; i++ {
		s := RandomScalar()
		if s.Sign() <= 0 || s.Cmp(order) >= 0 {
			t.Fatalf("scalar out of range: %v", s)
		}
	}
}

func TestRandomPermIsPermutation(t *testing.T) {
	for n := 1; n <= 16; n++ {
		if !invertInto(make([]int, n), randomPerm(n)) {
			t.Fatalf("randomPerm(%d) not a permutation", n)
		}
	}
}

func BenchmarkEncryptBit(b *testing.B) {
	k := GenerateKey()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncryptBit(k.PK, i%2 == 0)
	}
}

func BenchmarkExpBlind(b *testing.B) {
	k := GenerateKey()
	c := EncryptBit(k.PK, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ExpBlindWith(RandomScalar())
	}
}

func BenchmarkShuffle64(b *testing.B) {
	k := GenerateKey()
	in := makeBatch(k.PK, make([]bool, 64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Shuffle(k.PK, in)
	}
}
