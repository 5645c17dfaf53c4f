package elgamal

import (
	"math/big"
	"testing"
)

func TestDLEQHonest(t *testing.T) {
	x := RandomScalar()
	b1 := Generator()
	b2 := BaseMul(big.NewInt(7))
	p1, p2 := b1.Mul(x), b2.Mul(x)
	pr := ProveDLEQ("test", b1, p1, b2, p2, x)
	if !VerifyDLEQ("test", b1, p1, b2, p2, pr) {
		t.Fatal("honest DLEQ rejected")
	}
	// Wrong domain must fail.
	if VerifyDLEQ("other", b1, p1, b2, p2, pr) {
		t.Fatal("domain separation broken")
	}
	// Unequal logs must fail.
	p2bad := b2.Mul(RandomScalar())
	if VerifyDLEQ("test", b1, p1, b2, p2bad, pr) {
		t.Fatal("unequal logs accepted")
	}
}

func TestBlindProof(t *testing.T) {
	k := GenerateKey()
	in := EncryptBit(k.PK, true)
	s := RandomScalar()
	out := in.ExpBlindWith(s)
	pr := ProveBlind(in, out, s)
	if !VerifyBlind(in, out, pr) {
		t.Fatal("honest blind proof rejected")
	}
	// A substituted output (different plaintext) must fail.
	forged := EncryptBit(k.PK, false)
	if VerifyBlind(in, forged, pr) {
		t.Fatal("forged blind output accepted")
	}
}

func TestBitProofHonest(t *testing.T) {
	k := GenerateKey()
	for _, bit := range []bool{false, true} {
		r := RandomScalar()
		var msg Point
		if bit {
			msg = Generator()
		} else {
			msg = Identity()
		}
		c := EncryptWith(k.PK, msg, r)
		pr := ProveBit(k.PK, c, bit, r)
		if !VerifyBit(k.PK, c, pr) {
			t.Fatalf("honest bit proof (bit=%v) rejected", bit)
		}
	}
}

func TestBitProofRejectsNonBit(t *testing.T) {
	k := GenerateKey()
	// Encrypt 2·G — not a valid bit. A cheater must fail to prove it.
	r := RandomScalar()
	c := EncryptWith(k.PK, Generator().Add(Generator()), r)
	// Try proving with either bit claim; both must fail verification.
	for _, claim := range []bool{false, true} {
		pr := ProveBit(k.PK, c, claim, r)
		if VerifyBit(k.PK, c, pr) {
			t.Fatalf("non-bit ciphertext accepted with claim=%v", claim)
		}
	}
}

func TestBitProofRejectsTampering(t *testing.T) {
	k := GenerateKey()
	r := RandomScalar()
	c := EncryptWith(k.PK, Identity(), r)
	pr := ProveBit(k.PK, c, false, r)
	pr.Resp0 = new(big.Int).Add(pr.Resp0, big.NewInt(1))
	if VerifyBit(k.PK, c, pr) {
		t.Fatal("tampered bit proof accepted")
	}
	if VerifyBit(k.PK, c, BitProof{}) {
		t.Fatal("empty bit proof accepted")
	}
	// Proof bound to a different ciphertext must fail.
	c2 := EncryptBit(k.PK, false)
	pr2 := ProveBit(k.PK, c2, false, r) // wrong randomness for c2
	if VerifyBit(k.PK, c2, pr2) {
		t.Fatal("proof with wrong witness accepted")
	}
}

func BenchmarkProveBit(b *testing.B) {
	k := GenerateKey()
	r := RandomScalar()
	c := EncryptWith(k.PK, Identity(), r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ProveBit(k.PK, c, false, r)
	}
}

func BenchmarkVerifyBit(b *testing.B) {
	k := GenerateKey()
	r := RandomScalar()
	c := EncryptWith(k.PK, Identity(), r)
	pr := ProveBit(k.PK, c, false, r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !VerifyBit(k.PK, c, pr) {
			b.Fatal("verify failed")
		}
	}
}

// TestFixedWidthProofCodec: both proof types round-trip at their fixed
// width — an identity commitment included — and the parsers refuse any
// other length, an off-curve commitment, an uncompressed one and a
// padded identity.
func TestFixedWidthProofCodec(t *testing.T) {
	k := GenerateKey()
	c := EncryptBit(k.PK, true)
	s := RandomScalar()
	eq := ProveBlind(c, c.ExpBlindWith(s), s)
	// A proof over an identity base commits to the identity.
	idBase := ProveDLEQ("test", Generator(), k.PK, Identity(), Identity(), k.X)
	for _, pr := range []EqualityProof{eq, idBase} {
		b := pr.AppendTo(nil)
		if len(b) != EqualityProofLen {
			t.Fatalf("equality proof encodes to %d bytes, want %d", len(b), EqualityProofLen)
		}
		back, err := ParseEqualityProof(b)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Commit1.Equal(pr.Commit1) || !back.Commit2.Equal(pr.Commit2) || back.Response.Cmp(pr.Response) != 0 {
			t.Fatal("equality proof round trip")
		}
	}
	if !VerifyDLEQ("test", Generator(), k.PK, Identity(), Identity(), idBase) {
		t.Fatal("identity-base proof rejected")
	}

	r := RandomScalar()
	bitCt := EncryptWith(k.PK, Generator(), r)
	bit := ProveBit(k.PK, bitCt, true, r)
	bb := bit.AppendTo(nil)
	if len(bb) != BitProofLen {
		t.Fatalf("bit proof encodes to %d bytes, want %d", len(bb), BitProofLen)
	}
	backBit, err := ParseBitProof(bb)
	if err != nil || !VerifyBit(k.PK, bitCt, backBit) {
		t.Fatalf("bit proof round trip: err %v", err)
	}

	good := eq.AppendTo(nil)
	for name, bad := range map[string][]byte{
		"empty":           nil,
		"short":           good[:EqualityProofLen-1],
		"long":            append(append([]byte(nil), good...), 0),
		"off-curve":       append(compressed(2, rootlessX()), good[pointLen:]...),
		"uncompressed":    append(Generator().uncompressed(), good[uncompressedLen:]...),
		"bad tag":         append([]byte{4}, good[1:]...),
		"padded identity": append([]byte{0}, good[1:]...),
	} {
		if _, err := ParseEqualityProof(bad); err == nil {
			t.Errorf("%s equality proof accepted", name)
		}
	}
	if _, err := ParseBitProof(bb[:BitProofLen-1]); err == nil {
		t.Error("short bit proof accepted")
	}
	if _, err := ParseBitProof(append(compressed(3, rootlessX()), bb[pointLen:]...)); err == nil {
		t.Error("bit proof with an off-curve commitment accepted")
	}
}
