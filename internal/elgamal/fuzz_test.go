package elgamal

import (
	"bytes"
	"crypto/elliptic"
	"math/big"
	"testing"
)

// FuzzParsePoint drives the point decoder with arbitrary bytes against
// crypto/elliptic: tag 0 is the identity in one byte, and a tag-2 or
// tag-3 encoding is accepted exactly when elliptic.UnmarshalCompressed
// accepts its 33 bytes, as the same point. Every other tag — the
// uncompressed tag 4 among them — is refused. Accepted points
// round-trip to the bytes they were read from.
func FuzzParsePoint(f *testing.F) {
	f.Add(Identity().Bytes())
	f.Add(Generator().Bytes())
	f.Add(BaseMul(big.NewInt(99)).Bytes())
	f.Add([]byte{})
	f.Add([]byte{4})
	f.Add(make([]byte, 65))
	p := curve.Params().P
	gx, gy := coords(Generator())
	ones := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	ax, ay := aliasedPoint()
	for _, xy := range [][2]*big.Int{
		{p, gy}, // x = p
		{gx, p}, // y = p
		{new(big.Int).Sub(p, big.NewInt(1)), gy},
		{ones, gy},
		{gx, ones},
		{new(big.Int).Add(ax, p), ay}, // a curve point's x, plus p
	} {
		f.Add(append(append([]byte{4}, xy[0].FillBytes(make([]byte, 32))...), xy[1].FillBytes(make([]byte, 32))...))
	}
	f.Add(Generator().uncompressed())  // a valid point, uncompressed
	for _, tag := range []byte{2, 3} { // both parities of each x
		f.Add(compressed(tag, gx))
		f.Add(compressed(tag, p))
		f.Add(compressed(tag, rootlessX()))
		f.Add(compressed(tag, new(big.Int).Add(ax, p)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pt, n, err := ParsePoint(data)
		switch {
		case len(data) > 0 && data[0] == 0:
			if err != nil || n != 1 || !pt.IsIdentity() {
				t.Fatalf("tag 0: got (%v, %d, %v), want the identity in one byte", pt, n, err)
			}
		case len(data) >= pointLen && (data[0] == 2 || data[0] == 3):
			x, y := elliptic.UnmarshalCompressed(elliptic.P256(), data[:pointLen])
			if (x != nil) != (err == nil) {
				t.Fatalf("ParsePoint error %v, crypto/elliptic accepts: %v", err, x != nil)
			}
			if x != nil && (n != pointLen || !pt.Equal(pointXY(x, y))) {
				t.Fatalf("decoded (%d bytes) to another point than crypto/elliptic", n)
			}
		default:
			if err == nil {
				t.Fatalf("accepted %d bytes with tag %d", len(data), data[0])
			}
		}
		if err != nil {
			return
		}
		if !pt.IsValid() {
			t.Fatal("decoder returned an invalid point")
		}
		if !bytes.Equal(pt.Bytes(), data[:n]) {
			t.Fatal("re-encoding differs from the bytes decoded")
		}
	})
}

// FuzzParseCiphertext exercises the two-point decoder.
func FuzzParseCiphertext(f *testing.F) {
	k := GenerateKey()
	f.Add(EncryptBit(k.PK, true).Bytes())
	f.Add(EncryptBit(k.PK, false).Bytes())
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, n, err := ParseCiphertext(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		if !c.IsValid() {
			t.Fatal("decoder returned an invalid ciphertext")
		}
	})
}

// FuzzScalarMulEquivalence drives the table/Jacobian multiplication
// paths against the stdlib affine results with arbitrary 32-byte
// scalars: every path must agree on every input, including values at
// or above the group order.
func FuzzScalarMulEquivalence(f *testing.F) {
	f.Add(make([]byte, 32))
	f.Add(big.NewInt(1).FillBytes(make([]byte, 32)))
	f.Add(order.Bytes())
	f.Add(new(big.Int).Sub(order, big.NewInt(1)).FillBytes(make([]byte, 32)))
	f.Add(new(big.Int).Add(order, big.NewInt(1)).FillBytes(make([]byte, 32)))
	f.Fuzz(func(t *testing.T, kb []byte) {
		if len(kb) > 32 {
			kb = kb[:32]
		}
		k := new(big.Int).SetBytes(kb)
		if got, want := BaseMul(k), stdlibBaseMul(k); !got.Equal(want) {
			t.Fatalf("BaseMul(%v) mismatch", k)
		}
		p := stdlibBaseMul(big.NewInt(777))
		if got, want := p.Mul(k), stdlibMul(p, k); !got.Equal(want) {
			t.Fatalf("Mul(%v) mismatch", k)
		}
		if got := BatchBaseMul([]*big.Int{k, k}); !got[0].Equal(got[1]) || !got[0].Equal(stdlibBaseMul(k)) {
			t.Fatalf("BatchBaseMul(%v) mismatch", k)
		}
	})
}

// FuzzAddEquivalence checks the Jacobian addition against stdlib on
// arbitrary pairs of multiples of G.
func FuzzAddEquivalence(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), uint64(1))
	f.Add(uint64(5), uint64(7))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		p := BaseMul(new(big.Int).SetUint64(a))
		q := BaseMul(new(big.Int).SetUint64(b))
		if got, want := p.Add(q), stdlibAdd(p, q); !got.Equal(want) {
			t.Fatalf("Add mismatch for %d, %d", a, b)
		}
		if got, want := p.Sub(q), stdlibAdd(p, q.Neg()); !got.Equal(want) {
			t.Fatalf("Sub mismatch for %d, %d", a, b)
		}
	})
}

// FuzzRerandomizeEquivalence drives the affine batch plane against the
// single-element Jacobian path. Each 34-byte record is one element: two
// signed bytes pick the ciphertext halves as small multiples of G and
// of the key (0 is the identity), the rest is the randomizer. Small
// multiples are first-window table entries, so a scalar whose low
// window matches one meets a doubling or a cancellation; the seeds
// start the mutator there.
func FuzzRerandomizeEquivalence(f *testing.F) {
	key := &PrivateKey{X: big.NewInt(0x5eed)}
	key.PK = stdlibBaseMul(key.X)
	Precompute(key.PK)

	record := func(c1, c2 int8, r *big.Int) []byte {
		return append([]byte{byte(c1), byte(c2)}, new(big.Int).Mod(r, order).FillBytes(make([]byte, 32))...)
	}
	join := func(recs ...[]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	x31, _ := coords(stdlibBaseMul(big.NewInt(31)))
	ordinary := record(3, 1, x31)              // any full-width scalar
	f.Add(record(5, 5, big.NewInt(5)))         // doubling at the only step
	f.Add(record(-5, -5, big.NewInt(5+1<<20))) // cancels at step 0, restarts from infinity
	f.Add(record(9, 9, big.NewInt(-9)))        // ends at the identity pair
	f.Add(record(0, 0, big.NewInt(0)))
	f.Add(record(0, 1, big.NewInt(1)))
	f.Add(record(1, 0, big.NewInt(-1)))
	f.Add(record(7, 0, big.NewInt(1<<36))) // low windows empty
	f.Add(join(record(5, 5, big.NewInt(5+1<<30)), ordinary, ordinary, record(-9, 9, big.NewInt(9+1<<30)), ordinary))
	f.Add([]byte{})

	// stdlibMul reduces mod the order, so a negative m gives −|m|·base.
	small := func(base Point, m int8) Point { return stdlibMul(base, big.NewInt(int64(m))) }
	f.Fuzz(func(t *testing.T, data []byte) {
		const rec = 34
		n := len(data) / rec
		if n > 64 {
			n = 64
		}
		cs := make([]Ciphertext, n)
		rs := make([]*big.Int, n)
		for i := range cs {
			d := data[i*rec : (i+1)*rec]
			cs[i] = Ciphertext{C1: small(Generator(), int8(d[0])), C2: small(key.PK, int8(d[1]))}
			rs[i] = new(big.Int).SetBytes(d[2:])
		}
		got := BatchRerandomizeWith(key.PK, cs, rs)
		for i := range cs {
			if want := cs[i].RerandomizeWith(key.PK, rs[i]); !got[i].Equal(want) {
				t.Fatalf("element %d of %d (C1 = %d·G, C2 = %d·pk, r = %v): batch and single paths disagree", i, n, int8(data[i*rec]), int8(data[i*rec+1]), rs[i])
			}
		}
	})
}
