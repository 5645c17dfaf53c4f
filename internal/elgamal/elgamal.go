package elgamal

import (
	"errors"
	"math/big"
)

// PrivateKey is an ElGamal decryption key share. In the PSC deployment
// each computation party holds one; the effective encryption key is the
// sum of all party public keys, so decryption requires every party
// (n-of-n trust: one honest party suffices for privacy).
type PrivateKey struct {
	X  *big.Int
	PK Point
}

// GenerateKey creates a fresh key pair.
func GenerateKey() *PrivateKey {
	x := RandomScalar()
	return &PrivateKey{X: x, PK: BaseMul(x)}
}

// CombineKeys returns the joint public key: the sum of the given party
// public keys. Encrypting under the joint key means no subset of parties
// missing even one member can decrypt. An identity member contributes
// no secret and an identity sum encrypts nothing — every ciphertext
// under it is its own plaintext — so both are refused; that the sum was
// not steered there by a key built from the others is for the members'
// proofs of possession (VerifyPossession) to establish first.
func CombineKeys(pks ...Point) (Point, error) {
	if len(pks) == 0 {
		return Point{}, errors.New("elgamal: no public keys to combine")
	}
	sum := Identity()
	for _, pk := range pks {
		if !pk.IsValid() || pk.IsIdentity() {
			return Point{}, errors.New("elgamal: invalid public key")
		}
		sum = sum.Add(pk)
	}
	if sum.IsIdentity() {
		return Point{}, errors.New("elgamal: public keys sum to the identity")
	}
	return sum, nil
}

// Ciphertext is an ElGamal ciphertext (C1, C2) = (r·G, M + r·PK).
type Ciphertext struct {
	C1, C2 Point
}

// Encrypt encrypts the message point under pk.
func Encrypt(pk Point, msg Point) Ciphertext {
	r := RandomScalar()
	return EncryptWith(pk, msg, r)
}

// EncryptWith encrypts with a caller-chosen randomizer; used by tests and
// by shuffle provers that must track their randomizers.
func EncryptWith(pk Point, msg Point, r *big.Int) Ciphertext {
	return Ciphertext{C1: BaseMul(r), C2: msg.Add(pk.Mul(r))}
}

// EncryptBit encrypts the PSC bin encoding of a bit: the identity point
// for 0 and the generator for 1.
func EncryptBit(pk Point, bit bool) Ciphertext {
	if bit {
		return Encrypt(pk, Generator())
	}
	return Encrypt(pk, Identity())
}

// Add returns the homomorphic sum: an encryption of the sum of the two
// plaintext points. Summing PSC bin ciphertexts across data collectors
// computes the OR in the exponent: the plaintext is identity iff every
// contribution was 0.
func (c Ciphertext) Add(d Ciphertext) Ciphertext {
	return Ciphertext{C1: c.C1.Add(d.C1), C2: c.C2.Add(d.C2)}
}

// RerandomizeWith refreshes the ciphertext with randomizer r so it is
// unlinkable to c while encrypting the same plaintext.
func (c Ciphertext) RerandomizeWith(pk Point, r *big.Int) Ciphertext {
	return Ciphertext{C1: c.C1.Add(BaseMul(r)), C2: c.C2.Add(pk.Mul(r))}
}

// ExpBlindWith multiplies the plaintext by the non-zero scalar s by
// exponentiating both ciphertext halves. The identity plaintext stays
// the identity; any other plaintext becomes uniformly random when s
// is. This is the PSC step that destroys everything about a bin except
// whether it was empty.
func (c Ciphertext) ExpBlindWith(s *big.Int) Ciphertext {
	return Ciphertext{C1: c.C1.Mul(s), C2: c.C2.Mul(s)}
}

// IsValid reports whether both halves are valid group elements.
func (c Ciphertext) IsValid() bool { return c.C1.IsValid() && c.C2.IsValid() }

// Equal reports ciphertext equality (componentwise).
func (c Ciphertext) Equal(d Ciphertext) bool {
	return c.C1.Equal(d.C1) && c.C2.Equal(d.C2)
}

// Bytes encodes the ciphertext as its two points compressed, back to
// back: 66 bytes, or fewer when a half is the identity.
func (c Ciphertext) Bytes() []byte {
	return c.AppendTo(make([]byte, 0, 2*pointLen))
}

// AppendTo appends the ciphertext encoding to dst and returns the
// extended slice, letting vector encoders amortize one allocation over
// a whole batch.
func (c Ciphertext) AppendTo(dst []byte) []byte {
	return c.C2.AppendBytes(c.C1.AppendBytes(dst))
}

// ParseCiphertext decodes a ciphertext and returns bytes consumed; each
// half costs ParsePoint's square root.
func ParseCiphertext(b []byte) (Ciphertext, int, error) {
	c1, n1, err := ParsePoint(b)
	if err != nil {
		return Ciphertext{}, 0, err
	}
	c2, n2, err := ParsePoint(b[n1:])
	if err != nil {
		return Ciphertext{}, 0, err
	}
	return Ciphertext{C1: c1, C2: c2}, n1 + n2, nil
}

// DecryptionShare is one party's contribution x_i·C1 to removing the
// joint key from a ciphertext.
type DecryptionShare struct {
	Share Point
}

// PartialDecrypt computes this party's decryption share for c.
func (k *PrivateKey) PartialDecrypt(c Ciphertext) DecryptionShare {
	return DecryptionShare{Share: c.C1.Mul(k.X)}
}
