package privcount

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/parallel"
)

// Sealed boxes carry a DC's blinding seeds to each share keeper via
// the tally server. The TS relays them but must not read them — if it
// could, it could unblind individual DC counts. Each box is an
// ephemeral-static X25519 agreement with an AES-256-GCM payload.

// SealKey is a share keeper's box keypair.
type SealKey struct {
	priv *ecdh.PrivateKey
}

// NewSealKey generates a keypair.
func NewSealKey() (*SealKey, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("privcount: seal keygen: %w", err)
	}
	return &SealKey{priv: priv}, nil
}

// Public returns the public key bytes DCs seal to.
func (k *SealKey) Public() []byte { return k.priv.PublicKey().Bytes() }

// ErrSealOpen is returned when a sealed box fails to authenticate.
var ErrSealOpen = errors.New("privcount: sealed box authentication failed")

// Seal encrypts plaintext to the recipient public key. Output layout:
// ephemeral X25519 public key (32 bytes) || GCM nonce || ciphertext.
func Seal(recipientPub []byte, plaintext []byte) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(recipientPub)
	if err != nil {
		return nil, fmt.Errorf("privcount: bad recipient key: %w", err)
	}
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	shared, err := eph.ECDH(pub)
	if err != nil {
		return nil, err
	}
	aead, err := newAEAD(shared, eph.PublicKey().Bytes(), recipientPub)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	out := make([]byte, 0, 32+len(nonce)+len(plaintext)+aead.Overhead())
	out = append(out, eph.PublicKey().Bytes()...)
	out = append(out, nonce...)
	return aead.Seal(out, nonce, plaintext, nil), nil
}

// Open decrypts a sealed box with the recipient's private key.
func (k *SealKey) Open(box []byte) ([]byte, error) {
	if len(box) < 32 {
		return nil, ErrSealOpen
	}
	ephPub, err := ecdh.X25519().NewPublicKey(box[:32])
	if err != nil {
		return nil, ErrSealOpen
	}
	shared, err := k.priv.ECDH(ephPub)
	if err != nil {
		return nil, ErrSealOpen
	}
	aead, err := newAEAD(shared, box[:32], k.Public())
	if err != nil {
		return nil, err
	}
	ns := aead.NonceSize()
	if len(box) < 32+ns {
		return nil, ErrSealOpen
	}
	pt, err := aead.Open(nil, box[32:32+ns], box[32+ns:], nil)
	if err != nil {
		return nil, ErrSealOpen
	}
	return pt, nil
}

// newAEAD derives an AES-256-GCM AEAD from the ECDH shared secret and
// both public keys (so a box is bound to its key pair).
func newAEAD(shared, ephPub, recipPub []byte) (cipher.AEAD, error) {
	h := sha256.New()
	h.Write([]byte("privcount/seal/v1"))
	h.Write(shared)
	h.Write(ephPub)
	h.Write(recipPub)
	block, err := aes.NewCipher(h.Sum(nil))
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// SealBatch seals plaintexts[i] to recipients[i] across the worker
// pool; each box costs an X25519 key generation and agreement, so a DC
// sealing to many share keepers parallelizes cleanly. On
// any failure the first error (by index) is returned.
func SealBatch(recipients, plaintexts [][]byte) ([][]byte, error) {
	if len(recipients) != len(plaintexts) {
		return nil, errors.New("privcount: SealBatch length mismatch")
	}
	out := make([][]byte, len(recipients))
	errs := make([]error, len(recipients))
	parallel.For(len(recipients), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i], errs[i] = Seal(recipients[i], plaintexts[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
