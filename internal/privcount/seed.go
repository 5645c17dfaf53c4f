package privcount

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"
)

// seedSize is the length of a blinding seed: an AES-256 key.
const seedSize = 32

// A DC blinds its counters against each SK with a share vector neither
// ever puts on the wire: the DC draws a fresh seed, seals it to the SK,
// and both expand it locally. Slot i of the vector is bytes [8i, 8i+8)
// of the AES-256-CTR keystream under the seed with a zero IV, read
// little-endian — a function of (seed, i) alone, so DC and SK agree
// however either side chunks the expansion.

// newSeed draws a fresh seed from the cryptographic randomness source.
func newSeed() []byte {
	seed := make([]byte, seedSize)
	if _, err := rand.Read(seed); err != nil {
		panic("privcount: crypto/rand failed: " + err.Error())
	}
	return seed
}

// expandSeed streams the n-slot share vector of seed through fn,
// ChunkSlots at a time. The slice passed to fn is one reused scratch
// buffer, valid only until fn returns.
func expandSeed(seed []byte, n int, fn func(off int, shares []uint64) error) error {
	if len(seed) != seedSize {
		return fmt.Errorf("privcount: blinding seed is %d bytes, want %d", len(seed), seedSize)
	}
	block, err := aes.NewCipher(seed)
	if err != nil {
		return err
	}
	stream := cipher.NewCTR(block, make([]byte, aes.BlockSize))
	raw := make([]byte, 8*min(n, ChunkSlots))
	shares := make([]uint64, len(raw)/8)
	return forEachChunk(n, func(off, end int) error {
		buf := raw[:8*(end-off)]
		clear(buf) // XORKeyStream over zeros is the keystream itself
		stream.XORKeyStream(buf, buf)
		out := shares[:end-off]
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(buf[8*i:])
		}
		return fn(off, out)
	})
}

// RandomShares draws a blinding vector of n slots: a fresh seed from
// the cryptographic randomness source, expanded exactly as a DC and its
// SK expand the seeds of a round.
func RandomShares(n int) []uint64 {
	out := make([]uint64, n)
	seed := newSeed()
	err := expandSeed(seed, n, func(off int, shares []uint64) error {
		copy(out[off:], shares)
		return nil
	})
	if err != nil {
		panic("privcount: " + err.Error())
	}
	clear(seed)
	return out
}
