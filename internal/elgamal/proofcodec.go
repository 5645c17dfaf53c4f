package elgamal

import (
	"errors"
	"fmt"
	"math/big"
)

// Fixed-width encoding. A proof on the wire is its points compressed,
// pointLen (33) bytes each, and its scalars at 32, in declaration order,
// so a frame of n proofs is n·width bytes and is sliced, not scanned. A
// spill slot is a ciphertext's two points uncompressed, 130 bytes, so a
// spill read needs no square root. Point.Bytes gives the identity one
// byte; a fixed-width slot gives it the slot's width, all zero.

const scalarLen = 32

// Encoded proof sizes.
const (
	EqualityProofLen = 2*pointLen + scalarLen
	BitProofLen      = 4*pointLen + 4*scalarLen
)

// appendSlot appends p in a width-byte slot: the identity as width zero
// bytes, any other point compressed (width pointLen) or uncompressed
// (width uncompressedLen).
func appendSlot(dst []byte, p Point, width int) []byte {
	switch {
	case p.IsIdentity():
		return append(dst, make([]byte, width)...)
	case width == pointLen:
		return p.AppendBytes(dst)
	default:
		return p.appendUncompressed(dst)
	}
}

// parseSlot decodes the width-byte slot at the head of b, which must be
// at least that long.
func parseSlot(b []byte, width int) (Point, error) {
	if b[0] == 0 {
		for _, v := range b[1:width] {
			if v != 0 {
				return Point{}, errors.New("elgamal: identity encoding with non-zero padding")
			}
		}
		return Identity(), nil
	}
	if width == pointLen {
		p, _, err := ParsePoint(b[:pointLen])
		return p, err
	}
	return parseUncompressed(b[:width])
}

// AppendFixed appends the ciphertext's 130-byte spill-slot encoding to
// dst.
func (c Ciphertext) AppendFixed(dst []byte) []byte {
	return appendSlot(appendSlot(dst, c.C1, uncompressedLen), c.C2, uncompressedLen)
}

// ParseFixedCiphertext decodes the 130-byte spill-slot encoding at the
// head of b, validating curve membership and identity padding.
func ParseFixedCiphertext(b []byte) (Ciphertext, error) {
	if len(b) < 2*uncompressedLen {
		return Ciphertext{}, fmt.Errorf("elgamal: fixed ciphertext of %d bytes, want %d", len(b), 2*uncompressedLen)
	}
	c1, err := parseSlot(b, uncompressedLen)
	if err != nil {
		return Ciphertext{}, err
	}
	c2, err := parseSlot(b[uncompressedLen:], uncompressedLen)
	return Ciphertext{C1: c1, C2: c2}, err
}

// appendScalar appends k, which must be below 2²⁵⁶ as every reduced
// scalar is, as 32 big-endian bytes.
func appendScalar(dst []byte, k *big.Int) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, scalarLen)...)
	k.FillBytes(dst[n:])
	return dst
}

// proofReader walks one fixed-width proof whose length the caller has
// checked; the first bad point latches.
type proofReader struct {
	b   []byte
	err error
}

func (r *proofReader) point() Point {
	p, err := parseSlot(r.b, pointLen)
	if r.err == nil {
		r.err = err
	}
	r.b = r.b[pointLen:]
	return p
}

func (r *proofReader) scalar() *big.Int {
	k := new(big.Int).SetBytes(r.b[:scalarLen])
	r.b = r.b[scalarLen:]
	return k
}

// AppendTo appends the proof's EqualityProofLen-byte encoding to dst.
func (p EqualityProof) AppendTo(dst []byte) []byte {
	return appendScalar(appendSlot(appendSlot(dst, p.Commit1, pointLen), p.Commit2, pointLen), p.Response)
}

// ParseEqualityProof decodes exactly EqualityProofLen bytes, validating
// curve membership of both commitments. The response is taken as sent;
// verification reduces it.
func ParseEqualityProof(b []byte) (EqualityProof, error) {
	if len(b) != EqualityProofLen {
		return EqualityProof{}, fmt.Errorf("elgamal: equality proof of %d bytes, want %d", len(b), EqualityProofLen)
	}
	r := proofReader{b: b}
	p := EqualityProof{Commit1: r.point(), Commit2: r.point(), Response: r.scalar()}
	return p, r.err
}

// AppendTo appends the proof's BitProofLen-byte encoding to dst.
func (p BitProof) AppendTo(dst []byte) []byte {
	for _, pt := range []Point{p.Commit0G, p.Commit0P, p.Commit1G, p.Commit1P} {
		dst = appendSlot(dst, pt, pointLen)
	}
	for _, k := range []*big.Int{p.Chal0, p.Chal1, p.Resp0, p.Resp1} {
		dst = appendScalar(dst, k)
	}
	return dst
}

// ParseBitProof decodes exactly BitProofLen bytes, validating curve
// membership of the four commitments.
func ParseBitProof(b []byte) (BitProof, error) {
	if len(b) != BitProofLen {
		return BitProof{}, fmt.Errorf("elgamal: bit proof of %d bytes, want %d", len(b), BitProofLen)
	}
	r := proofReader{b: b}
	p := BitProof{
		Commit0G: r.point(), Commit0P: r.point(), Commit1G: r.point(), Commit1P: r.point(),
		Chal0: r.scalar(), Chal1: r.scalar(), Resp0: r.scalar(), Resp1: r.scalar(),
	}
	return p, r.err
}
