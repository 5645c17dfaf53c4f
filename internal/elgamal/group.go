// Package elgamal implements the group cryptography used by the private
// set-union cardinality protocol (internal/psc): ElGamal over the NIST
// P-256 curve with additive homomorphism, ciphertext re-randomization,
// plaintext-exponent blinding, n-of-n distributed decryption with
// Chaum–Pedersen correctness proofs, and a cut-and-choose verifiable
// shuffle.
//
// PSC (Fenske et al., CCS 2017) needs exactly these operations: data
// collectors encrypt hash-table bits as group elements, computation
// parties mix and blind them so that only the *number* of non-zero bins
// survives, and joint decryption reveals that count plus noise — never
// any individual item.
//
// # Performance architecture
//
// PSC spends essentially all of its runtime here, on vectors of
// thousands of ciphertexts per round, so the group core is built for
// batch throughput:
//
//   - a Point is the affine form that arithmetic runs on: two field
//     elements in Montgomery form (field.go) and an identity flag, no
//     pointers and nothing to convert. Its wire encoding is SEC1
//     compressed (33 bytes, y recovered with one square root on the
//     field kernel) and its zero value (0, 0) is not on the curve, so an
//     unset Point is never mistaken for a group element;
//   - the field is a dedicated 4×64-limb Montgomery implementation whose
//     reductions are branch-free — the final borrow of a random operand
//     pair is a coin flip, and a mispredicted branch there used to cost
//     feSub more than its arithmetic. On amd64 its multiplication and
//     squaring are Go's own P-256 Montgomery assembly (field_amd64.s:
//     same limbs, same R), about 0.7× the pure-Go bodies, which stay as
//     the non-amd64 build and as the tests' oracle;
//   - single operations — Add, BaseMul, Mul on a cached base, table
//     building, the multi-scalar multiplications — run in Jacobian
//     coordinates (jacobian.go) and normalize once at the end;
//   - fixed-base multiplication uses precomputed windowed tables
//     (table.go) for the generator and for hot shared bases such as a
//     round's joint public key (see Precompute);
//   - vectorized entry points (Batch* in batch.go) fan out over a
//     GOMAXPROCS-sized worker pool in chunks of at least 64 elements,
//     and a chunk never leaves affine coordinates: it walks the tables
//     one window step at a time across all its elements (both of a
//     re-randomization's tables in the same steps), and the step's
//     additions share one field inversion (affine.go). An
//     addition costs 5 multiplications and a squaring instead of a
//     mixed Jacobian addition's 8 and 3, and nothing is left to
//     normalize. The inversion (≈ 7 µs) is a step's fixed cost, which
//     is why chunks are no smaller than 64. A chunk's accumulators,
//     scalar limbs and inversion scratch come from a sync.Pool
//     (chunkScratch) and are reused, not rebuilt per chunk;
//   - that plane is total, because the shuffle verifier runs it on a
//     prover's ciphertexts with the prover's opened scalars: operands
//     at infinity are settled without arithmetic, and an addition of
//     two points with the same x — a doubling or a cancellation, which
//     a cheating prover can arrange — is kept out of the shared product
//     (one zero there would poison the whole chunk's inverse) and takes
//     that step through the Jacobian group law on its own;
//   - proof batches are verified with random-linear-combination checks
//     over a shared-doubling multi-scalar multiplication (verify.go).
//
// math/big survives at the edges only: scalars are *big.Int, the field
// constants are derived from the curve parameters through it, and a
// single-element variable-base multiplication hands its coordinates to
// the assembly-backed crypto/elliptic P-256, still the fastest primitive
// available for that one shape.
//
// The core is *variable time*: table indices and NAF digits depend
// on scalar bits. The reproduction simulates all parties in one trusted
// process, so cross-party timing side channels are out of scope here —
// a real deployment must swap in constant-time arithmetic.
package elgamal

import (
	"bufio"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
)

var (
	curve = elliptic.P256()
	// order is the order of the P-256 base point group.
	order = curve.Params().N

	generator = Point{x: feFromBig(curve.Params().Gx), y: feFromBig(curve.Params().Gy)}
)

// Point is an element of the P-256 group: an affine point with
// Montgomery-form coordinates, or the identity (point at infinity),
// which affine coordinates cannot express and a flag marks. Every
// producer in this package leaves the coordinates reduced and the
// identity's zero, so == is group equality and a Point can key a map.
// The zero value is (0, 0), which is not on the curve: it is not a
// group element, and IsValid and every verifier refuse it.
type Point struct {
	x, y     fe
	infinity bool
}

// Identity returns the group identity element.
func Identity() Point { return Point{infinity: true} }

// Generator returns the standard base point G.
func Generator() Point { return generator }

// IsIdentity reports whether p is the identity element.
func (p Point) IsIdentity() bool { return p.infinity }

// IsValid reports whether p is the identity or a point on the curve
// y² = x³ − 3x + b.
func (p Point) IsValid() bool {
	if p.infinity {
		return true
	}
	var lhs, rhs, t fe
	feSqr(&lhs, &p.y)
	feSqr(&rhs, &p.x)
	feMul(&rhs, &rhs, &p.x)
	feMulBy3(&t, &p.x)
	feSub(&rhs, &rhs, &t)
	feAdd(&rhs, &rhs, &feBVal)
	return rhs == lhs
}

// Equal reports whether two points are the same group element.
func (p Point) Equal(q Point) bool { return p == q }

// Add returns p + q.
func (p Point) Add(q Point) Point {
	jp := p.jacobian()
	jp.addMixed(&jp, &q)
	return jp.toAffine()
}

// Neg returns -p.
func (p Point) Neg() Point {
	if !p.infinity {
		feNeg(&p.y, &p.y)
	}
	return p
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return p.Add(q.Neg()) }

// Mul returns k·p for a scalar k. Multiplications by the generator or
// by a base with a precomputed table (see Precompute) use the windowed
// fixed-base path; other bases delegate to the stdlib assembly
// implementation, which is the fastest single-shot variable-base
// multiplication available.
func (p Point) Mul(k *big.Int) Point {
	if p.infinity || k.Sign() == 0 {
		return Identity()
	}
	kk := new(big.Int).Mod(k, order)
	if kk.Sign() == 0 {
		return Identity()
	}
	if p == generator {
		return BaseMul(kk)
	}
	if t := cachedTable(p); t != nil {
		var jp jacPoint
		t.mul(&jp, kk)
		return jp.toAffine()
	}
	x, y := curve.ScalarMult(p.x.toBig(), p.y.toBig(), kk.Bytes())
	return Point{x: feFromBig(x), y: feFromBig(y)}
}

// BaseMul returns k·G via the static precomputed generator table.
func BaseMul(k *big.Int) Point {
	kk := new(big.Int).Mod(k, order)
	if kk.Sign() == 0 {
		return Identity()
	}
	var jp jacPoint
	baseTable().mul(&jp, kk)
	return jp.toAffine()
}

// Point encodings. What crosses the wire is the SEC1 compressed form,
// pointLen bytes: a tag 2 or 3 carrying y's parity, then x. What is
// hashed (Fiat–Shamir transcripts, HashBlock) or spilled is the
// uncompressed form, uncompressedLen bytes: tag 4, x, then y, so a
// transcript or a spill slot reads back without a square root. Either
// way the identity is the single byte 0.
const (
	pointLen        = 1 + 32
	uncompressedLen = 1 + 32 + 32
)

// Bytes encodes the point compressed: the identity as one 0 byte, any
// other point as pointLen bytes.
func (p Point) Bytes() []byte {
	return p.AppendBytes(make([]byte, 0, pointLen))
}

// AppendBytes appends the compressed encoding of p to dst and returns
// the extended slice, letting vector encoders reuse one allocation (see
// psc's encodeVector). No group element has y = 0 — P-256 has prime
// order, so no point of order two — but the zero Point does, and its
// compressed form would otherwise be a valid encoding of (0, √b); it
// gets a tag no decoder accepts instead, so an unset Point never
// decodes.
func (p Point) AppendBytes(dst []byte) []byte {
	if p.infinity {
		return append(dst, 0)
	}
	var y fe
	feMul(&y, &p.y, &fe{1}) // out of Montgomery form, for the parity
	tag := byte(2 | y[0]&1)
	if p.y.isZero() {
		tag = 0xff
	}
	return p.x.appendBytes(append(dst, tag))
}

// appendUncompressed appends the uncompressed encoding of p: the form
// transcripts hash and spill slots hold.
func (p Point) appendUncompressed(dst []byte) []byte {
	if p.infinity {
		return append(dst, 0)
	}
	return p.y.appendBytes(p.x.appendBytes(append(dst, 4)))
}

// uncompressed returns the uncompressed encoding of p in a fresh slice.
func (p Point) uncompressed() []byte {
	return p.appendUncompressed(make([]byte, 0, uncompressedLen))
}

// ParsePoint decodes a compressed point produced by Bytes and returns
// the number of bytes consumed. It recovers y with one square root
// (feSqrt) and refuses the uncompressed form, an x at or above p (one
// point would have two encodings) and an x that is on no curve point.
func ParsePoint(b []byte) (Point, int, error) {
	if len(b) < 1 {
		return Point{}, 0, errors.New("elgamal: empty point encoding")
	}
	switch b[0] {
	case 0:
		return Identity(), 1, nil
	case 2, 3:
		if len(b) < pointLen {
			return Point{}, 0, errors.New("elgamal: short point encoding")
		}
		x, ok := feFromBytes(b[1:pointLen])
		if !ok {
			return Point{}, 0, errors.New("elgamal: point not on curve")
		}
		p := Point{x: x}
		if !p.setY(b[0] & 1) {
			return Point{}, 0, errors.New("elgamal: point not on curve")
		}
		return p, pointLen, nil
	case 4:
		return Point{}, 0, errors.New("elgamal: uncompressed point encoding")
	default:
		return Point{}, 0, fmt.Errorf("elgamal: bad point tag %d", b[0])
	}
}

// setY solves the curve equation y² = x³ − 3x + b for p.y, taking the
// root whose canonical value has the given parity, and reports whether
// p.x is the x of a curve point.
func (p *Point) setY(parity byte) bool {
	var rhs, t fe
	feSqr(&rhs, &p.x)
	feMul(&rhs, &rhs, &p.x)
	feMulBy3(&t, &p.x)
	feSub(&rhs, &rhs, &t)
	feAdd(&rhs, &rhs, &feBVal)
	if !feSqrt(&p.y, &rhs) {
		return false
	}
	feMul(&t, &p.y, &fe{1})
	if byte(t[0]&1) != parity {
		feNeg(&p.y, &p.y)
	}
	return true
}

// parseUncompressed decodes the uncompressedLen-byte tag-4 encoding at
// the head of b — a spill slot's point — and validates curve
// membership. A coordinate must be below p.
func parseUncompressed(b []byte) (Point, error) {
	if len(b) < uncompressedLen || b[0] != 4 {
		return Point{}, errors.New("elgamal: bad uncompressed point encoding")
	}
	x, okX := feFromBytes(b[1:33])
	y, okY := feFromBytes(b[33:uncompressedLen])
	p := Point{x: x, y: y}
	if !okX || !okY || !p.IsValid() {
		return Point{}, errors.New("elgamal: point not on curve")
	}
	return p, nil
}

// randReaders pools buffered readers over the crypto randomness source,
// so scalar generation in the mix/blind loops costs an occasional bulk
// read instead of one syscall per scalar.
var randReaders = sync.Pool{
	New: func() any { return bufio.NewReaderSize(rand.Reader, 4096) },
}

// RandomScalar returns a uniform scalar in [1, order-1] using the
// cryptographic randomness source.
func RandomScalar() *big.Int {
	r := randReaders.Get().(*bufio.Reader)
	defer randReaders.Put(r)
	k := new(big.Int)
	var buf [32]byte
	for {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			panic("elgamal: crypto/rand failed: " + err.Error())
		}
		k.SetBytes(buf[:])
		// Rejection-sample for uniformity; the order is within 2^-32 of
		// 2^256 so retries are vanishingly rare.
		if k.Sign() != 0 && k.Cmp(order) < 0 {
			return k
		}
	}
}

// RandomScalars returns n uniform scalars in [1, order-1], drawing the
// randomness in bulk.
func RandomScalars(n int) []*big.Int {
	out := make([]*big.Int, n)
	r := randReaders.Get().(*bufio.Reader)
	defer randReaders.Put(r)
	var buf [32]byte
	for i := range out {
		k := new(big.Int)
		for {
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				panic("elgamal: crypto/rand failed: " + err.Error())
			}
			k.SetBytes(buf[:])
			if k.Sign() != 0 && k.Cmp(order) < 0 {
				break
			}
		}
		out[i] = k
	}
	return out
}

// randomScalarBits returns a uniform scalar of the given bit width,
// used for the random coefficients of batched proof verification.
func randomScalarBits(r *bufio.Reader, bits int) *big.Int {
	buf := make([]byte, bits/8)
	if _, err := io.ReadFull(r, buf); err != nil {
		panic("elgamal: crypto/rand failed: " + err.Error())
	}
	return new(big.Int).SetBytes(buf)
}
