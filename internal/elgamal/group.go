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
//     pointers and nothing to convert. Its encoding is decoded straight
//     into limbs and its zero value (0, 0) is not on the curve, so an
//     unset Point is never mistaken for a group element;
//   - the field is a dedicated 4×64-limb Montgomery implementation whose
//     reductions are branch-free — the final borrow of a random operand
//     pair is a coin flip, and a mispredicted branch there used to cost
//     feSub more than its arithmetic;
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

const pointLen = 1 + 32 + 32

// Bytes encodes the point: a tag byte (0 identity, 4 uncompressed)
// followed by two 32-byte big-endian coordinates for non-identity points.
func (p Point) Bytes() []byte {
	return p.AppendBytes(make([]byte, 0, pointLen))
}

// AppendBytes appends the encoding of p to dst and returns the extended
// slice, letting vector encoders reuse one allocation (see
// psc's encodeVector).
func (p Point) AppendBytes(dst []byte) []byte {
	if p.infinity {
		return append(dst, 0)
	}
	return p.y.appendBytes(p.x.appendBytes(append(dst, 4)))
}

// ParsePoint decodes a point produced by Bytes and validates curve
// membership. It returns the number of bytes consumed. A coordinate
// must be below p: the one encoding of a point is the canonical one.
func ParsePoint(b []byte) (Point, int, error) {
	if len(b) < 1 {
		return Point{}, 0, errors.New("elgamal: empty point encoding")
	}
	switch b[0] {
	case 0:
		return Identity(), 1, nil
	case 4:
		if len(b) < pointLen {
			return Point{}, 0, errors.New("elgamal: short point encoding")
		}
		x, okX := feFromBytes(b[1:33])
		y, okY := feFromBytes(b[33:65])
		p := Point{x: x, y: y}
		if !okX || !okY || !p.IsValid() {
			return Point{}, 0, errors.New("elgamal: point not on curve")
		}
		return p, pointLen, nil
	default:
		return Point{}, 0, fmt.Errorf("elgamal: bad point tag %d", b[0])
	}
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
