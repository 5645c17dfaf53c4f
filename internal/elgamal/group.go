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
//   - the field is a dedicated 4×64-limb Montgomery implementation
//     (field.go) whose reductions are branch-free — the final borrow of
//     a random operand pair is a coin flip, and a mispredicted branch
//     there used to cost feSub more than its arithmetic;
//   - single operations — Add, BaseMul, Mul on a cached base, table
//     building, the multi-scalar multiplications — run in Jacobian
//     coordinates (jacobian.go) and normalize once at the end;
//   - fixed-base multiplication uses precomputed windowed tables
//     (table.go) for the generator and for hot shared bases such as a
//     round's joint public key (see Precompute);
//   - vectorized entry points (Batch* in batch.go) fan out over a
//     GOMAXPROCS-sized worker pool in chunks of at least 64 elements,
//     and a chunk never leaves affine coordinates: it walks the tables
//     one window step at a time across all its elements, and the
//     step's additions share one field inversion (affine.go). An
//     addition costs 5 multiplications and a squaring instead of a
//     mixed Jacobian addition's 8 and 3, and nothing is left to
//     normalize. The inversion (≈ 3.5 µs through math/big) is a step's
//     fixed cost, which is why chunks are no smaller than 64;
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
// Single-element variable-base multiplications still delegate to the
// assembly-backed crypto/elliptic P-256, which remains the fastest
// primitive available for that one shape.
//
// The new core is *variable time*: table indices and NAF digits depend
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
)

// Point is an element of the P-256 group in affine coordinates. The
// identity (point at infinity) is represented by X = Y = 0, the
// convention crypto/elliptic itself uses.
type Point struct {
	X, Y *big.Int
}

// Identity returns the group identity element.
func Identity() Point {
	return Point{X: new(big.Int), Y: new(big.Int)}
}

// Generator returns the standard base point G.
func Generator() Point {
	p := curve.Params()
	return Point{X: new(big.Int).Set(p.Gx), Y: new(big.Int).Set(p.Gy)}
}

// IsIdentity reports whether p is the identity element.
func (p Point) IsIdentity() bool {
	return p.X != nil && p.Y != nil && p.X.Sign() == 0 && p.Y.Sign() == 0
}

// IsValid reports whether p is the identity or a point on the curve.
func (p Point) IsValid() bool {
	if p.X == nil || p.Y == nil {
		return false
	}
	if p.IsIdentity() {
		return true
	}
	pp := curve.Params().P
	if p.X.Sign() < 0 || p.X.Cmp(pp) >= 0 || p.Y.Sign() < 0 || p.Y.Cmp(pp) >= 0 {
		return false
	}
	var a affinePoint
	a.fromPoint(p)
	return a.onCurve()
}

// Equal reports whether two points are the same group element.
func (p Point) Equal(q Point) bool {
	if p.X == nil || q.X == nil {
		return false
	}
	return p.X.Cmp(q.X) == 0 && p.Y.Cmp(q.Y) == 0
}

// isGenerator reports whether p is the standard base point.
func (p Point) isGenerator() bool {
	params := curve.Params()
	return p.X != nil && p.Y != nil && p.X.Cmp(params.Gx) == 0 && p.Y.Cmp(params.Gy) == 0
}

// Add returns p + q.
func (p Point) Add(q Point) Point {
	var jp jacPoint
	var aq affinePoint
	jp.fromPoint(p)
	aq.fromPoint(q)
	jp.addMixed(&jp, &aq)
	return jp.toPoint()
}

// Neg returns -p.
func (p Point) Neg() Point {
	if p.IsIdentity() {
		return Identity()
	}
	y := new(big.Int).Sub(curve.Params().P, p.Y)
	y.Mod(y, curve.Params().P)
	return Point{X: new(big.Int).Set(p.X), Y: y}
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point {
	var jp jacPoint
	var aq affinePoint
	jp.fromPoint(p)
	aq.fromPoint(q)
	jp.subMixed(&jp, &aq)
	return jp.toPoint()
}

// Mul returns k·p for a scalar k. Multiplications by the generator or
// by a base with a precomputed table (see Precompute) use the windowed
// fixed-base path; other bases delegate to the stdlib assembly
// implementation, which is the fastest single-shot variable-base
// multiplication available.
func (p Point) Mul(k *big.Int) Point {
	if p.IsIdentity() || k.Sign() == 0 {
		return Identity()
	}
	kk := new(big.Int).Mod(k, order)
	if kk.Sign() == 0 {
		return Identity()
	}
	if p.isGenerator() {
		return BaseMul(kk)
	}
	if t := cachedTable(p); t != nil {
		var jp jacPoint
		t.mul(&jp, kk)
		return jp.toPoint()
	}
	x, y := curve.ScalarMult(p.X, p.Y, kk.Bytes())
	return Point{X: x, Y: y}
}

// BaseMul returns k·G via the static precomputed generator table.
func BaseMul(k *big.Int) Point {
	kk := new(big.Int).Mod(k, order)
	if kk.Sign() == 0 {
		return Identity()
	}
	var jp jacPoint
	baseTable().mul(&jp, kk)
	return jp.toPoint()
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
	if p.IsIdentity() {
		return append(dst, 0)
	}
	n := len(dst)
	dst = append(dst, make([]byte, pointLen)...)
	dst[n] = 4
	p.X.FillBytes(dst[n+1 : n+33])
	p.Y.FillBytes(dst[n+33 : n+65])
	return dst
}

// ParsePoint decodes a point produced by Bytes and validates curve
// membership. It returns the number of bytes consumed.
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
		p := Point{
			X: new(big.Int).SetBytes(b[1:33]),
			Y: new(big.Int).SetBytes(b[33:65]),
		}
		if !p.IsValid() || p.IsIdentity() {
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
