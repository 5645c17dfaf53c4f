package elgamal

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math/big"

	"repro/internal/parallel"
)

// This file implements the sigma protocols PSC needs from its
// computation parties — the Chaum–Pedersen proof that an exponent
// blinding used one secret on both ciphertext halves, the OR-proof that
// a noise ciphertext encrypts a bit (both per element), the one
// Chaum–Pedersen proof that covers a whole chunk of decryption shares,
// and the Schnorr proof that a party knows its key — made
// non-interactive with the Fiat–Shamir transform over SHA-256
// transcripts, plus the shuffle primitive itself (Shuffle and its
// witness). The argument that an output block is a permuted
// re-randomization of an input block lives in blockshuffle.go.

// hashToScalar derives a challenge scalar from a domain tag and a
// transcript of encoded group elements.
func hashToScalar(domain string, parts ...[]byte) *big.Int {
	h := sha256.New()
	h.Write([]byte(domain))
	for _, p := range parts {
		var lenb [8]byte
		n := len(p)
		for i := 0; i < 8; i++ {
			lenb[i] = byte(n >> (8 * i))
		}
		h.Write(lenb[:])
		h.Write(p)
	}
	return new(big.Int).Mod(new(big.Int).SetBytes(h.Sum(nil)), order)
}

// EqualityProof is a Chaum–Pedersen NIZK that two points share a
// discrete logarithm over two bases: log_{B1}(P1) = log_{B2}(P2). PSC
// uses it three ways — one per chunk of decryption shares (B1=G, P1=pk,
// B2 and P2 the chunk's folded C1s and shares, see BatchProveShares),
// one per exponent-blinded element (B1=C1, P1=C1', B2=C2, P2=C2'), and
// once per key as a proof of possession (both bases G).
type EqualityProof struct {
	Commit1, Commit2 Point    // t·B1 and t·B2
	Response         *big.Int // t + c·x mod order
}

// ProveDLEQ proves knowledge of x with p1 = x·b1 and p2 = x·b2. The
// domain string separates proof contexts.
func ProveDLEQ(domain string, b1, p1, b2, p2 Point, x *big.Int) EqualityProof {
	t := RandomScalar()
	t1 := b1.Mul(t)
	t2 := b2.Mul(t)
	ch := hashToScalar(domain,
		b1.uncompressed(), p1.uncompressed(), b2.uncompressed(), p2.uncompressed(),
		t1.uncompressed(), t2.uncompressed())
	resp := new(big.Int).Mul(ch, x)
	resp.Add(resp, t).Mod(resp, order)
	return EqualityProof{Commit1: t1, Commit2: t2, Response: resp}
}

// VerifyDLEQ checks a DLEQ proof.
func VerifyDLEQ(domain string, b1, p1, b2, p2 Point, pr EqualityProof) bool {
	for _, pt := range []Point{b1, p1, b2, p2, pr.Commit1, pr.Commit2} {
		if !pt.IsValid() {
			return false
		}
	}
	if pr.Response == nil {
		return false
	}
	ch := hashToScalar(domain,
		b1.uncompressed(), p1.uncompressed(), b2.uncompressed(), p2.uncompressed(),
		pr.Commit1.uncompressed(), pr.Commit2.uncompressed())
	if !b1.Mul(pr.Response).Equal(pr.Commit1.Add(p1.Mul(ch))) {
		return false
	}
	return b2.Mul(pr.Response).Equal(pr.Commit2.Add(p2.Mul(ch)))
}

// One proof per share chunk.
//
// A CP raises every C1ᵢ of a chunk to the same key x, so the n
// statements shareᵢ = x·C1ᵢ fold into one. Both sides derive 128-bit
// coefficients λᵢ from a hash of the CP key and every C1ᵢ and shareᵢ of
// the chunk in order, form
//
//	A = Σ λᵢ·C1ᵢ        B = Σ λᵢ·shareᵢ
//
// and the CP proves the single statement DLEQ(G, pk; A, B). The prover
// gets B as x·A; the verifier folds the shares it was sent.
//
// Soundness (random-oracle model, prime-order group). Write
// Dᵢ = shareᵢ − x·C1ᵢ, so B − x·A = Σ λᵢ·Dᵢ. If some Dⱼ ≠ O then, with
// every other coefficient fixed, exactly one residue of λⱼ mod the
// group order makes the sum vanish, and λⱼ is a fresh 128-bit oracle
// output: Pr[B = x·A] ≤ 2⁻¹²⁸. The coefficients exist only once every
// ciphertext and share of the chunk has been hashed, so a prover cannot
// choose a share after seeing them; it can only re-draw the whole chunk,
// one oracle query and one 2⁻¹²⁸ chance each. When B ≠ x·A the DLEQ
// statement is false and the Chaum–Pedersen proof below is sound on its
// own. The chunk and the key are bound twice over — into the λᵢ and,
// through A and B, into the proof's challenge — so a proof replayed
// onto a permuted or different chunk, or under another key, faces fresh
// coefficients and a fresh challenge. Identities need no special case:
// an identity C1ᵢ adds nothing to A, and its share must then add
// nothing to B, which is the honest share O; if A itself is the
// identity the proof's second equation forces B = O.
//
// What a rejection says: some share of the chunk is wrong, or the proof
// is. It cannot say which share — the fold is the point — so the TS
// attributes a failure to the CP and the chunk, never to an element.

const shareDomain = "psc/chaum-pedersen/share-chunk"

// shareCoefficients derives the chunk's folding coefficients: one
// SHA-256 over the packed chunk for a seed, then λᵢ = the first 128
// bits of SHA-256(seed, i). Every point must already be valid.
func shareCoefficients(pk Point, cs []Ciphertext, shares []DecryptionShare) []*big.Int {
	h := sha256.New()
	h.Write([]byte(shareDomain))
	buf := binary.LittleEndian.AppendUint64(pk.appendUncompressed(make([]byte, 0, 2*uncompressedLen)), uint64(len(cs)))
	h.Write(buf)
	for i := range cs {
		buf = shares[i].Share.appendUncompressed(cs[i].C1.appendUncompressed(buf[:0]))
		h.Write(buf)
	}
	var seed [sha256.Size + 8]byte
	h.Sum(seed[:0])
	out := make([]*big.Int, len(cs))
	for i := range out {
		binary.LittleEndian.PutUint64(seed[sha256.Size:], uint64(i))
		d := sha256.Sum256(seed[:])
		out[i] = new(big.Int).SetBytes(d[:batchLambdaBits/8])
	}
	return out
}

// foldPoints returns Σ λᵢ·point(i): one multi-scalar multiplication
// whose scalars are half width, so half its windows are empty and
// skipped.
func foldPoints(lambdas []*big.Int, point func(i int) Point) (Point, bool) {
	terms := make([]msmTerm, len(lambdas))
	for i, l := range lambdas {
		terms[i] = msmTerm{scalar: l, point: point(i)}
	}
	var sum jacPoint
	if !multiScalarMul(&sum, terms) {
		return Point{}, false
	}
	return sum.toAffine(), true
}

// BatchProveShares proves every share of a chunk correct — shares[i] =
// x·cs[i].C1 for the key's secret x — with one proof (see above). The
// ciphertexts must be valid group elements, as anything ParseCiphertext
// returned is.
func (k *PrivateKey) BatchProveShares(cs []Ciphertext, shares []DecryptionShare) EqualityProof {
	if len(cs) != len(shares) {
		panic("elgamal: BatchProveShares length mismatch")
	}
	a, ok := foldPoints(shareCoefficients(k.PK, cs, shares), func(i int) Point { return cs[i].C1 })
	if !ok {
		panic("elgamal: BatchProveShares on an off-curve ciphertext")
	}
	return ProveDLEQ(shareDomain, Generator(), k.PK, a, a.Mul(k.X), k.X)
}

// VerifySharesBatch checks a CP's proof for one chunk of decryption
// shares against its public key. It returns (-1, true) on acceptance.
// On rejection the index is that of the first malformed input — a
// ciphertext or share that is not a group element — or -1 when every
// input is well formed and the proof does not hold, or the lengths
// differ: a failed fold names no element.
func VerifySharesBatch(pk Point, cs []Ciphertext, shares []DecryptionShare, proof EqualityProof) (int, bool) {
	if len(cs) != len(shares) || !pk.IsValid() {
		return -1, false
	}
	for i := range cs {
		if !cs[i].IsValid() || !shares[i].Share.IsValid() {
			return i, false
		}
	}
	lambdas := shareCoefficients(pk, cs, shares)
	a, okA := foldPoints(lambdas, func(i int) Point { return cs[i].C1 })
	b, okB := foldPoints(lambdas, func(i int) Point { return shares[i].Share })
	return -1, okA && okB && VerifyDLEQ(shareDomain, Generator(), pk, a, b, proof)
}

const possessionDomain = "psc/schnorr/key-possession"

// ProvePossession proves knowledge of the key's secret: a Schnorr proof
// in Chaum–Pedersen clothing, both bases G. Without it a party could
// register a key computed from the others' (pk₃ = x·G − pk₁ − pk₂ makes
// the joint key x·G, its own to decrypt under; x = 0 makes every
// ciphertext a plaintext).
func (k *PrivateKey) ProvePossession() EqualityProof {
	g := Generator()
	return ProveDLEQ(possessionDomain, g, k.PK, g, k.PK, k.X)
}

// VerifyPossession checks a proof of possession for pk. The identity is
// refused outright: its logarithm is known to everyone.
func VerifyPossession(pk Point, pr EqualityProof) bool {
	g := Generator()
	return !pk.IsIdentity() && VerifyDLEQ(possessionDomain, g, pk, g, pk, pr)
}

const blindDomain = "psc/chaum-pedersen/blind"

// ProveBlind proves that out = s·in componentwise, i.e. that out is a
// correct exponent blinding of in.
func ProveBlind(in, out Ciphertext, s *big.Int) EqualityProof {
	return ProveDLEQ(blindDomain, in.C1, out.C1, in.C2, out.C2, s)
}

// VerifyBlind checks an exponent-blinding proof. A blinded C1 at the
// identity is refused whatever the proof says: in a prime-order group it
// means s ≡ 0, a perfectly provable "blinding" that turns the element
// into an encryption of nothing and erases it from the count.
func VerifyBlind(in, out Ciphertext, pr EqualityProof) bool {
	if out.C1.IsIdentity() {
		return false
	}
	return VerifyDLEQ(blindDomain, in.C1, out.C1, in.C2, out.C2, pr)
}

// BitProof is a Cramer–Damgård–Schoenmakers OR-composition proving a
// ciphertext encrypts the identity or the generator — i.e. a valid PSC
// noise bit — without revealing which. Computation parties attach one
// to every noise ciphertext they inject so a malicious party cannot
// bias the count with out-of-range noise.
type BitProof struct {
	Commit0G, Commit0P Point // branch 0 (encrypts identity)
	Commit1G, Commit1P Point // branch 1 (encrypts G)
	Chal0, Chal1       *big.Int
	Resp0, Resp1       *big.Int
}

const bitDomain = "psc/bit-or"

// ProveBit builds the OR-proof for a ciphertext created as
// EncryptWith(pk, bit, r).
func ProveBit(pk Point, c Ciphertext, bit bool, r *big.Int) BitProof {
	// Branch statements: D0 = C2 (plaintext identity), D1 = C2 − G.
	d0 := c.C2
	d1 := c.C2.Sub(Generator())

	var pr BitProof
	t := RandomScalar()
	if !bit {
		// Real branch 0; simulate branch 1.
		pr.Chal1 = RandomScalar()
		pr.Resp1 = RandomScalar()
		pr.Commit1G = BaseMul(pr.Resp1).Sub(c.C1.Mul(pr.Chal1))
		pr.Commit1P = pk.Mul(pr.Resp1).Sub(d1.Mul(pr.Chal1))
		pr.Commit0G = BaseMul(t)
		pr.Commit0P = pk.Mul(t)
	} else {
		// Real branch 1; simulate branch 0.
		pr.Chal0 = RandomScalar()
		pr.Resp0 = RandomScalar()
		pr.Commit0G = BaseMul(pr.Resp0).Sub(c.C1.Mul(pr.Chal0))
		pr.Commit0P = pk.Mul(pr.Resp0).Sub(d0.Mul(pr.Chal0))
		pr.Commit1G = BaseMul(t)
		pr.Commit1P = pk.Mul(t)
	}
	total := bitChallenge(pk, c, pr)
	if !bit {
		pr.Chal0 = new(big.Int).Sub(total, pr.Chal1)
		pr.Chal0.Mod(pr.Chal0, order)
		pr.Resp0 = new(big.Int).Mul(pr.Chal0, r)
		pr.Resp0.Add(pr.Resp0, t).Mod(pr.Resp0, order)
	} else {
		pr.Chal1 = new(big.Int).Sub(total, pr.Chal0)
		pr.Chal1.Mod(pr.Chal1, order)
		pr.Resp1 = new(big.Int).Mul(pr.Chal1, r)
		pr.Resp1.Add(pr.Resp1, t).Mod(pr.Resp1, order)
	}
	return pr
}

// VerifyBit checks that c encrypts 0 or 1 under pk.
func VerifyBit(pk Point, c Ciphertext, pr BitProof) bool {
	if pr.Chal0 == nil || pr.Chal1 == nil || pr.Resp0 == nil || pr.Resp1 == nil {
		return false
	}
	for _, pt := range []Point{pr.Commit0G, pr.Commit0P, pr.Commit1G, pr.Commit1P} {
		if !pt.IsValid() {
			return false
		}
	}
	if !pk.IsValid() || !c.IsValid() {
		return false
	}
	total := bitChallenge(pk, c, pr)
	sum := new(big.Int).Add(pr.Chal0, pr.Chal1)
	sum.Mod(sum, order)
	if sum.Cmp(total) != 0 {
		return false
	}
	d0 := c.C2
	d1 := c.C2.Sub(Generator())
	// Branch 0: z0·G == A0 + c0·C1 and z0·PK == B0 + c0·D0.
	if !BaseMul(pr.Resp0).Equal(pr.Commit0G.Add(c.C1.Mul(pr.Chal0))) {
		return false
	}
	if !pk.Mul(pr.Resp0).Equal(pr.Commit0P.Add(d0.Mul(pr.Chal0))) {
		return false
	}
	// Branch 1: z1·G == A1 + c1·C1 and z1·PK == B1 + c1·D1.
	if !BaseMul(pr.Resp1).Equal(pr.Commit1G.Add(c.C1.Mul(pr.Chal1))) {
		return false
	}
	return pk.Mul(pr.Resp1).Equal(pr.Commit1P.Add(d1.Mul(pr.Chal1)))
}

// bitChallenge hashes the full OR-proof transcript.
func bitChallenge(pk Point, c Ciphertext, pr BitProof) *big.Int {
	return hashToScalar(bitDomain,
		pk.uncompressed(), c.C1.uncompressed(), c.C2.uncompressed(),
		pr.Commit0G.uncompressed(), pr.Commit0P.uncompressed(),
		pr.Commit1G.uncompressed(), pr.Commit1P.uncompressed())
}

// Shuffle permutes and re-randomizes a batch of ciphertexts, returning
// the output batch along with the witness (permutation and randomizers)
// needed to produce a proof. perm maps output index -> input index.
type ShuffleWitness struct {
	Perm []int
	Rand []*big.Int // randomizer applied to the input feeding output i
}

// Shuffle produces out[i] = Rerandomize(in[perm[i]]). The permutation is
// drawn from crypto/rand; the re-randomizations run through the batch
// fixed-base path (shared tables, one inversion per window step).
func Shuffle(pk Point, in []Ciphertext) ([]Ciphertext, ShuffleWitness) {
	perm := randomPerm(len(in))
	rands := RandomScalars(len(in))
	return rerandomizePermuted(pk, in, perm, rands), ShuffleWitness{Perm: perm, Rand: rands}
}

// randomPerm draws a uniform permutation of [0,n) by Fisher–Yates over
// buffered cryptographic randomness.
func randomPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r := randReaders.Get().(*bufio.Reader)
	defer randReaders.Put(r)
	var buf [8]byte
	for i := n - 1; i > 0; i-- {
		// Rejection-sample a uniform index in [0, i].
		bound := uint64(i) + 1
		limit := (^uint64(0) / bound) * bound
		for {
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				panic("elgamal: crypto/rand failed: " + err.Error())
			}
			v := binary.LittleEndian.Uint64(buf[:])
			if v < limit {
				j := int(v % bound)
				p[i], p[j] = p[j], p[i]
				break
			}
		}
	}
	return p
}

func invertPerm(p []int) []int {
	inv := make([]int, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

func isPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// BatchProveBlinds produces the exponent-blinding proofs for a whole
// batch across the worker pool.
func BatchProveBlinds(ins, outs []Ciphertext, ss []*big.Int) []EqualityProof {
	if len(ins) != len(outs) || len(ins) != len(ss) {
		panic("elgamal: BatchProveBlinds length mismatch")
	}
	out := make([]EqualityProof, len(ins))
	parallel.For(len(ins), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = ProveBlind(ins[i], outs[i], ss[i])
		}
	})
	return out
}

// BatchProveBits produces the noise-bit OR-proofs for a whole batch
// across the worker pool. cs and rs must come from BatchEncryptBits
// (or EncryptWith) for the same bits.
func BatchProveBits(pk Point, cs []Ciphertext, bits []bool, rs []*big.Int) []BitProof {
	if len(cs) != len(bits) || len(cs) != len(rs) {
		panic("elgamal: BatchProveBits length mismatch")
	}
	out := make([]BitProof, len(cs))
	parallel.For(len(cs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = ProveBit(pk, cs[i], bits[i], rs[i])
		}
	})
	return out
}
