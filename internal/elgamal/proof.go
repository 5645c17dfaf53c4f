package elgamal

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math/big"

	"repro/internal/parallel"
)

// This file implements the zero-knowledge arguments PSC needs from its
// computation parties that are per-element sigma protocols —
// Chaum–Pedersen proofs that a decryption share (or an exponent
// blinding) used the claimed secret, and the OR-proof that a noise
// ciphertext encrypts a bit — made non-interactive with the
// Fiat–Shamir transform over SHA-256 transcripts, plus the shuffle
// primitive itself (Shuffle and its witness). The argument that an
// output block is a permuted re-randomization of an input block lives
// in blockshuffle.go.

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
// uses it twice — to prove decryption shares correct (B1=G, P1=pk,
// B2=C1, P2=share) and to prove exponent blinding correct (B1=C1,
// P1=C1', B2=C2, P2=C2').
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
		b1.Bytes(), p1.Bytes(), b2.Bytes(), p2.Bytes(), t1.Bytes(), t2.Bytes())
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
		b1.Bytes(), p1.Bytes(), b2.Bytes(), p2.Bytes(),
		pr.Commit1.Bytes(), pr.Commit2.Bytes())
	if !b1.Mul(pr.Response).Equal(pr.Commit1.Add(p1.Mul(ch))) {
		return false
	}
	return b2.Mul(pr.Response).Equal(pr.Commit2.Add(p2.Mul(ch)))
}

const shareDomain = "psc/chaum-pedersen/share"

// ProveShare proves that share = x·c.C1 for the key's secret x.
func (k *PrivateKey) ProveShare(c Ciphertext, share DecryptionShare) EqualityProof {
	return ProveDLEQ(shareDomain, Generator(), k.PK, c.C1, share.Share, k.X)
}

// VerifyShare checks a share proof against the prover's public key.
func VerifyShare(pk Point, c Ciphertext, share DecryptionShare, pr EqualityProof) bool {
	if !c.IsValid() {
		return false
	}
	return VerifyDLEQ(shareDomain, Generator(), pk, c.C1, share.Share, pr)
}

const blindDomain = "psc/chaum-pedersen/blind"

// ProveBlind proves that out = s·in componentwise, i.e. that out is a
// correct exponent blinding of in.
func ProveBlind(in, out Ciphertext, s *big.Int) EqualityProof {
	return ProveDLEQ(blindDomain, in.C1, out.C1, in.C2, out.C2, s)
}

// VerifyBlind checks an exponent-blinding proof.
func VerifyBlind(in, out Ciphertext, pr EqualityProof) bool {
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
		pk.Bytes(), c.C1.Bytes(), c.C2.Bytes(),
		pr.Commit0G.Bytes(), pr.Commit0P.Bytes(),
		pr.Commit1G.Bytes(), pr.Commit1P.Bytes())
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
	return BatchRerandomizeWith(pk, permute(in, perm), rands), ShuffleWitness{Perm: perm, Rand: rands}
}

// permute gathers in[perm[i]] into a fresh slice.
func permute(in []Ciphertext, perm []int) []Ciphertext {
	out := make([]Ciphertext, len(perm))
	for i, j := range perm {
		out[i] = in[j]
	}
	return out
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

// BatchProveShares produces the share-correctness proofs for a whole
// batch across the worker pool.
func (k *PrivateKey) BatchProveShares(cs []Ciphertext, shares []DecryptionShare) []EqualityProof {
	out := make([]EqualityProof, len(cs))
	parallel.For(len(cs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = k.ProveShare(cs[i], shares[i])
		}
	})
	return out
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
