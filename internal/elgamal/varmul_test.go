package elgamal

// Tests for the variable-base multiplication (varMul): the single
// Point.Mul and the chunked form behind BatchExpBlind, BatchProveBlinds
// and BatchPartialDecrypt agree with crypto/elliptic and with their
// per-element definitions, treat points off the curve as Mul always
// has, allocate only their outputs and share pooled scratch safely; and
// the curve's literal constants are the stdlib's.

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"runtime/debug"
	"sync"
	"testing"
)

// varMulScalars are the scalars every multiplication path must agree on:
// the edges of the range, values at and past the order, a negative one
// and the largest 256-bit value, then random ones.
func varMulScalars() []*big.Int {
	ks := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(order, big.NewInt(1)),
		new(big.Int).Set(order),
		new(big.Int).Add(order, big.NewInt(1)),
		new(big.Int).Lsh(order, 1),
		big.NewInt(-1),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)),
	}
	for range 16 {
		ks = append(ks, RandomScalar())
	}
	return ks
}

// TestVarMulMatchesStdlib: Point.Mul agrees with crypto/elliptic on an
// uncached base (the wNAF chain), a cached one, the generator and the
// identity.
func TestVarMulMatchesStdlib(t *testing.T) {
	cached := stdlibBaseMul(RandomScalar())
	Precompute(cached)
	uncached := stdlibBaseMul(RandomScalar())
	for _, tc := range []struct {
		name string
		base Point
	}{
		{"uncached", uncached},
		{"cached", cached},
		{"generator", Generator()},
		{"identity", Identity()},
	} {
		if got := cachedTable(tc.base) != nil; got != (tc.name == "cached") {
			t.Fatalf("%s base: has a cached table: %v", tc.name, got)
		}
		for _, k := range varMulScalars() {
			if got, want := tc.base.Mul(k), stdlibMul(tc.base, k); got != want {
				t.Errorf("%s base: Mul(%v) disagrees with crypto/elliptic", tc.name, k)
			}
		}
	}
}

// varMulBatch returns n ciphertexts under pk with identity halves mixed
// in: every seventh C1, every fifth C2, and both halves of element 35.
func varMulBatch(pk Point, n int) []Ciphertext {
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = i%2 == 0
	}
	cts, _ := BatchEncryptBits(pk, bits)
	for i := range cts {
		if i%7 == 0 {
			cts[i].C1 = Identity()
		}
		if i%5 == 0 {
			cts[i].C2 = Identity()
		}
	}
	return cts
}

// TestVarMulBatchEntryPoints: the three chunked batch calls equal their
// per-element definitions across chunk boundaries (varMulChunk is 64
// points: 32 blinded ciphertexts or 64 shares), on vectors with identity
// halves.
func TestVarMulBatchEntryPoints(t *testing.T) {
	key := GenerateKey()
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		cts := varMulBatch(key.PK, n)
		blinded, ss := BatchExpBlind(cts)
		if len(blinded) != n || len(ss) != n {
			t.Fatalf("n=%d: BatchExpBlind returned %d ciphertexts and %d scalars", n, len(blinded), len(ss))
		}
		for i := range cts {
			if want := cts[i].ExpBlindWith(ss[i]); blinded[i] != want {
				t.Fatalf("n=%d: BatchExpBlind[%d] differs from ExpBlindWith", n, i)
			}
		}
		proofs := BatchProveBlinds(cts, blinded, ss)
		if len(proofs) != n {
			t.Fatalf("n=%d: BatchProveBlinds returned %d proofs", n, len(proofs))
		}
		for i := range cts {
			// VerifyBlind refuses an identity blinded C1 whatever the
			// proof; the proof itself must still hold.
			if ok := VerifyDLEQ(blindDomain, cts[i].C1, blinded[i].C1, cts[i].C2, blinded[i].C2, proofs[i]); !ok {
				t.Fatalf("n=%d: blind proof %d does not verify", n, i)
			}
			if !cts[i].C1.IsIdentity() && !VerifyBlind(cts[i], blinded[i], proofs[i]) {
				t.Fatalf("n=%d: VerifyBlind rejects blind proof %d", n, i)
			}
		}
		if n > 1 {
			// A proof is bound to its element: a swap fails.
			a, b := 1, n-1
			if VerifyBlind(cts[a], blinded[a], proofs[b]) && proofs[a] != proofs[b] {
				t.Fatalf("n=%d: proof %d verifies for element %d", n, b, a)
			}
		}
		shares := key.BatchPartialDecrypt(cts)
		if len(shares) != n {
			t.Fatalf("n=%d: BatchPartialDecrypt returned %d shares", n, len(shares))
		}
		for i := range cts {
			if want := key.PartialDecrypt(cts[i]); shares[i] != want {
				t.Fatalf("n=%d: BatchPartialDecrypt[%d] differs from PartialDecrypt", n, i)
			}
		}
	}
}

// offCurvePoint returns a non-zero point that is not on the curve: the
// generator with y moved by one.
func offCurvePoint() Point {
	p := Generator()
	feAdd(&p.y, &p.y, &feOneVal)
	return p
}

// TestVarMulOffCurveReceivers: a non-zero point off the curve panics
// under a non-zero scalar and never yields a point, and the zero Point
// — which crypto/elliptic read as infinity — comes back as itself
// without a panic, so a caller holding an unset Point is not made to
// crash. A scalar ≡ 0 returns the identity for either.
func TestVarMulOffCurveReceivers(t *testing.T) {
	var zero Point
	off := offCurvePoint()
	if off.IsValid() || off == zero {
		t.Fatal("offCurvePoint is on the curve or zero")
	}
	for _, k := range varMulScalars() {
		reduced := new(big.Int).Mod(k, order).Sign() == 0
		if got := zero.Mul(k); reduced && got != Identity() || !reduced && got != zero {
			t.Errorf("zero Point times %v gave %+v", k, got)
		}
		if reduced {
			if got := off.Mul(k); got != Identity() {
				t.Errorf("off-curve point times %v gave %+v, want the identity", k, got)
			}
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("off-curve point times %v did not panic", k)
				}
			}()
			got := off.Mul(k)
			t.Errorf("off-curve point times %v returned %+v", k, got)
		}()
	}
	// The batch calls treat a zero half the same way.
	key := GenerateKey()
	cts := []Ciphertext{{C1: zero, C2: Generator()}, {C1: Generator(), C2: zero}}
	for i, sh := range key.BatchPartialDecrypt(cts) {
		if want := key.PartialDecrypt(cts[i]); sh != want {
			t.Errorf("BatchPartialDecrypt[%d] with a zero half gave %+v, want %+v", i, sh, want)
		}
	}
	blinded, ss := BatchExpBlind(cts)
	for i := range cts {
		if want := cts[i].ExpBlindWith(ss[i]); blinded[i] != want {
			t.Errorf("BatchExpBlind[%d] with a zero half gave %+v, want %+v", i, blinded[i], want)
		}
	}
}

// TestVarMulAllocs: an uncached Point.Mul allocates nothing, and a
// 1024-element BatchPartialDecrypt allocates its output and a small
// constant (the output and two closures), nothing per element.
// AllocsPerRun runs at GOMAXPROCS 1, so the batch is one worker's run
// of chunks. The collector is held off while it counts: two
// collections empty a sync.Pool, and a refill would count a dozen
// allocations a call does not make while the pool is warm.
func TestVarMulAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p, k := stdlibBaseMul(RandomScalar()), RandomScalar()
	var sink Point
	if n := testing.AllocsPerRun(20, func() { sink = p.Mul(k) }); n != 0 {
		t.Errorf("an uncached Mul allocates %v times per call", n)
	}
	_ = sink
	key := GenerateKey()
	cts := varMulBatch(key.PK, 1024)
	key.BatchPartialDecrypt(cts) // fill the pools
	if n := testing.AllocsPerRun(5, func() { key.BatchPartialDecrypt(cts) }); n > 3 {
		t.Errorf("BatchPartialDecrypt on %d elements allocates %v times per call, want at most 3", len(cts), n)
	}
}

// TestVarMulConcurrentBatches runs the chunked batch calls from several
// goroutines at once, each on its own key and vector, so pooled chunk
// scratch passes between workers (run it under -race): every result
// must still match its per-element definition.
func TestVarMulConcurrentBatches(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := GenerateKey()
			cts := varMulBatch(key.PK, 150)
			blinded, ss := BatchExpBlind(cts)
			proofs := BatchProveBlinds(cts, blinded, ss)
			shares := key.BatchPartialDecrypt(blinded)
			for i := range cts {
				switch {
				case blinded[i] != cts[i].ExpBlindWith(ss[i]):
					errs <- "a blinding differs from ExpBlindWith"
				case !VerifyDLEQ(blindDomain, cts[i].C1, blinded[i].C1, cts[i].C2, blinded[i].C2, proofs[i]):
					errs <- "a blind proof does not verify"
				case shares[i] != key.PartialDecrypt(blinded[i]):
					errs <- "a share differs from PartialDecrypt"
				default:
					continue
				}
				return
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// hashToScalar is the challenge derivation as the proofs first wrote
// it — SHA-256 over the domain, then each part behind its length as 8
// little-endian bytes, reduced mod n through math/big — kept as the
// reference challenge is held to.
func hashToScalar(domain string, parts ...[]byte) *big.Int {
	h := sha256.New()
	h.Write([]byte(domain))
	for _, p := range parts {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(p))))
		h.Write(p)
	}
	return new(big.Int).Mod(new(big.Int).SetBytes(h.Sum(nil)), order)
}

// TestChallengeMatchesHash: challenge, which every proof derives its
// Fiat–Shamir challenge with, is hashToScalar over the points'
// uncompressed encodings, identities included, for the six-point DLEQ
// and the seven-point bit-proof transcripts.
func TestChallengeMatchesHash(t *testing.T) {
	g, p := Generator(), stdlibBaseMul(RandomScalar())
	for _, tr := range [][]Point{
		{g, p, p, g, p.Add(g), g.Add(g)},
		{Identity(), Identity(), p, g, Identity(), p},
		{p, g, Identity(), p.Add(p), g, p, Identity()},
	} {
		parts := make([][]byte, len(tr))
		for i := range tr {
			parts[i] = tr[i].uncompressed()
		}
		want := hashToScalar(blindDomain, parts...)
		if got := limbsBig(challenge(blindDomain, tr...)); got.Cmp(want) != 0 {
			t.Fatalf("challenge = %v, want %v", got, want)
		}
	}
}

// TestCurveConstantsMatchStdlib: the literal limbs are P-256 as
// crypto/elliptic defines it, and the Montgomery constants fit p and n.
func TestCurveConstantsMatchStdlib(t *testing.T) {
	params := curve.Params()
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	for _, c := range []struct {
		name      string
		got, want *big.Int
	}{
		{"p", limbsBig([4]uint64(p256P)), params.P},
		{"n", order, params.N},
		{"n limbs", limbsBig(orderLimbs), params.N},
		{"b", feBVal.toBig(), params.B},
		{"Gx", generator.x.toBig(), params.Gx},
		{"Gy", generator.y.toBig(), params.Gy},
		{"R mod p", limbsBig([4]uint64(feOneVal)), new(big.Int).Mod(r, params.P)},
		{"R² mod p", limbsBig([4]uint64(feR2)), new(big.Int).Exp(r, big.NewInt(2), params.P)},
		{"R² mod n", limbsBig(scalarRR), new(big.Int).Exp(r, big.NewInt(2), params.N)},
		{"−n⁻¹ mod 2⁶⁴", new(big.Int).SetUint64(scalarN0inv), func() *big.Int {
			m := new(big.Int).Lsh(big.NewInt(1), 64)
			inv := new(big.Int).ModInverse(params.N, m)
			return inv.Sub(m, inv)
		}()},
	} {
		if c.got.Cmp(c.want) != 0 {
			t.Errorf("%s = %x, want %x", c.name, c.got, c.want)
		}
	}
}
