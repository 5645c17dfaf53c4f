package elgamal

// Tests for the affine batch plane (affine.go, fixedTable.accumulate):
// limb-for-limb agreement with the single-element Jacobian path on
// ordinary input, the group-law answer on every exceptional one
// (checked against the affine math/big reference in affine_ref_test.go),
// and a shuffle verifier that meets those cases in a prover's opening.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/big"
	"testing"
)

// seededScalar derives a reproducible scalar from a label and an index.
func seededScalar(label string, i int) *big.Int {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(i))
	h := sha256.Sum256(append([]byte(label), n[:]...))
	k := new(big.Int).SetBytes(h[:])
	return k.Mod(k, order)
}

// accumulateFrom runs accumulate over seed points (nil: all infinity)
// and returns the sums.
func accumulateFrom(tb *fixedTable, seeds []Point, ks []*big.Int) []Point {
	acc := make([]Point, len(ks))
	for i := range acc {
		if seeds == nil {
			acc[i] = Identity()
		} else {
			acc[i] = seeds[i]
		}
	}
	accumulate([]*fixedTable{tb}, acc, scalarLimbsOf(reduceScalars(ks)), newAffineScratch(len(ks)))
	return acc
}

func TestAccumulateMatchesMul(t *testing.T) {
	base := stdlibBaseMul(seededScalar("accumulate base", 0))
	sizes := []int{63, 64, 65, 127, 128, 129, 255, 256, 257, 300}
	for n := 1; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	for _, w := range []uint{8, 12} {
		tb := buildTable(base, w)
		for _, n := range sizes {
			ks := RandomScalars(n)
			got := accumulateFrom(tb, nil, ks)
			jac := make([]jacPoint, n)
			for i, k := range ks {
				tb.mul(&jac[i], k)
			}
			want := batchToAffine(jac)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("width %d, n=%d: accumulate[%d] differs from mul + batchToAffine", w, n, i)
				}
			}
		}
	}
}

// seededBlock is the committed test vector's input: 1024 ciphertexts of
// alternating bits under a seeded key, and 1024 seeded randomizers.
func seededBlock() (pk Point, cts []Ciphertext, rs []*big.Int) {
	const n = 1024
	pk = stdlibBaseMul(seededScalar("vector key", 0))
	cts = make([]Ciphertext, n)
	rs = make([]*big.Int, n)
	for i := range cts {
		msg := Identity()
		if i%2 == 0 {
			msg = Generator()
		}
		cts[i] = EncryptWith(pk, msg, seededScalar("vector encrypt", i))
		rs[i] = seededScalar("vector rerandomize", i)
	}
	return pk, cts, rs
}

// seededBlockDigest is HashBlock of the seeded block re-randomized, as
// computed by the Jacobian batch loop this plane replaced (commit
// a7cdc84): an affine point has one representation, so the plane must
// reproduce every output bit.
const seededBlockDigest = "0678b03855df63b7f8c0b1a3e731fb85cac0f646de40955b3221f3e8883ebe57"

func TestBatchRerandomizeBlockVector(t *testing.T) {
	pk, cts, rs := seededBlock()
	got := BatchRerandomizeWith(pk, cts, rs)
	for i := range cts {
		if want := cts[i].RerandomizeWith(pk, rs[i]); !want.Equal(got[i]) {
			t.Fatalf("BatchRerandomizeWith[%d] disagrees with RerandomizeWith", i)
		}
	}
	digest := HashBlock(got)
	if hex.EncodeToString(digest[:]) != seededBlockDigest {
		t.Fatalf("re-randomized block hashes to %x, want %s", digest, seededBlockDigest)
	}
}

// refAccumulate is the reference answer seed + k·base.
func refAccumulate(seed, base Point, k *big.Int) Point {
	return refAffineAdd(seed, refAffineMul(base, k))
}

func TestAccumulateExceptionalCases(t *testing.T) {
	base := stdlibBaseMul(seededScalar("exceptional base", 0))
	one := big.NewInt(1)
	for _, w := range []uint{8, 12} {
		tb := buildTable(base, w)
		entry := func(j int, d uint64) Point { return tb.windows[j][d-1] }
		lowZero := new(big.Int).Lsh(big.NewInt(0x5a5), 3*w) // windows 0..2 empty
		ordinary := func(i int) (Point, *big.Int) {
			return stdlibBaseMul(seededScalar("ordinary seed", i)), seededScalar("ordinary scalar", i)
		}

		var seeds []Point
		var ks []*big.Int
		add := func(seed Point, k *big.Int) {
			seeds = append(seeds, seed)
			ks = append(ks, k)
		}
		// Element 0 and element 4 both meet equal x at step 0 (a
		// doubling and a cancellation), with ordinary elements between
		// and after them: the shared product must not notice.
		add(entry(0, 5), big.NewInt(5+7<<w)) // acc = T₀[5]: doubles, then goes on
		add(ordinary(1))
		add(ordinary(2))
		add(ordinary(3))
		add(entry(0, 9).Neg(), big.NewInt(9+3<<w)) // acc = −T₀[9]: cancels, then goes on
		add(ordinary(5))
		add(entry(0, 5), big.NewInt(5))                    // doubling at the only step
		add(entry(0, 9).Neg(), big.NewInt(9))              // ends at infinity
		add(entry(1, 3), big.NewInt(3<<w))                 // zero digit first, doubling at step 1
		add(entry(0, 1<<(w-1)), big.NewInt(1<<(w-1)+1<<w)) // doubles at step 0 into 2^w·B, which doubles again at step 1
		add(stdlibBaseMul(big.NewInt(77)), lowZero)
		add(Identity(), lowZero)
		add(Identity(), big.NewInt(0))
		add(stdlibBaseMul(big.NewInt(78)), big.NewInt(0))
		add(Identity(), one)
		add(base, one) // doubling from the base itself
		add(Identity(), new(big.Int).Sub(order, one))
		add(base, new(big.Int).Sub(order, one))                          // base − base = infinity at the last step
		add(stdlibBaseMul(big.NewInt(79)), new(big.Int).Sub(order, one)) // ordinary seed, top scalar
		add(Identity(), seededScalar("identity seed", 0))

		got := accumulateFrom(tb, seeds, ks)
		for i := range got {
			if want := refAccumulate(seeds[i], base, ks[i]); !got[i].Equal(want) {
				t.Errorf("width %d: element %d (k=%v): got %v, want %v", w, i, ks[i], got[i], want)
			}
		}

		// A chunk of one exceptional element, and an empty chunk.
		single := accumulateFrom(tb, seeds[:1], ks[:1])
		if want := refAccumulate(seeds[0], base, ks[0]); !single[0].Equal(want) {
			t.Errorf("width %d: one-element chunk: got %v, want %v", w, single[0], want)
		}
		if empty := accumulateFrom(tb, nil, nil); len(empty) != 0 {
			t.Errorf("width %d: empty chunk returned %d points", w, len(empty))
		}
	}
}

// TestBatchOpsExceptionalCases drives the same cases through the public
// entry points, whose chunks are where the plane actually runs.
func TestBatchOpsExceptionalCases(t *testing.T) {
	key := &PrivateKey{X: seededScalar("exceptional key", 0)}
	key.PK = stdlibBaseMul(key.X)
	Precompute(key.PK)
	g := Generator()
	mulG := func(m int64) Point { return stdlibBaseMul(big.NewInt(m)) }
	mulPK := func(m int64) Point { return stdlibMul(key.PK, big.NewInt(m)) }
	top := new(big.Int).Sub(order, big.NewInt(9))

	cs := []Ciphertext{
		{C1: mulG(5), C2: mulPK(5)},             // both halves double at step 0
		{C1: mulG(3), C2: g},                    // ordinary
		{C1: mulG(9), C2: mulPK(9)},             // r = order − 9: both halves end at infinity
		{C1: Identity(), C2: Identity()},        // trivial ciphertext of the identity
		{C1: mulG(5).Neg(), C2: mulPK(5).Neg()}, // both halves cancel at step 0
		{C1: mulG(11), C2: mulPK(4)},            // r = 0
	}
	rs := []*big.Int{big.NewInt(5 + 1<<20), seededScalar("r", 1), top, seededScalar("r", 3), big.NewInt(5 + 1<<20), big.NewInt(0)}
	got := BatchRerandomizeWith(key.PK, cs, rs)
	for i := range cs {
		want := Ciphertext{C1: refAccumulate(cs[i].C1, g, rs[i]), C2: refAccumulate(cs[i].C2, key.PK, rs[i])}
		if !got[i].Equal(want) {
			t.Errorf("BatchRerandomizeWith[%d] wrong on an exceptional element", i)
		}
	}
	if !got[2].C1.IsIdentity() || !got[2].C2.IsIdentity() {
		t.Error("element 2 should re-randomize to the identity pair")
	}

	// A joint key that is the identity (party keys that cancel) still
	// gets a table — of points at infinity — once a batch is large.
	many := make([]Ciphertext, batchMulTableThreshold+6)
	manyRs := make([]*big.Int, len(many))
	for i := range many {
		many[i], manyRs[i] = cs[i%len(cs)], seededScalar("identity key", i)
	}
	for i, c := range BatchRerandomizeWith(Identity(), many, manyRs) {
		if want := many[i].RerandomizeWith(Identity(), manyRs[i]); !c.Equal(want) {
			t.Errorf("BatchRerandomizeWith under the identity key [%d] wrong", i)
		}
	}

	ks := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(order, big.NewInt(1)), new(big.Int).Set(order), new(big.Int).Lsh(big.NewInt(3), 200)}
	for i, p := range BatchMul(key.PK, ks) {
		if want := refAffineMul(key.PK, ks[i]); !p.Equal(want) {
			t.Errorf("BatchMul[%d] wrong", i)
		}
	}
	for i, p := range BatchBaseMul(ks) {
		if want := refAffineBaseMul(ks[i]); !p.Equal(want) {
			t.Errorf("BatchBaseMul[%d] wrong", i)
		}
	}

	// Element-wise sums: doublings and cancellations in both halves
	// beside ordinary pairs, and a share vector that cancels C2.
	as := []Ciphertext{cs[0], cs[1], cs[0], cs[3], cs[1]}
	bs := []Ciphertext{cs[0], cs[2], cs[4], cs[1], cs[3]}
	for i, sum := range BatchAddCiphertexts(as, bs) {
		want := Ciphertext{C1: refAffineAdd(as[i].C1, bs[i].C1), C2: refAffineAdd(as[i].C2, bs[i].C2)}
		if !sum.Equal(want) {
			t.Errorf("BatchAddCiphertexts[%d] wrong", i)
		}
	}
	shares := [][]DecryptionShare{
		{{Share: mulPK(5)}, {Share: g.Neg()}, {Share: mulG(2)}, {Share: Identity()}, {Share: mulPK(5)}, {Share: mulPK(2)}},
		{{Share: Identity()}, {Share: g.Neg()}, {Share: mulG(2)}, {Share: mulG(1)}, {Share: mulPK(5).Neg()}, {Share: mulPK(2)}},
	}
	for i, m := range RecoverBatch(cs, shares) {
		want := cs[i].C2
		for _, sv := range shares {
			want = refAffineAdd(want, sv[i].Share.Neg())
		}
		if !m.Equal(want) {
			t.Errorf("RecoverBatch[%d] wrong", i)
		}
	}
}

// TestVerifyShuffleBlockHostileOpening hands the verifier a proof whose
// shadows a prover chose so that recomputing them — forward from the
// input block or backward from the output block — runs through a
// doubling at the first window step of both tables, or lands on the
// identity pair. Such shadows are legitimate re-randomizations, so the
// proof is valid and must verify; changing one opened scalar to another
// exceptional value must be rejected. Both verdicts are what the
// Jacobian batch loop gave (this test passes unchanged at commit
// a7cdc84).
func TestVerifyShuffleBlockHostileOpening(t *testing.T) {
	const n, rounds = 8, 16
	key := &PrivateKey{X: seededScalar("hostile key", 0)}
	key.PK = stdlibBaseMul(key.X)
	Precompute(key.PK) // so an 8-element block goes through the tables

	// Every ciphertext half is a known small multiple of its table's
	// base, positive at even indices and negative at odd ones:
	// in[i] = ±aᵢ·(G, pk), out[i] = in[perm[i]] + wᵢ·(G, pk).
	a := func(i int) int64 { return int64(i + 2) }
	m := func(i int) int64 { return a(i) * int64(1-2*(i%2)) }
	in := make([]Ciphertext, n)
	for i := range in {
		r := big.NewInt(m(i))
		in[i] = EncryptWith(key.PK, Identity(), r.Mod(r, order))
	}
	w := ShuffleWitness{Perm: []int{3, 0, 7, 1, 6, 2, 5, 4}, Rand: make([]*big.Int, n)}
	out := make([]Ciphertext, n)
	for i, j := range w.Perm {
		w.Rand[i] = big.NewInt(int64(20 + i))
		out[i] = in[j].RerandomizeWith(key.PK, w.Rand[i])
	}
	outOf := invertPerm(w.Perm) // input index -> output index
	if e := baseTable().windows[0][a(2)-1]; !e.Equal(in[2].C1) {
		t.Fatal("test premise broken: in[2].C1 is not a first-window table entry")
	}

	// Shadow r re-randomizes in[perm[i]] by a scalar picked per element:
	// its first window is a, the table entry equal or opposite to the
	// accumulator (forward doubling at even sources; at odd ones a
	// cancellation, after which the sum restarts from infinity); it is
	// −m, so the shadow is the identity pair whichever side rebuilds
	// it; its difference from the witness scalar has the output's
	// multiple as first window (backward doubling); or it is ordinary.
	high := func(r, i int) *big.Int {
		h := seededScalar("hostile high bits", r*n+i)
		return h.Lsh(h.Rsh(h, 16), 12) // multiple of 2¹², below the order
	}
	openings := make([]BlockOpening, rounds)
	commits := make([][32]byte, rounds)
	for r := range openings {
		o := BlockOpening{Perm: make([]int, n), Rand: make([]*big.Int, n)}
		shadow := make([]Ciphertext, n)
		for i := range o.Perm {
			src := (i*3 + r/2) % n
			o.Perm[i] = src
			wi := w.Rand[outOf[src]].Int64()
			switch (i + r) % 4 {
			case 0:
				o.Rand[i] = new(big.Int).Add(high(r, i), big.NewInt(a(src)))
			case 1:
				o.Rand[i] = new(big.Int).Mod(big.NewInt(-m(src)), order)
			case 2:
				o.Rand[i] = new(big.Int).Add(high(r, i), big.NewInt(m(src)+2*wi))
			default:
				o.Rand[i] = seededScalar("hostile ordinary", r*n+i)
			}
			shadow[i] = in[src].RerandomizeWith(key.PK, o.Rand[i])
		}
		openings[r], commits[r] = o, HashBlock(shadow)
	}
	transcript := func() *ShuffleTranscript { return NewShuffleTranscript(key.PK, n, n, 1, rounds) }
	bits, err := transcript().BlockChallenges(1, 0, HashBlock(in), HashBlock(out), commits, rounds)
	if err != nil {
		t.Fatal(err)
	}
	roundOf := [2]int{-1, -1}
	for r, b := range bits {
		roundOf[b] = r
		if b == 0 {
			continue
		}
		// Open shadow -> output, as ProveShuffleBlock does.
		o, invShadow := openings[r], invertPerm(openings[r].Perm)
		open := BlockOpening{Perm: make([]int, n), Rand: make([]*big.Int, n)}
		for i := range open.Perm {
			idx := invShadow[w.Perm[i]]
			open.Perm[i] = idx
			d := new(big.Int).Sub(w.Rand[i], o.Rand[idx])
			open.Rand[i] = d.Mod(d, order)
		}
		openings[r] = open
	}
	if roundOf[0] < 0 || roundOf[1] < 0 {
		t.Fatal("test premise broken: the seeded challenge opened only one side")
	}
	proof := BlockShuffleProof{Commits: commits, Openings: openings}
	if err := VerifyShuffleBlock(transcript(), 1, 0, key.PK, in, out, proof); err != nil {
		t.Fatalf("valid proof with exceptional shadows rejected: %v", err)
	}

	// One opened scalar swapped for another exceptional one, on a round
	// of each side: the recomputed shadow misses its commitment.
	for side, r := range roundOf {
		bad := cloneBlockProof(proof)
		for i, s := range bad.Openings[r].Rand {
			if s.BitLen() > 250 && s.Cmp(new(big.Int).Sub(order, big.NewInt(64))) < 0 { // an ordinary or doubling scalar
				bad.Openings[r].Rand[i] = new(big.Int).Sub(order, big.NewInt(a(i)))
				break
			}
		}
		if err := VerifyShuffleBlock(transcript(), 1, 0, key.PK, in, out, bad); !errors.Is(err, ErrBadBlockShuffle) {
			t.Fatalf("side %d: tampered exceptional opening: got %v, want ErrBadBlockShuffle", side, err)
		}
	}
}
