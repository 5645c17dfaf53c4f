package elgamal

// Tests for what the block shuffle argument and the batch verifier keep
// in pools (shadowScratch, msmScratch): a buffer a failed call handed
// back serves the next call correctly, concurrent calls never share
// one, nothing pooled holds a pointer or a secret, and a block's
// argument stays within a fixed allocation count. The 4-limb scalar
// helpers the openings run on are checked against math/big.

import (
	"bufio"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
)

// TestScalarLimbHelpers checks scalarFromWire, putScalar, scalarSub and
// scalarNeg against math/big on the edges of the scalar range and on
// random values.
func TestScalarLimbHelpers(t *testing.T) {
	two256 := new(big.Int).Lsh(big.NewInt(1), 256)
	edges := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(order, big.NewInt(1)), new(big.Int).Set(order),
		new(big.Int).Add(order, big.NewInt(1)), new(big.Int).Sub(two256, big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), 255), new(big.Int).Lsh(big.NewInt(1), 64),
	}
	for i := 0; i < 64; i++ {
		k, err := rand.Int(rand.Reader, two256)
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, k)
	}
	var buf [scalarLen]byte
	var inRange []*big.Int
	for _, v := range edges {
		v.FillBytes(buf[:])
		l, ok := scalarFromWire(buf[:])
		if want := v.Cmp(order) < 0; ok != want {
			t.Fatalf("scalarFromWire(%x) in range = %v, want %v", v, ok, want)
		}
		if got := limbsBig(l); got.Cmp(v) != 0 {
			t.Fatalf("scalarFromWire(%x) = %x", v, got)
		}
		var back [scalarLen]byte
		putScalar(back[:], &l)
		if back != buf {
			t.Fatalf("putScalar(scalarFromWire(%x)) = %x", buf, back)
		}
		if ok {
			inRange = append(inRange, v)
		}
	}
	for _, a := range inRange {
		la := scalarLimbs(a)
		want := new(big.Int).Sub(order, a)
		if got := limbsBig(scalarNeg(la)); got.Cmp(want.Mod(want, order)) != 0 {
			t.Fatalf("scalarNeg(%x) = %x, want %x", a, got, want)
		}
		for _, b := range inRange {
			want := new(big.Int).Sub(a, b)
			if got := limbsBig(scalarSub(la, scalarLimbs(b))); got.Cmp(want.Mod(want, order)) != 0 {
				t.Fatalf("scalarSub(%x, %x) = %x, want %x", a, b, got, want)
			}
		}
	}
}

// limbsBig converts scalar limbs back to a big.Int.
func limbsBig(l [4]uint64) *big.Int {
	var b [scalarLen]byte
	putScalar(b[:], &l)
	return new(big.Int).SetBytes(b[:])
}

// TestDrawScalarsInRange: every drawn wire scalar lies in [1, n−1].
func TestDrawScalarsInRange(t *testing.T) {
	r := randReaders.Get().(*bufio.Reader)
	defer randReaders.Put(r)
	buf := make([]byte, scalarLen*256)
	drawScalars(r, buf)
	for i := 0; i < 256; i++ {
		if l, ok := scalarFromWire(buf[scalarLen*i:]); !ok || l == [4]uint64{} {
			t.Fatalf("drawn scalar %d = %x outside [1, n-1]", i, buf[scalarLen*i:scalarLen*(i+1)])
		}
	}
}

// shuffleCase is one proven block with the transcripts to check it.
type shuffleCase struct {
	pk      Point
	in, out []Ciphertext
	proof   BlockShuffleProof
	n       int
	rounds  int
}

func newShuffleCase(t testing.TB, pk Point, n, rounds int) shuffleCase {
	t.Helper()
	in := encryptBlock(pk, n)
	out, w := Shuffle(pk, in)
	proof, err := ProveShuffleBlock(NewShuffleTranscript(pk, n, n, 1, rounds), 1, 0, pk, in, out, w, rounds)
	if err != nil {
		t.Fatal(err)
	}
	return shuffleCase{pk: pk, in: in, out: out, proof: proof, n: n, rounds: rounds}
}

func (c shuffleCase) verify(p BlockShuffleProof) error {
	return VerifyShuffleBlock(NewShuffleTranscript(c.pk, c.n, c.n, 1, c.rounds), 1, 0, c.pk, c.in, c.out, p)
}

// TestShufflePoolsAfterFailedVerify: verifications that stop part-way —
// a bad scalar, a bad permutation or a wrong shadow in the last round,
// after the earlier rounds rebuilt their shadows in the pooled buffer,
// and a batch proof check rejected before its combination is
// evaluated — hand their scratch back, and an honest verification of
// another size that picks it up still passes.
func TestShufflePoolsAfterFailedVerify(t *testing.T) {
	key := GenerateKey()
	Precompute(key.PK)
	const rounds = 8
	large := newShuffleCase(t, key.PK, 1024, rounds)
	small := newShuffleCase(t, key.PK, 96, rounds)
	last := rounds - 1
	tampers := []struct {
		name string
		do   func(p *BlockShuffleProof)
	}{
		{"scalar at the order", func(p *BlockShuffleProof) { setScalarAt(p.Openings[last].Rand, 17, order) }},
		{"repeated index", func(p *BlockShuffleProof) { p.Openings[last].Perm[5] = p.Openings[last].Perm[6] }},
		{"shadow", func(p *BlockShuffleProof) { p.Openings[last].Rand[scalarLen*3+31] ^= 1 }},
	}
	for _, tc := range tampers {
		for _, c := range []shuffleCase{large, small} {
			bad := cloneBlockProof(c.proof)
			tc.do(&bad)
			if err := c.verify(bad); !errors.Is(err, ErrBadBlockShuffle) {
				t.Fatalf("n=%d, tampered %s: got %v, want ErrBadBlockShuffle", c.n, tc.name, err)
			}
			for _, honest := range []shuffleCase{small, large} {
				if err := honest.verify(honest.proof); err != nil {
					t.Fatalf("n=%d after a failed n=%d verification (%s): honest proof rejected: %v", honest.n, c.n, tc.name, err)
				}
			}
		}
	}

	// The batch verifiers: a blinding rejected while folding, and one
	// rejected by its combination, then honest batches of two sizes
	// (the MSM's Strauss and Pippenger paths).
	for _, n := range []int{8, 300} {
		in := encryptBlock(key.PK, n)
		outs, ss := BatchExpBlind(in)
		proofs := BatchProveBlinds(in, outs, ss)
		badOuts := append([]Ciphertext(nil), outs...)
		badOuts[n/2] = Ciphertext{C1: Identity(), C2: badOuts[n/2].C2}
		if i, ok := VerifyBlindsBatch(in, badOuts, proofs); ok || i != n/2 {
			t.Fatalf("n=%d: identity blinding accepted (%d, %v)", n, i, ok)
		}
		badOuts[n/2] = outs[n/2-1]
		if i, ok := VerifyBlindsBatch(in, badOuts, proofs); ok || i != n/2-1 && i != n/2 {
			t.Fatalf("n=%d: swapped blinding accepted (%d, %v)", n, i, ok)
		}
		for _, m := range []int{300, 8} {
			in := encryptBlock(key.PK, m)
			outs, ss := BatchExpBlind(in)
			if i, ok := VerifyBlindsBatch(in, outs, BatchProveBlinds(in, outs, ss)); !ok {
				t.Fatalf("n=%d after a failed n=%d batch: honest blinding %d rejected", m, n, i)
			}
		}
	}

	// Nothing pooled pins a caller's scalar or keeps a drawn randomizer.
	s := getMSMScratch()
	defer s.put()
	for i, term := range s.terms[:cap(s.terms)] {
		if term.scalar != nil {
			t.Fatalf("pooled MSM scratch still holds term %d's scalar", i)
		}
	}
	sh := getShadowScratch(0)
	defer sh.put()
	for _, b := range sh.rand[:cap(sh.rand)] {
		if b != 0 {
			t.Fatal("pooled shadow scratch still holds randomizer bytes")
		}
	}
}

// TestShuffleConcurrentProveVerify proves and verifies blocks of several
// sizes from many goroutines at once; under -race it is what would show
// a shadow or MSM scratch shared between two calls.
func TestShuffleConcurrentProveVerify(t *testing.T) {
	key := GenerateKey()
	Precompute(key.PK)
	sizes := []int{64, 200, 1024}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(sizes))
	for g := 0; g < 2*len(sizes); g++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				c := newShuffleCase(t, key.PK, n, 4)
				if err := c.verify(c.proof); err != nil {
					errs <- fmt.Errorf("n=%d: honest proof rejected: %w", n, err)
					return
				}
				in := encryptBlock(key.PK, n)
				outs, ss := BatchExpBlind(in)
				if j, ok := VerifyBlindsBatch(in, outs, BatchProveBlinds(in, outs, ss)); !ok {
					errs <- fmt.Errorf("n=%d: honest blinding %d rejected", n, j)
					return
				}
			}
		}(sizes[g%len(sizes)])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShuffleBlockAllocs bounds one 1024-element, 8-round block
// argument's allocations per round: what is left is the proof itself
// (on the prover, each round's permutation and scalars) and a few small
// objects (the hash state, the batch's chunk closure and table list),
// and nothing per element: the prover makes 44 and the verifier 18. A
// shadow allocated per round again costs one more per round, past
// either bound; scalars that became big.Ints again cost thousands.
// AllocsPerRun runs at GOMAXPROCS 1, so a re-randomization is one
// chunk.
func TestShuffleBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	key := GenerateKey()
	Precompute(key.PK)
	const n, rounds = 1024, 8
	in := encryptBlock(key.PK, n)
	out, w := Shuffle(key.PK, in)
	var proof BlockShuffleProof
	prove := func() {
		var err error
		if proof, err = ProveShuffleBlock(NewShuffleTranscript(key.PK, n, n, 1, rounds), 1, 0, key.PK, in, out, w, rounds); err != nil {
			t.Fatal(err)
		}
	}
	verify := func() {
		if err := VerifyShuffleBlock(NewShuffleTranscript(key.PK, n, n, 1, rounds), 1, 0, key.PK, in, out, proof); err != nil {
			t.Fatal(err)
		}
	}
	prove()
	verify() // fill the pools
	if allocs := testing.AllocsPerRun(5, prove); allocs > 6*rounds {
		t.Errorf("ProveShuffleBlock on %d elements and %d rounds allocates %.0f times, want at most %d", n, rounds, allocs, 6*rounds)
	}
	if allocs := testing.AllocsPerRun(5, verify); allocs > 3*rounds {
		t.Errorf("VerifyShuffleBlock on %d elements and %d rounds allocates %.0f times, want at most %d", n, rounds, allocs, 3*rounds)
	}
}
