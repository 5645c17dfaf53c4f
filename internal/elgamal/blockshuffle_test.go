package elgamal

import (
	"errors"
	"math/big"
	"testing"
)

func encryptBlock(pk Point, n int) []Ciphertext {
	out := make([]Ciphertext, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = Encrypt(pk, Generator())
		} else {
			out[i] = Encrypt(pk, Identity())
		}
	}
	return out
}

func TestBlockShuffleRoundTrip(t *testing.T) {
	key := GenerateKey()
	for _, n := range []int{1, 2, 7, 32} {
		in := encryptBlock(key.PK, n)
		prover := NewShuffleTranscript(key.PK, n, n, 1, 4)
		verifier := NewShuffleTranscript(key.PK, n, n, 1, 4)
		out, w := Shuffle(key.PK, in)
		proof, err := ProveShuffleBlock(prover, 1, 0, key.PK, in, out, w, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyShuffleBlock(verifier, 1, 0, key.PK, in, out, proof); err != nil {
			t.Fatalf("n=%d: honest proof rejected: %v", n, err)
		}
	}
}

func TestBlockShuffleTranscriptBindsPosition(t *testing.T) {
	key := GenerateKey()
	const rounds = 16
	in := encryptBlock(key.PK, 8)
	out, w := Shuffle(key.PK, in)
	prover := NewShuffleTranscript(key.PK, 8, 8, 1, rounds)
	proof, err := ProveShuffleBlock(prover, 1, 0, key.PK, in, out, w, rounds)
	if err != nil {
		t.Fatal(err)
	}
	// A verifier deriving the challenge for a different block position,
	// or from a transcript over different stage parameters, must
	// reject: the challenge bits no longer match the openings (they
	// coincide with probability 2^-16 here).
	verifier := NewShuffleTranscript(key.PK, 8, 8, 1, rounds)
	if VerifyShuffleBlock(verifier, 1, 1, key.PK, in, out, proof) == nil {
		t.Fatal("proof verified under a different block position")
	}
	verifier = NewShuffleTranscript(key.PK, 8, 8, 2, rounds)
	if VerifyShuffleBlock(verifier, 1, 0, key.PK, in, out, proof) == nil {
		t.Fatal("proof verified under different stage parameters")
	}
}

// cloneBlockProof deep-copies a proof so a test can tamper with one
// field and leave the original intact.
func cloneBlockProof(p BlockShuffleProof) BlockShuffleProof {
	c := BlockShuffleProof{Commits: append([][32]byte(nil), p.Commits...), Openings: make([]BlockOpening, len(p.Openings))}
	for r, o := range p.Openings {
		c.Openings[r].Perm = append([]int(nil), o.Perm...)
		c.Openings[r].Rand = make([]*big.Int, len(o.Rand))
		for i, s := range o.Rand {
			c.Openings[r].Rand[i] = new(big.Int).Set(s)
		}
	}
	return c
}

// TestBlockShuffleCommitmentBinding checks the binding between a
// round's opening and the commitment the verifier already holds, now
// that no shadow travels to be compared: on a round of each challenge
// value, flipping one commitment byte, changing one opening scalar, or
// swapping two permutation entries makes the recomputed shadow miss its
// commitment, and the block is rejected.
func TestBlockShuffleCommitmentBinding(t *testing.T) {
	key := GenerateKey()
	const n, rounds = 8, 8
	in := encryptBlock(key.PK, n)
	out, w := Shuffle(key.PK, in)

	// Prove until the challenge holds both bit values (all-equal bits
	// have probability 2^-7 per attempt), replaying the derivation on a
	// transcript copy to learn which round opened which side.
	var proof BlockShuffleProof
	roundOf := [2]int{-1, -1}
	for roundOf[0] < 0 || roundOf[1] < 0 {
		var err error
		if proof, err = ProveShuffleBlock(NewShuffleTranscript(key.PK, n, n, 1, rounds), 1, 0, key.PK, in, out, w, rounds); err != nil {
			t.Fatal(err)
		}
		bits, err := NewShuffleTranscript(key.PK, n, n, 1, rounds).BlockChallenges(1, 0, HashBlock(in), HashBlock(out), proof.Commits, rounds)
		if err != nil {
			t.Fatal(err)
		}
		roundOf = [2]int{-1, -1}
		for r, b := range bits {
			roundOf[b] = r
		}
	}
	verify := func(p BlockShuffleProof) error {
		return VerifyShuffleBlock(NewShuffleTranscript(key.PK, n, n, 1, rounds), 1, 0, key.PK, in, out, p)
	}
	if err := verify(proof); err != nil {
		t.Fatalf("honest proof rejected: %v", err)
	}

	tampers := []struct {
		name string
		do   func(p *BlockShuffleProof, r int)
	}{
		{"commitment byte", func(p *BlockShuffleProof, r int) { p.Commits[r][5] ^= 1 }},
		{"opening scalar", func(p *BlockShuffleProof, r int) {
			s := p.Openings[r].Rand[3]
			s.Add(s, big.NewInt(1)).Mod(s, order)
		}},
		{"permutation entries", func(p *BlockShuffleProof, r int) {
			perm := p.Openings[r].Perm
			perm[1], perm[6] = perm[6], perm[1]
		}},
	}
	for bit, r := range roundOf {
		for _, tc := range tampers {
			bad := cloneBlockProof(proof)
			tc.do(&bad, r)
			if err := verify(bad); !errors.Is(err, ErrBadBlockShuffle) {
				t.Errorf("challenge-%d round %d with tampered %s: got %v, want ErrBadBlockShuffle", bit, r, tc.name, err)
			}
		}
	}
	if err := verify(proof); err != nil {
		t.Fatalf("tampering leaked into the original proof: %v", err)
	}
}

// TestShuffleProofHonest runs an honest prover and verifier in lockstep
// over consecutive blocks of one stage transcript, each block spanning
// a mixed-plaintext batch.
func TestShuffleProofHonest(t *testing.T) {
	k := GenerateKey()
	const rounds = 8
	prover := NewShuffleTranscript(k.PK, 10, 5, 1, rounds)
	verifier := NewShuffleTranscript(k.PK, 10, 5, 1, rounds)
	for b := 0; b < 2; b++ {
		in := makeBatch(k.PK, []bool{true, false, true, false, false})
		out, w := Shuffle(k.PK, in)
		proof, err := ProveShuffleBlock(prover, 1, b, k.PK, in, out, w, rounds)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyShuffleBlock(verifier, 1, b, k.PK, in, out, proof); err != nil {
			t.Fatalf("block %d: honest shuffle proof rejected: %v", b, err)
		}
	}
}

func TestShuffleProofCatchesTampering(t *testing.T) {
	k := GenerateKey()
	const rounds = 16
	in := makeBatch(k.PK, []bool{true, false, true, false})
	out, w := Shuffle(k.PK, in)
	proof, err := ProveShuffleBlock(NewShuffleTranscript(k.PK, 4, 4, 1, rounds), 1, 0, k.PK, in, out, w, rounds)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(out []Ciphertext, p BlockShuffleProof) error {
		return VerifyShuffleBlock(NewShuffleTranscript(k.PK, 4, 4, 1, rounds), 1, 0, k.PK, in, out, p)
	}

	// A cheating mixer replaces one output with an encryption of its
	// own after proving: the output hash feeds the challenge, and every
	// shadow→output opening now rebuilds a different shadow.
	cheat := append([]Ciphertext(nil), out...)
	cheat[2] = EncryptBit(k.PK, true)
	if err := verify(cheat, proof); err == nil {
		t.Fatal("tampered output batch must fail verification")
	}

	// Length mismatch and empty proof must fail fast.
	if err := verify(out[:3], proof); !errors.Is(err, ErrBadBlockShuffle) {
		t.Fatalf("length mismatch: got %v, want ErrBadBlockShuffle", err)
	}
	if err := verify(out, BlockShuffleProof{}); !errors.Is(err, ErrBadBlockShuffle) {
		t.Fatalf("empty proof: got %v, want ErrBadBlockShuffle", err)
	}
}

// TestShuffleProofRejectsNonPermutation feeds the verifier openings
// that are not well formed — a repeated or out-of-range index, a
// scalar outside [0, order), a missing scalar, wrong lengths, a
// commitment count that disagrees with the openings. Each must come
// back as ErrBadBlockShuffle, on either challenge value, without a
// panic.
func TestShuffleProofRejectsNonPermutation(t *testing.T) {
	k := GenerateKey()
	const n, rounds = 4, 4
	in := makeBatch(k.PK, []bool{true, false, false, true})
	out, w := Shuffle(k.PK, in)
	proof, err := ProveShuffleBlock(NewShuffleTranscript(k.PK, n, n, 1, rounds), 1, 0, k.PK, in, out, w, rounds)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		do   func(p *BlockShuffleProof, r int)
	}{
		{"duplicate index", func(p *BlockShuffleProof, r int) { p.Openings[r].Perm = []int{0, 0, 1, 2} }},
		{"index past the block", func(p *BlockShuffleProof, r int) { p.Openings[r].Perm[0] = n }},
		{"negative index", func(p *BlockShuffleProof, r int) { p.Openings[r].Perm[0] = -1 }},
		{"scalar equal to the order", func(p *BlockShuffleProof, r int) { p.Openings[r].Rand[1] = new(big.Int).Set(order) }},
		{"negative scalar", func(p *BlockShuffleProof, r int) { p.Openings[r].Rand[1] = big.NewInt(-1) }},
		{"nil scalar", func(p *BlockShuffleProof, r int) { p.Openings[r].Rand[1] = nil }},
		{"short permutation", func(p *BlockShuffleProof, r int) { p.Openings[r].Perm = p.Openings[r].Perm[:n-1] }},
		{"long randomizers", func(p *BlockShuffleProof, r int) {
			p.Openings[r].Rand = append(p.Openings[r].Rand, big.NewInt(1))
		}},
		{"missing commitment", func(p *BlockShuffleProof, _ int) { p.Commits = p.Commits[:rounds-1] }},
		{"missing opening", func(p *BlockShuffleProof, _ int) { p.Openings = p.Openings[:rounds-1] }},
	}
	for _, tc := range cases {
		// Every round in turn, so both challenge values meet each shape.
		for r := 0; r < rounds; r++ {
			bad := cloneBlockProof(proof)
			tc.do(&bad, r)
			err := VerifyShuffleBlock(NewShuffleTranscript(k.PK, n, n, 1, rounds), 1, 0, k.PK, in, out, bad)
			if !errors.Is(err, ErrBadBlockShuffle) {
				t.Errorf("%s in round %d: got %v, want ErrBadBlockShuffle", tc.name, r, err)
			}
		}
	}
}

// TestBlockShuffleCheatDetectionProbability replaces one output
// ciphertext with a fresh valid encryption and checks the cut-and-choose
// argument behaves exactly as the theory predicts: the tampered block
// is rejected if and only if at least one challenge bit opens the
// shadow→output side, so with k rounds the cheat survives with
// probability 2^-k. The test verifies the iff per trial (by replaying
// the verifier's challenge derivation on a transcript copy) and that
// the measured detection rate over many trials sits inside a generous
// binomial interval around 1 - 2^-k.
func TestBlockShuffleCheatDetectionProbability(t *testing.T) {
	key := GenerateKey()
	const n, rounds, trials = 6, 2, 120
	detected := 0
	for trial := 0; trial < trials; trial++ {
		in := encryptBlock(key.PK, n)
		out, w := Shuffle(key.PK, in)
		// The cheat, committed before the challenge exists (the
		// strongest position a prover can be in): one substituted
		// output element, with shadows and openings still built from
		// the honest witness. Bit-0 rounds (input→shadow) then verify;
		// every bit-1 round (shadow→output) hits the substitution.
		out[trial%n] = Encrypt(key.PK, Generator())
		prover := NewShuffleTranscript(key.PK, n, n, 1, rounds)
		proof, err := ProveShuffleBlock(prover, 1, 0, key.PK, in, out, w, rounds)
		if err != nil {
			t.Fatal(err)
		}

		verifier := NewShuffleTranscript(key.PK, n, n, 1, rounds)
		oracle := *verifier // replay the challenge derivation independently
		bits, err := oracle.BlockChallenges(1, 0, HashBlock(in), HashBlock(out), proof.Commits, rounds)
		if err != nil {
			t.Fatal(err)
		}
		anyOne := false
		for _, b := range bits {
			if b == 1 {
				anyOne = true
			}
		}
		verr := VerifyShuffleBlock(verifier, 1, 0, key.PK, in, out, proof)
		if (verr != nil) != anyOne {
			t.Fatalf("trial %d: detection %v but challenge bits %v", trial, verr != nil, bits)
		}
		if verr != nil {
			detected++
		}
	}
	// Expected detection rate 1 - 2^-2 = 0.75; over 120 trials the
	// binomial standard deviation is ~4.7 detections, so [0.55, 0.95]
	// will not flake in any plausible universe.
	rate := float64(detected) / trials
	if rate < 0.55 || rate > 0.95 {
		t.Fatalf("detection rate %.3f outside [0.55, 0.95] (expected %.2f)", rate, 0.75)
	}
}
