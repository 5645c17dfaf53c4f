package psc

import (
	"fmt"

	"repro/internal/dp"
	"repro/internal/elgamal"
	"repro/internal/wire"
)

// CP is a computation party. Its mixing step is what makes the union
// count private: after every CP has appended noise, shuffled, and
// blinded, the decrypted batch reveals only how many elements were
// non-empty — and that count carries binomial noise no single CP knows.
//
// A CP's ElGamal key share is long-term: one CP value serves many
// rounds (ServeRound per round stream), concurrently if asked, the way
// the deployed daemons hold one key across a whole measurement study.
type CP struct {
	Name string

	m        wire.Messenger
	key      *elgamal.PrivateKey
	keyProof []byte // proof of possession of key, sent with every registration
	noise    *dp.NoiseSource
}

// NewCP creates a computation party with a fresh ElGamal key share. A
// nil noise source selects cryptographic randomness, drawn through a
// source of its own per round (a NoiseSource is for one goroutine, and
// the CP serves rounds concurrently); a caller's source is used as
// given. The messenger may be nil when the CP serves rounds on explicit
// streams via ServeRound.
func NewCP(name string, m wire.Messenger, noise *dp.NoiseSource) *CP {
	key := elgamal.GenerateKey()
	return &CP{Name: name, m: m, key: key, keyProof: key.ProvePossession().AppendTo(nil), noise: noise}
}

// Serve runs one round on the CP's bound messenger.
func (cp *CP) Serve() error { return cp.ServeRound(cp.m) }

// ServeRound runs the CP's side of one round over m: register its key,
// mix once when asked, then produce decryption shares chunk by chunk.
// All round state is local, so one CP serves many rounds concurrently.
func (cp *CP) ServeRound(m wire.Messenger) error {
	if err := m.Send(kindRegister, RegisterMsg{PubKey: cp.key.PK.Bytes(), KeyProof: cp.keyProof}); err != nil {
		return fmt.Errorf("psc cp %s: register: %w", cp.Name, err)
	}
	var cfg ConfigureMsg
	if err := m.Expect(kindConfig, &cfg); err != nil {
		return fmt.Errorf("psc cp %s: configure: %w", cp.Name, err)
	}
	joint, err := parseKey(cfg.JointKey)
	if err != nil {
		return fmt.Errorf("psc cp %s: joint key: %w", cp.Name, err)
	}
	// Every operation of the round multiplies against the joint key; one
	// table build here repays itself thousands of times, and is shared
	// across all concurrent rounds under the same CP set.
	elgamal.Precompute(joint)

	if err := cp.mixPhase(m, cfg, joint); err != nil {
		return err
	}
	return cp.decryptPhase(m, cfg)
}

func (cp *CP) mixPhase(m wire.Messenger, cfg ConfigureMsg, joint elgamal.Point) error {
	var hdr VectorHeader
	if err := m.Expect(kindMix, &hdr); err != nil {
		return fmt.Errorf("psc cp %s: mix request: %w", cp.Name, err)
	}
	// The configure and mix frames are input from outside the process:
	// nothing below may size an allocation or a grid from them unchecked.
	if hdr.N < 1 || cfg.NoisePerCP < 0 {
		return fmt.Errorf("psc cp %s: mix of %d elements plus %d noise", cp.Name, hdr.N, cfg.NoisePerCP)
	}
	total := hdr.N + cfg.NoisePerCP
	if err := checkShape(total, cfg.ShuffleProofRounds); err != nil {
		return fmt.Errorf("psc cp %s: configure: %w", cp.Name, err)
	}
	g := newGrid(total, shuffleBlock)
	passes := g.passes()

	// Stage 1: announce the mixed length and ship the fair-coin noise
	// with its bit proofs. The TS reconstructs the combined vector itself,
	// so only the appended elements travel; they form the tail of the
	// shuffle input.
	src := cp.noise
	if src == nil {
		src = dp.NewNoiseSource(nil)
	}
	bits := make([]bool, cfg.NoisePerCP)
	for i := range bits {
		bits[i] = src.Binomial(1) == 1
	}
	noise, rands := elgamal.BatchEncryptBits(joint, bits)
	proofs := elgamal.BatchProveBits(joint, noise, bits, rands)
	if err := m.Send(kindMixed, VectorHeader{Round: cfg.Round, N: total}); err != nil {
		return err
	}
	err := forEachChunk(len(noise), func(off, end int) error {
		return m.Send(kindNoise, provedOut[elgamal.BitProof]{off: off, cts: noise[off:end], proofs: proofs[off:end], width: elgamal.BitProofLen})
	})
	if err != nil {
		return err
	}

	// Stage 2+3: the streaming verifiable shuffle, with the final
	// pass's blocks exponent-blinded as they emerge. Every block is
	// permuted, re-randomized, and proven independently against the
	// stage transcript; only the current block (and, on a two-pass
	// vector, the spilled encoding of the row pass's output) is resident.
	st := &cpShuffleState{
		cp: cp, m: m, joint: joint,
		rounds: cfg.ShuffleProofRounds, g: g, passes: passes,
		tr: elgamal.NewShuffleTranscript(joint, total, g.block, passes, cfg.ShuffleProofRounds),
	}
	if passes > 1 {
		if st.inter, err = newSpill(total); err != nil {
			return fmt.Errorf("psc cp %s: shuffle spill: %w", cp.Name, err)
		}
		defer st.inter.Close()
	}

	// The row pass streams directly off the arriving input: noise tail
	// appended after the TS-fed prefix, blocks emitted as they fill.
	if err := st.runRowPass(hdr.N, noise); err != nil {
		return err
	}
	if passes == 1 {
		return nil
	}
	return st.runColumnPass()
}

// cpShuffleState threads one CP's streaming-shuffle stage: the
// Fiat–Shamir transcript, the grid geometry, and the spilled row-pass
// output.
type cpShuffleState struct {
	cp     *CP
	m      wire.Messenger
	joint  elgamal.Point
	rounds int
	g      grid
	passes int
	tr     *elgamal.ShuffleTranscript
	inter  *ctSpill // row-pass output; nil for a single pass
}

// runRowPass consumes the TS-fed input chunks plus this CP's noise
// tail, emitting each row block's shuffle (and argument) as soon as the
// block fills. With a single pass the block is also blinded and shipped
// immediately; otherwise its output is spilled for the column pass.
func (st *cpShuffleState) runRowPass(nIn int, noise []elgamal.Ciphertext) error {
	block := make([]elgamal.Ciphertext, 0, st.g.block)
	bIdx := 0
	absorb := func(cts []elgamal.Ciphertext) error {
		for len(cts) > 0 {
			take := st.g.blockLen(1, bIdx) - len(block)
			if take > len(cts) {
				take = len(cts)
			}
			block = append(block, cts[:take]...)
			cts = cts[take:]
			if len(block) == st.g.blockLen(1, bIdx) {
				if err := st.emitBlock(1, bIdx, block); err != nil {
					return err
				}
				bIdx++
				block = block[:0]
			}
		}
		return nil
	}
	err := recvVectorFunc(st.m, nIn, func(_ int, cts []elgamal.Ciphertext) error {
		return absorb(cts)
	})
	if err != nil {
		return fmt.Errorf("psc cp %s: mix batch: %w", st.cp.Name, err)
	}
	return absorb(noise)
}

// runColumnPass reads each column-group block back from the spilled
// row-pass output — the walk the TS makes over its own spill of the
// row blocks it verified, so the input never travels — and shuffles,
// proves and blinds it.
func (st *cpShuffleState) runColumnPass() error {
	for b := 0; b < st.g.blocks(2); b++ {
		in, err := st.inter.readColumnGroup(st.g, b)
		if err != nil {
			return fmt.Errorf("psc cp %s: shuffle spill: %w", st.cp.Name, err)
		}
		if err := st.emitBlock(2, b, in); err != nil {
			return err
		}
	}
	return nil
}

// emitBlock shuffles, proves, and sends one block, then either spills
// it for the column pass or, on the final pass, blinds it.
func (st *cpShuffleState) emitBlock(p, b int, in []elgamal.Ciphertext) error {
	out, witness := elgamal.Shuffle(st.joint, in)
	proof, err := elgamal.ProveShuffleBlock(st.tr, p, b, st.joint, in, out, witness, st.rounds)
	if err != nil {
		return fmt.Errorf("psc cp %s: block %d/%d proof: %w", st.cp.Name, p, b, err)
	}
	if err := sendBlockProof(st.m, p, b, out, proof); err != nil {
		return err
	}
	if p < st.passes {
		return st.inter.write(st.g.outStart(p, b), out)
	}
	return st.blindBlock(p, b, out)
}

// blindBlock exponent-blinds one final-pass block and ships it with its
// DLEQ proofs; the TS verifies against the block output it just
// checked and forwards downstream while this CP works on the next
// block.
func (st *cpShuffleState) blindBlock(p, b int, out []elgamal.Ciphertext) error {
	blinded, blindScalars := elgamal.BatchExpBlind(out)
	proofs := elgamal.BatchProveBlinds(out, blinded, blindScalars)
	return st.m.Send(kindBlind, provedOut[elgamal.EqualityProof]{off: st.g.outStart(p, b), cts: blinded, proofs: proofs, width: elgamal.EqualityProofLen})
}

// decryptPhase answers the final batch chunk by chunk, each chunk's
// shares under one proof: only one chunk of ciphertexts and shares is
// ever resident.
func (cp *CP) decryptPhase(m wire.Messenger, cfg ConfigureMsg) error {
	var hdr VectorHeader
	if err := m.Expect(kindDecrypt, &hdr); err != nil {
		return fmt.Errorf("psc cp %s: decrypt request: %w", cp.Name, err)
	}
	if err := m.Send(kindShares, VectorHeader{Round: cfg.Round, N: hdr.N}); err != nil {
		return err
	}
	return recvVectorFunc(m, hdr.N, func(off int, cts []elgamal.Ciphertext) error {
		decShares := cp.key.BatchPartialDecrypt(cts)
		shares := make([]byte, 0, len(cts)*33) // compressed points
		for _, sh := range decShares {
			shares = sh.Share.AppendBytes(shares)
		}
		proof := cp.key.BatchProveShares(cts, decShares).AppendTo(nil)
		return m.Send(kindShare, ShareChunkMsg{Off: off, Count: len(cts), Shares: shares, Proof: proof})
	})
}
