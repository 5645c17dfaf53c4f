package psc

import (
	"bytes"
	"testing"

	"repro/internal/elgamal"
	"repro/internal/wire"
)

// Fuzzing for the three proof-bearing chunk messages, on the same two
// gates as the block codec (blockcodec_fuzz_test.go): the message's
// ParseWire for framing, then decodeProved or parseShareChunk for meaning — counts
// that the bytes back, fixed proof widths, curve points. Hostile bytes
// must error; they never panic, and no count sizes an allocation before
// it has been compared with the bytes behind it.

// proofChunkFixture is one honest chunk of each kind over the same
// three ciphertexts.
type proofChunkFixture struct {
	noise NoiseChunkMsg
	blind BlindChunkMsg
	share ShareChunkMsg
}

func newProofChunkFixture() proofChunkFixture {
	key := elgamal.GenerateKey()
	bits := []bool{true, false, true}
	cts, rs := elgamal.BatchEncryptBits(key.PK, bits)
	blinded, ss := elgamal.BatchExpBlind(cts)
	shares := key.BatchPartialDecrypt(blinded)
	var packed []byte
	for _, sh := range shares {
		packed = sh.Share.AppendBytes(packed)
	}
	return proofChunkFixture{
		noise: NoiseChunkMsg{Off: 0, Count: 3, Data: encodeVector(cts),
			Proofs: packProofs(elgamal.BatchProveBits(key.PK, cts, bits, rs), elgamal.BitProofLen)},
		blind: BlindChunkMsg{Off: 8, Count: 3, Data: encodeVector(blinded),
			Proofs: packProofs(elgamal.BatchProveBlinds(cts, blinded, ss), elgamal.EqualityProofLen)},
		share: ShareChunkMsg{Off: 8, Count: 3, Shares: packed,
			Proof: key.BatchProveShares(blinded, shares).AppendTo(nil)},
	}
}

// decodeNoise and decodeBlind are the tally's decodeProved calls.
func decodeNoise(m NoiseChunkMsg) ([]elgamal.Ciphertext, []elgamal.BitProof, error) {
	return decodeProved(m.Data, m.Proofs, m.Count, elgamal.BitProofLen, elgamal.ParseBitProof)
}

func decodeBlind(m BlindChunkMsg) ([]elgamal.Ciphertext, []elgamal.EqualityProof, error) {
	return decodeProved(m.Data, m.Proofs, m.Count, elgamal.EqualityProofLen, elgamal.ParseEqualityProof)
}

// addFramingSeeds adds the shapes only ParseWire can refuse.
func addFramingSeeds(f *testing.F, seed []byte) {
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x41})
	f.Add(seed[:len(seed)-1])           // truncated
	f.Add(append(bytes.Clone(seed), 0)) // trailing byte
}

// FuzzNoiseChunkCodec mutates a well-formed NoiseChunkMsg payload.
func FuzzNoiseChunkCodec(f *testing.F) {
	good := newProofChunkFixture().noise
	addFramingSeeds(f, mustEncode(f, good))
	for _, bad := range malformedNoiseChunks(good) {
		f.Add(mustEncode(f, bad))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var msg NoiseChunkMsg
		if err := wire.DecodePayload(payload, &msg); err != nil {
			return
		}
		checkCanonical(t, payload, msg)
		cts, proofs, err := decodeNoise(msg)
		if err != nil {
			return
		}
		if len(cts) != msg.Count || len(proofs) != msg.Count {
			t.Fatalf("noise chunk decoded to %d ciphertexts and %d proofs for Count %d", len(cts), len(proofs), msg.Count)
		}
		if !bytes.Equal(packProofs(proofs, elgamal.BitProofLen), msg.Proofs) {
			t.Fatal("accepted bit proofs re-encode differently")
		}
	})
}

// FuzzBlindChunkCodec mutates a well-formed BlindChunkMsg payload.
func FuzzBlindChunkCodec(f *testing.F) {
	good := newProofChunkFixture().blind
	addFramingSeeds(f, mustEncode(f, good))
	for _, bad := range malformedBlindChunks(good) {
		f.Add(mustEncode(f, bad))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var msg BlindChunkMsg
		if err := wire.DecodePayload(payload, &msg); err != nil {
			return
		}
		checkCanonical(t, payload, msg)
		cts, proofs, err := decodeBlind(msg)
		if err != nil {
			return
		}
		if len(cts) != msg.Count || len(proofs) != msg.Count {
			t.Fatalf("blind chunk decoded to %d ciphertexts and %d proofs for Count %d", len(cts), len(proofs), msg.Count)
		}
		for _, c := range cts {
			if !c.IsValid() {
				t.Fatal("blind chunk decoded to an invalid ciphertext")
			}
		}
		if !bytes.Equal(packProofs(proofs, elgamal.EqualityProofLen), msg.Proofs) {
			t.Fatal("accepted equality proofs re-encode differently")
		}
	})
}

// FuzzShareChunkCodec mutates a well-formed ShareChunkMsg payload.
func FuzzShareChunkCodec(f *testing.F) {
	good := newProofChunkFixture().share
	addFramingSeeds(f, mustEncode(f, good))
	for _, bad := range malformedShareChunks(good) {
		f.Add(mustEncode(f, bad))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var msg ShareChunkMsg
		if err := wire.DecodePayload(payload, &msg); err != nil {
			return
		}
		checkCanonical(t, payload, msg)
		shares, proof, err := parseShareChunk(msg)
		if err != nil {
			return
		}
		if len(shares) != msg.Count {
			t.Fatalf("parseShareChunk accepted %d shares for Count %d", len(shares), msg.Count)
		}
		for _, sh := range shares {
			if !sh.Share.IsValid() {
				t.Fatal("parseShareChunk accepted an invalid share")
			}
		}
		if !bytes.Equal(proof.AppendTo(nil), msg.Proof) {
			t.Fatal("accepted share proof re-encodes differently")
		}
	})
}

// The well-framed shapes only the parse* functions can refuse: counts
// and lengths that disagree, over-long and short fields, a count no
// frame could back, a point off the curve.

// chunkShape is a count with the two byte fields of a chunk message.
type chunkShape struct {
	count        int
	data, proofs []byte
}

// malformedChunks returns the shapes for a three-element chunk whose
// proofs field holds fixed-width proofs of w bytes each.
func malformedChunks(data, proofs []byte, w int) []chunkShape {
	return []chunkShape{
		{2, data, proofs},                                          // count understates both
		{4, data, proofs},                                          // count overstates both
		{3, data, proofs[:len(proofs)-w]},                          // a proof missing
		{3, data, append(bytes.Clone(proofs), 0)},                  // ragged proofs
		{3, data, append(bytes.Clone(proofs), proofs[:w]...)},      // a proof too many
		{3, data[:len(data)-3], proofs},                            // last element cut short
		{3, append(bytes.Clone(data), 0), proofs},                  // an element too many
		{3, append([]byte{4, data[1] ^ 1}, data[2:]...), proofs},   // off-curve element
		{3, data, append([]byte{4, proofs[1] ^ 1}, proofs[2:]...)}, // off-curve commitment
		{3, data, append([]byte{0, 1}, proofs[2:]...)},             // padded identity commitment
		{1 << 40, data, proofs},                                    // count no frame could back
		{-3, data, proofs},                                         // negative count
	}
}

func malformedNoiseChunks(good NoiseChunkMsg) (out []NoiseChunkMsg) {
	for _, s := range malformedChunks(good.Data, good.Proofs, elgamal.BitProofLen) {
		out = append(out, NoiseChunkMsg{Count: s.count, Data: s.data, Proofs: s.proofs})
	}
	return out
}

func malformedBlindChunks(good BlindChunkMsg) (out []BlindChunkMsg) {
	for _, s := range malformedChunks(good.Data, good.Proofs, elgamal.EqualityProofLen) {
		out = append(out, BlindChunkMsg{Count: s.count, Data: s.data, Proofs: s.proofs})
	}
	return out
}

func malformedShareChunks(good ShareChunkMsg) (out []ShareChunkMsg) {
	for _, s := range malformedChunks(good.Shares, good.Proof, elgamal.EqualityProofLen) {
		out = append(out, ShareChunkMsg{Count: s.count, Shares: s.data, Proof: s.proofs})
	}
	return out
}

// TestChunkCodecRejectsMalformed pins the malformed shapes the fuzzers
// start from: each reaches its parse* function through the codec and is
// refused there, and the honest chunk of each kind is accepted.
func TestChunkCodecRejectsMalformed(t *testing.T) {
	fx := newProofChunkFixture()
	if _, _, err := decodeNoise(overWire(t, fx.noise)); err != nil {
		t.Errorf("well-formed NoiseChunkMsg rejected: %v", err)
	}
	if _, _, err := decodeBlind(overWire(t, fx.blind)); err != nil {
		t.Errorf("well-formed BlindChunkMsg rejected: %v", err)
	}
	if _, _, err := parseShareChunk(overWire(t, fx.share)); err != nil {
		t.Errorf("well-formed ShareChunkMsg rejected: %v", err)
	}
	for i, msg := range malformedNoiseChunks(fx.noise) {
		if _, _, err := decodeNoise(overWire(t, msg)); err == nil {
			t.Errorf("malformed NoiseChunkMsg %d accepted", i)
		}
	}
	for i, msg := range malformedBlindChunks(fx.blind) {
		if _, _, err := decodeBlind(overWire(t, msg)); err == nil {
			t.Errorf("malformed BlindChunkMsg %d accepted", i)
		}
	}
	for i, msg := range malformedShareChunks(fx.share) {
		if _, _, err := parseShareChunk(overWire(t, msg)); err == nil {
			t.Errorf("malformed ShareChunkMsg %d accepted", i)
		}
	}
}
