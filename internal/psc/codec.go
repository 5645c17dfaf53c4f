package psc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/elgamal"
	"repro/internal/wire"
)

// Vector and proof serialization. Ciphertext batches dominate PSC
// bandwidth, so vectors are packed into byte slices rather than
// per-element gob structures, and travel as bounded chunks.

// chunkElems is how many ciphertexts ride in one chunk frame: ~66
// bytes per compressed ciphertext keeps a chunk near 66 KiB, far below
// any connection's frame cap.
const chunkElems = 1024

// forEachChunk invokes fn(off, end) over [0, n) in chunkElems-sized
// ranges — the one place the clamp-and-slice arithmetic lives.
func forEachChunk(n int, fn func(off, end int) error) error {
	for off := 0; off < n; off += chunkElems {
		end := min(off+chunkElems, n)
		if err := fn(off, end); err != nil {
			return err
		}
	}
	return nil
}

// parseKey decodes a public-key field — a configure frame's joint key
// or a CP's registered key — which must hold exactly one point
// encoding. It refuses trailing bytes and the identity: under an
// identity key C2 = M, so the table and the noise would travel in the
// clear.
func parseKey(b []byte) (elgamal.Point, error) {
	pk, n, err := elgamal.ParsePoint(b)
	switch {
	case err != nil:
		return elgamal.Point{}, err
	case n != len(b):
		return elgamal.Point{}, fmt.Errorf("%d trailing bytes after the point", len(b)-n)
	case pk.IsIdentity():
		return elgamal.Point{}, errors.New("the identity")
	}
	return pk, nil
}

// encodeVector packs ciphertexts back to back into one allocation.
func encodeVector(v []elgamal.Ciphertext) []byte {
	out := make([]byte, 0, len(v)*66) // two compressed points each
	for _, c := range v {
		out = c.AppendTo(out)
	}
	return out
}

// recvVectorFunc consumes kindChunk frames until n elements have
// arrived, invoking fn for each decoded chunk as it lands. Chunks must
// tile [0, n) in order — the sender is sequential, so out-of-order
// offsets mean a confused or malicious peer.
func recvVectorFunc(m wire.Messenger, n int, fn func(off int, cts []elgamal.Ciphertext) error) error {
	for off := 0; off < n; {
		var c ChunkMsg
		if err := m.Expect(kindChunk, &c); err != nil {
			return err
		}
		if c.Off != off || c.Count <= 0 || off+c.Count > n {
			return fmt.Errorf("psc: chunk [%d,%d) does not continue vector at %d/%d", c.Off, c.Off+c.Count, off, n)
		}
		cts, err := decodeVector(c.Data, c.Count)
		if err != nil {
			return err
		}
		if err := fn(off, cts); err != nil {
			return err
		}
		off += c.Count
	}
	return nil
}

// decodeVector parses exactly n ciphertexts and validates every point.
// n is compared with the bytes that must back it (two at the least per
// ciphertext) before it sizes anything.
func decodeVector(b []byte, n int) ([]elgamal.Ciphertext, error) {
	if n < 0 || n > len(b)/2 {
		return nil, fmt.Errorf("psc: %d ciphertexts announced in %d bytes", n, len(b))
	}
	out := make([]elgamal.Ciphertext, 0, n)
	for i := 0; i < n; i++ {
		c, used, err := elgamal.ParseCiphertext(b)
		if err != nil {
			return nil, fmt.Errorf("psc: ciphertext %d: %w", i, err)
		}
		b = b[used:]
		out = append(out, c)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("psc: %d trailing bytes after vector", len(b))
	}
	return out, nil
}

// packProofs encodes proofs back to back at their fixed width.
func packProofs[P interface{ AppendTo([]byte) []byte }](proofs []P, width int) []byte {
	out := make([]byte, 0, len(proofs)*width)
	for _, p := range proofs {
		out = p.AppendTo(out)
	}
	return out
}

// decodeProved parses exactly n ciphertexts and their n fixed-width
// proofs — the body of a noise or blind chunk. The proof bytes are
// checked against n, by division, before n sizes anything. Like the
// parse* functions it takes nothing in the frame on trust: malformed
// frames error, they never panic.
func decodeProved[P any](data, proofs []byte, n, width int, parse func([]byte) (P, error)) ([]elgamal.Ciphertext, []P, error) {
	if n < 0 || len(proofs)%width != 0 || len(proofs)/width != n {
		return nil, nil, fmt.Errorf("psc: %d proof bytes for %d elements, want %d each", len(proofs), n, width)
	}
	cts, err := decodeVector(data, n)
	if err != nil {
		return nil, nil, err
	}
	out := make([]P, n)
	for i := range out {
		if out[i], err = parse(proofs[i*width : (i+1)*width]); err != nil {
			return nil, nil, fmt.Errorf("psc: proof %d: %w", i, err)
		}
	}
	return cts, out, nil
}

// parseShareChunk decodes a share chunk's Count shares and its one
// proof.
func parseShareChunk(m ShareChunkMsg) ([]elgamal.DecryptionShare, elgamal.EqualityProof, error) {
	if m.Count < 0 || m.Count > len(m.Shares) {
		return nil, elgamal.EqualityProof{}, fmt.Errorf("psc: %d shares announced in %d bytes", m.Count, len(m.Shares))
	}
	shares := make([]elgamal.DecryptionShare, m.Count)
	b := m.Shares
	for i := range shares {
		pt, used, err := elgamal.ParsePoint(b)
		if err != nil {
			return nil, elgamal.EqualityProof{}, fmt.Errorf("psc: share %d: %w", i, err)
		}
		shares[i].Share, b = pt, b[used:]
	}
	if len(b) != 0 {
		return nil, elgamal.EqualityProof{}, fmt.Errorf("psc: %d trailing bytes after shares", len(b))
	}
	proof, err := elgamal.ParseEqualityProof(m.Proof)
	return shares, proof, err
}

// Fixed-width opening encoding: a permutation index is a little-endian
// uint16 and a randomizer a 32-byte big-endian scalar, so an opening
// frame's size depends only on the block's element count.
const (
	openIndexLen  = 2
	openScalarLen = 32
)

// Block lengths never exceed maxBlockElems (checkShape), so every
// permutation index fits the uint16 the opening frame gives it.
const _ = uint16(maxBlockElems - 1)

// packOpening encodes one opening's permutation and randomizers as the
// two fixed-width byte fields of a BlockShadowMsg.
func packOpening(o elgamal.BlockOpening) (perm, rand []byte) {
	perm = make([]byte, openIndexLen*len(o.Perm))
	for i, v := range o.Perm {
		binary.LittleEndian.PutUint16(perm[openIndexLen*i:], uint16(v))
	}
	rand = make([]byte, openScalarLen*len(o.Rand))
	for i, s := range o.Rand {
		s.FillBytes(rand[openScalarLen*i : openScalarLen*(i+1)])
	}
	return perm, rand
}

// sendBlockProof streams one block's cut-and-choose argument: the
// shuffled block with its shadow commitments, then one opening per
// challenge. The shadows themselves never travel — the TS recomputes
// each from its opening — so the largest frame is the block itself.
func sendBlockProof(m wire.Messenger, pass, block int, out []elgamal.Ciphertext, proof elgamal.BlockShuffleProof) error {
	msg := BlockOutMsg{Pass: pass, Block: block, Count: len(out), Data: encodeVector(out)}
	msg.Commits = make([][]byte, len(proof.Commits))
	for i := range proof.Commits {
		msg.Commits[i] = proof.Commits[i][:] // encoding copies it
	}
	if err := m.Send(kindShufBlock, msg); err != nil {
		return err
	}
	for r, o := range proof.Openings {
		sh := BlockShadowMsg{Pass: pass, Block: block, Round: r, Count: len(o.Perm)}
		sh.OpenPerm, sh.OpenRand = packOpening(o)
		if err := m.Send(kindShufShadow, sh); err != nil {
			return err
		}
	}
	return nil
}

// parseBlockOut validates a shuffled-block announcement against the
// expected pass/block position, element count, and proof-round count,
// and decodes the output ciphertexts and shadow commitments. Malformed
// frames error; they never panic.
func parseBlockOut(msg BlockOutMsg, pass, block, count, rounds int) ([]elgamal.Ciphertext, [][32]byte, error) {
	if msg.Pass != pass || msg.Block != block {
		return nil, nil, fmt.Errorf("psc: block %d/%d out of order (want %d/%d)", msg.Pass, msg.Block, pass, block)
	}
	if msg.Count != count {
		return nil, nil, fmt.Errorf("psc: block %d/%d has %d elements, want %d", pass, block, msg.Count, count)
	}
	if len(msg.Commits) != rounds {
		return nil, nil, fmt.Errorf("psc: block %d/%d has %d shadow commitments, want %d", pass, block, len(msg.Commits), rounds)
	}
	commits := make([][32]byte, rounds)
	for i, c := range msg.Commits {
		if len(c) != 32 {
			return nil, nil, fmt.Errorf("psc: block %d/%d commitment %d is %d bytes", pass, block, i, len(c))
		}
		copy(commits[i][:], c)
	}
	cts, err := decodeVector(msg.Data, count)
	if err != nil {
		return nil, nil, fmt.Errorf("psc: block %d/%d: %w", pass, block, err)
	}
	return cts, commits, nil
}

// parseBlockShadow validates one round's opening against the expected
// position and count — exact byte lengths first, before anything is
// allocated — and decodes it into an elgamal.BlockOpening. Whether the
// indices form a permutation and the scalars are below the group order
// is for VerifyShuffleBlock to decide. Malformed frames error; they
// never panic.
func parseBlockShadow(msg BlockShadowMsg, pass, block, round, count int) (elgamal.BlockOpening, error) {
	if msg.Pass != pass || msg.Block != block || msg.Round != round {
		return elgamal.BlockOpening{}, fmt.Errorf("psc: opening %d/%d/%d out of order (want %d/%d/%d)",
			msg.Pass, msg.Block, msg.Round, pass, block, round)
	}
	if msg.Count != count || len(msg.OpenPerm) != openIndexLen*count || len(msg.OpenRand) != openScalarLen*count {
		return elgamal.BlockOpening{}, fmt.Errorf("psc: opening %d/%d/%d announces %d elements in %d index and %d scalar bytes, want %d",
			pass, block, round, msg.Count, len(msg.OpenPerm), len(msg.OpenRand), count)
	}
	o := elgamal.BlockOpening{Perm: make([]int, count), Rand: make([]*big.Int, count)}
	for i := range o.Perm {
		o.Perm[i] = int(binary.LittleEndian.Uint16(msg.OpenPerm[openIndexLen*i:]))
		o.Rand[i] = new(big.Int).SetBytes(msg.OpenRand[openScalarLen*i : openScalarLen*(i+1)])
	}
	return o, nil
}
