package psc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

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

// Send-side encoders. Every frame that carries ciphertexts or proofs
// is sent as one of the values below, whose AppendWire writes the
// bytes of the message it stands for — ChunkMsg, NoiseChunkMsg,
// BlindChunkMsg, ShareChunkMsg, BlockOutMsg, BlockShadowMsg — straight
// into the sender's own buffer (wire.Stream.Send), so no packed vector
// is built per chunk first. The received side parses into the
// messages.

// ciphertextMaxLen bounds one ciphertext's encoding: two compressed
// points, fewer bytes when a half is the identity. sharePointLen is one
// compressed point, a decryption share's.
const (
	ciphertextMaxLen = 2 * sharePointLen
	sharePointLen    = 33
)

// appendPacked appends items back to back behind their total length:
// what wire.AppendBytes appends for the items packed into one slice.
func appendPacked[T interface{ AppendTo([]byte) []byte }](b []byte, items []T) []byte {
	at := len(b)
	b = wire.AppendLen(b, 0)
	for _, it := range items {
		b = it.AppendTo(b)
	}
	return endPacked(b, at)
}

// endPacked fills in the length prefix at b[at:] — appended as
// wire.AppendLen(b, 0) — with the length of everything after it.
func endPacked(b []byte, at int) []byte {
	binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-wire.LenSize))
	return b
}

// chunkOut sends as the ChunkMsg of cts at element offset off.
type chunkOut struct {
	off int
	cts []elgamal.Ciphertext
}

// AppendWire implements wire.WireAppender.
func (c chunkOut) AppendWire(b []byte) []byte {
	b = wire.Grow(b, 2*wire.IntSize+wire.BytesSize(ciphertextMaxLen*len(c.cts)))
	b = wire.AppendInt(b, c.off)
	b = wire.AppendInt(b, len(c.cts))
	return appendPacked(b, c.cts)
}

// provedOut sends as the NoiseChunkMsg or BlindChunkMsg of cts and
// their proofs, each width bytes, at offset off.
type provedOut[P interface{ AppendTo([]byte) []byte }] struct {
	off    int
	cts    []elgamal.Ciphertext
	proofs []P
	width  int
}

// AppendWire implements wire.WireAppender.
func (m provedOut[P]) AppendWire(b []byte) []byte {
	b = wire.Grow(b, 2*wire.IntSize+wire.BytesSize(ciphertextMaxLen*len(m.cts))+wire.BytesSize(m.width*len(m.proofs)))
	b = wire.AppendInt(b, m.off)
	b = wire.AppendInt(b, len(m.cts))
	return appendPacked(appendPacked(b, m.cts), m.proofs)
}

// shareOut sends as the ShareChunkMsg of one chunk's decryption shares
// at element offset off and the one proof that covers them.
type shareOut struct {
	off    int
	shares []elgamal.DecryptionShare
	proof  elgamal.EqualityProof
}

// AppendWire implements wire.WireAppender.
func (m shareOut) AppendWire(b []byte) []byte {
	b = wire.Grow(b, 2*wire.IntSize+wire.BytesSize(sharePointLen*len(m.shares))+wire.BytesSize(elgamal.EqualityProofLen))
	b = wire.AppendInt(b, m.off)
	b = wire.AppendInt(b, len(m.shares))
	at := len(b)
	b = wire.AppendLen(b, 0)
	for _, sh := range m.shares {
		b = sh.Share.AppendBytes(b)
	}
	b = endPacked(b, at)
	at = len(b)
	return endPacked(m.proof.AppendTo(wire.AppendLen(b, 0)), at)
}

// blockOut sends as the BlockOutMsg of one shuffled block and its
// shadow commitments.
type blockOut struct {
	pass, block int
	cts         []elgamal.Ciphertext
	commits     [][32]byte
}

// AppendWire implements wire.WireAppender.
func (m blockOut) AppendWire(b []byte) []byte {
	b = wire.Grow(b, 3*wire.IntSize+wire.BytesSize(ciphertextMaxLen*len(m.cts))+wire.LenSize+len(m.commits)*wire.BytesSize(32))
	b = wire.AppendInt(b, m.pass)
	b = wire.AppendInt(b, m.block)
	b = wire.AppendInt(b, len(m.cts))
	b = appendPacked(b, m.cts)
	b = wire.AppendLen(b, len(m.commits))
	for i := range m.commits {
		b = wire.AppendBytes(b, m.commits[i][:])
	}
	return b
}

// openingOut sends as the BlockShadowMsg of one round's opening: the
// indices as fixed-width integers, the scalars as they already are.
type openingOut struct {
	pass, block, round int
	o                  elgamal.BlockOpening
}

// AppendWire implements wire.WireAppender.
func (m openingOut) AppendWire(b []byte) []byte {
	b = wire.Grow(b, 4*wire.IntSize+wire.BytesSize(openIndexLen*len(m.o.Perm))+wire.BytesSize(len(m.o.Rand)))
	b = wire.AppendInt(b, m.pass)
	b = wire.AppendInt(b, m.block)
	b = wire.AppendInt(b, m.round)
	b = wire.AppendInt(b, len(m.o.Perm))
	b = wire.AppendLen(b, openIndexLen*len(m.o.Perm))
	for _, v := range m.o.Perm {
		b = binary.LittleEndian.AppendUint16(b, uint16(v))
	}
	return wire.AppendBytes(b, m.o.Rand)
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

// sendBlockProof streams one block's cut-and-choose argument: the
// shuffled block with its shadow commitments, then one opening per
// challenge. The shadows themselves never travel — the TS recomputes
// each from its opening — so the largest frame is the block itself.
func sendBlockProof(m wire.Messenger, pass, block int, out []elgamal.Ciphertext, proof elgamal.BlockShuffleProof) error {
	if err := m.Send(kindShufBlock, blockOut{pass: pass, block: block, cts: out, commits: proof.Commits}); err != nil {
		return err
	}
	for r, o := range proof.Openings {
		if err := m.Send(kindShufShadow, openingOut{pass: pass, block: block, round: r, o: o}); err != nil {
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
// sized — and decodes it into an elgamal.BlockOpening whose indices
// fill perm (grown when short) and whose scalars alias msg.OpenRand,
// which PSC owns because it receives with Expect. Whether the indices
// form a permutation and the scalars are below the group order is for
// VerifyShuffleBlock to decide. Malformed frames error; they never
// panic.
func parseBlockShadow(msg BlockShadowMsg, pass, block, round, count int, perm []int) (elgamal.BlockOpening, error) {
	if msg.Pass != pass || msg.Block != block || msg.Round != round {
		return elgamal.BlockOpening{}, fmt.Errorf("psc: opening %d/%d/%d out of order (want %d/%d/%d)",
			msg.Pass, msg.Block, msg.Round, pass, block, round)
	}
	if msg.Count != count || len(msg.OpenPerm) != openIndexLen*count || len(msg.OpenRand) != openScalarLen*count {
		return elgamal.BlockOpening{}, fmt.Errorf("psc: opening %d/%d/%d announces %d elements in %d index and %d scalar bytes, want %d",
			pass, block, round, msg.Count, len(msg.OpenPerm), len(msg.OpenRand), count)
	}
	perm = slices.Grow(perm[:0], count)[:count]
	for i := range perm {
		perm[i] = int(binary.LittleEndian.Uint16(msg.OpenPerm[openIndexLen*i:]))
	}
	return elgamal.BlockOpening{Perm: perm, Rand: msg.OpenRand}, nil
}
