package psc

import "repro/internal/wire"

// Wire message kinds for the PSC round protocol. Ciphertext vectors
// never travel as one frame: every vector-valued phase is a header
// frame followed by bounded chunk frames, so a round's peak frame size
// is O(chunk) regardless of the table size, and a receiver can process
// (combine, verify, forward) each chunk while later chunks are still in
// flight.
const (
	kindRegister   = "psc/register"
	kindConfig     = "psc/configure"
	kindTable      = "psc/table"          // DC upload header, then chunks
	kindChunk      = "psc/chunk"          // one ciphertext-vector chunk
	kindMix        = "psc/mix"            // TS->CP input header, then chunks
	kindMixed      = "psc/mixed"          // CP->TS output header
	kindNoise      = "psc/noise"          // CP noise chunk with bit proofs
	kindShufBlock  = "psc/shuffle-block"  // one shuffled block with shadow commitments
	kindShufShadow = "psc/shuffle-shadow" // one shadow round's opening (no ciphertexts)
	kindBlind      = "psc/blind"          // blinded chunk with DLEQ proofs
	kindDecrypt    = "psc/decrypt"        // TS->CP final batch header, then chunks
	kindShares     = "psc/shares"         // CP->TS share stream header
	kindShare      = "psc/share-chunk"    // decryption-share chunk with proofs
)

// RegisterMsg is a CP's key material for the round: its ElGamal public
// key and a proof that it knows the secret. It names no party — the
// engine's pinned hello is the one place a party says who it is — and a
// DC sends none.
type RegisterMsg struct {
	PubKey   []byte // encoded group point
	KeyProof []byte // fixed-width proof of possession of PubKey
}

// ConfigureMsg distributes the round parameters. The hash key goes to
// DCs only — CPs must not be able to test item membership.
type ConfigureMsg struct {
	Round              uint64
	Bins               int
	NoisePerCP         int
	ShuffleProofRounds int
	JointKey           []byte   // combined CP public key
	CPKeys             [][]byte // individual CP keys, in pipeline order
	HashKey            []byte   // DCs only
}

// VectorHeader opens a chunked vector transfer (table upload, mix
// input, mixed output, decrypt input, share stream).
type VectorHeader struct {
	Round uint64
	// N is the total element count the chunks must tile.
	N int
}

// The seven messages below — every one that carries a ciphertext, a
// share or a proof — hold only integers and packed bytes and encode
// themselves (wire.WireAppender / wire.WireParser): fields in
// declaration order, integers as eight little-endian bytes, byte
// strings behind a uint32 length, proofs packed at their fixed width
// (elgamal.EqualityProofLen, BitProofLen). A received message's byte
// fields alias its frame, which it owns: PSC receives with Expect, not
// wire.ExpectFunc, because the tally hands noise, blind and share
// chunks to shard jobs that run after its next Expect, so a lent body
// would be recycled under them. The codec checks framing only; what the
// fields must say is decided by recvVectorFunc, decodeProved and the
// parse* functions in codec.go. gob is left with the control messages.

// ChunkMsg carries Count packed ciphertexts at element offset Off of
// the vector announced by the preceding header.
type ChunkMsg struct {
	Off, Count int
	Data       []byte
}

// AppendWire implements wire.WireAppender.
func (c ChunkMsg) AppendWire(b []byte) []byte {
	b = wire.Grow(b, 2*wire.IntSize+wire.BytesSize(len(c.Data)))
	b = wire.AppendInt(b, c.Off)
	b = wire.AppendInt(b, c.Count)
	return wire.AppendBytes(b, c.Data)
}

// ParseWire implements wire.WireParser.
func (c *ChunkMsg) ParseWire(b []byte) error {
	p := wire.NewParser(b)
	c.Off, c.Count, c.Data = p.Int(), p.Int(), p.Bytes()
	return p.Done()
}

// The three proof-bearing chunk messages share one layout.
func appendProofChunk(b []byte, off, count int, data, proofs []byte) []byte {
	b = wire.Grow(b, 2*wire.IntSize+wire.BytesSize(len(data))+wire.BytesSize(len(proofs)))
	b = wire.AppendInt(b, off)
	b = wire.AppendInt(b, count)
	return wire.AppendBytes(wire.AppendBytes(b, data), proofs)
}

func parseProofChunk(b []byte, off, count *int, data, proofs *[]byte) error {
	p := wire.NewParser(b)
	*off, *count, *data, *proofs = p.Int(), p.Int(), p.Bytes(), p.Bytes()
	return p.Done()
}

// NoiseChunkMsg carries a CP's appended noise ciphertexts (offsets are
// relative to the noise section) with their bit proofs.
type NoiseChunkMsg struct {
	Off, Count int
	Data       []byte // Count packed ciphertexts
	Proofs     []byte // Count fixed-width bit proofs
}

// AppendWire implements wire.WireAppender.
func (m NoiseChunkMsg) AppendWire(b []byte) []byte {
	return appendProofChunk(b, m.Off, m.Count, m.Data, m.Proofs)
}

// ParseWire implements wire.WireParser.
func (m *NoiseChunkMsg) ParseWire(b []byte) error {
	return parseProofChunk(b, &m.Off, &m.Count, &m.Data, &m.Proofs)
}

// BlockOutMsg carries one shuffled block of the streaming verifiable
// shuffle: the block's permuted, re-randomized ciphertexts plus the
// hash commitments to every shadow of its cut-and-choose argument. The
// commitments arrive before any round is opened — they feed the
// Fiat–Shamir transcript that fixes the block's challenge bits, and
// they are all the TS ever sees of a shadow.
type BlockOutMsg struct {
	Pass, Block, Count int
	Data               []byte   // Count packed ciphertexts
	Commits            [][]byte // one 32-byte shadow commitment per proof round
}

// AppendWire implements wire.WireAppender. Each commitment keeps its
// own length, so a short one reaches parseBlockOut to be refused there.
func (m BlockOutMsg) AppendWire(b []byte) []byte {
	size := 3*wire.IntSize + wire.BytesSize(len(m.Data)) + wire.LenSize
	for _, c := range m.Commits {
		size += wire.BytesSize(len(c))
	}
	b = wire.Grow(b, size)
	b = wire.AppendInt(b, m.Pass)
	b = wire.AppendInt(b, m.Block)
	b = wire.AppendInt(b, m.Count)
	b = wire.AppendBytes(b, m.Data)
	b = wire.AppendLen(b, len(m.Commits))
	for _, c := range m.Commits {
		b = wire.AppendBytes(b, c)
	}
	return b
}

// ParseWire implements wire.WireParser.
func (m *BlockOutMsg) ParseWire(b []byte) error {
	p := wire.NewParser(b)
	m.Pass, m.Block, m.Count, m.Data = p.Int(), p.Int(), p.Int(), p.Bytes()
	m.Commits = nil
	if n := p.Len(wire.BytesSize(0)); n > 0 {
		m.Commits = make([][]byte, n)
		for i := range m.Commits {
			m.Commits[i] = p.Bytes()
		}
	}
	return p.Done()
}

// BlockShadowMsg opens one cut-and-choose round of a block's argument:
// the permutation and randomizers of the challenged side, fixed width.
// The shadow itself is not in the frame — the TS recomputes it from the
// opening and checks it against the commitment BlockOutMsg delivered.
type BlockShadowMsg struct {
	Pass, Block, Round, Count int
	OpenPerm                  []byte // Count little-endian uint16 indices
	OpenRand                  []byte // Count 32-byte big-endian scalars
}

// AppendWire implements wire.WireAppender.
func (m BlockShadowMsg) AppendWire(b []byte) []byte {
	b = wire.Grow(b, 4*wire.IntSize+wire.BytesSize(len(m.OpenPerm))+wire.BytesSize(len(m.OpenRand)))
	b = wire.AppendInt(b, m.Pass)
	b = wire.AppendInt(b, m.Block)
	b = wire.AppendInt(b, m.Round)
	b = wire.AppendInt(b, m.Count)
	b = wire.AppendBytes(b, m.OpenPerm)
	return wire.AppendBytes(b, m.OpenRand)
}

// ParseWire implements wire.WireParser.
func (m *BlockShadowMsg) ParseWire(b []byte) error {
	p := wire.NewParser(b)
	m.Pass, m.Block, m.Round, m.Count = p.Int(), p.Int(), p.Int(), p.Int()
	m.OpenPerm, m.OpenRand = p.Bytes(), p.Bytes()
	return p.Done()
}

// BlindChunkMsg carries exponent-blinded ciphertexts with their DLEQ
// proofs; the TS verifies and forwards each chunk downstream before the
// next arrives.
type BlindChunkMsg struct {
	Off, Count int
	Data       []byte // Count packed ciphertexts
	Proofs     []byte // Count fixed-width equality proofs
}

// AppendWire implements wire.WireAppender.
func (m BlindChunkMsg) AppendWire(b []byte) []byte {
	return appendProofChunk(b, m.Off, m.Count, m.Data, m.Proofs)
}

// ParseWire implements wire.WireParser.
func (m *BlindChunkMsg) ParseWire(b []byte) error {
	return parseProofChunk(b, &m.Off, &m.Count, &m.Data, &m.Proofs)
}

// ShareChunkMsg carries a CP's decryption shares for one chunk of the
// final batch and the one equality proof that covers them all.
type ShareChunkMsg struct {
	Off, Count int
	Shares     []byte // Count packed points
	Proof      []byte // one fixed-width equality proof for the chunk
}

// AppendWire implements wire.WireAppender.
func (m ShareChunkMsg) AppendWire(b []byte) []byte {
	return appendProofChunk(b, m.Off, m.Count, m.Shares, m.Proof)
}

// ParseWire implements wire.WireParser.
func (m *ShareChunkMsg) ParseWire(b []byte) error {
	return parseProofChunk(b, &m.Off, &m.Count, &m.Shares, &m.Proof)
}

// Result is the TS's round outcome.
type Result struct {
	Round uint64
	// Reported is the protocol output: non-empty bins plus binomial
	// noise. Feed it to stats.UnionCardinalityCI with Bins and
	// NoiseTrials to recover the distinct count.
	Reported    int
	Bins        int
	NoiseTrials int
}
