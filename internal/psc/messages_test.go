package psc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/elgamal"
	"repro/internal/wire"
)

// binaryMsg is one of the six self-encoding PSC messages under test.
type binaryMsg struct {
	name  string
	msg   wire.WireAppender
	fresh func() wire.WireParser
	// lastLen is the offset of the final byte string's length prefix
	// and its true value.
	lastLen, lastN int
	// fields lists the parsed message's byte strings.
	fields func(parsed any) [][]byte
}

func binaryMsgs() []binaryMsg {
	data := bytes.Repeat([]byte{0xD1}, 130)
	perm, rand := bytes.Repeat([]byte{0x02}, 4), bytes.Repeat([]byte{0x03}, 64)
	c0, c1 := bytes.Repeat([]byte{0x0A}, 32), bytes.Repeat([]byte{0x0B}, 32)
	eqProofs, bitProofs := bytes.Repeat([]byte{0x0E}, 2*elgamal.EqualityProofLen), bytes.Repeat([]byte{0x0F}, 2*elgamal.BitProofLen)
	proofsAt := 2*wire.IntSize + wire.BytesSize(len(data))
	return []binaryMsg{
		{"NoiseChunkMsg", NoiseChunkMsg{Off: 16, Count: 2, Data: data, Proofs: bitProofs},
			func() wire.WireParser { return new(NoiseChunkMsg) }, proofsAt, len(bitProofs),
			func(p any) [][]byte { m := p.(*NoiseChunkMsg); return [][]byte{m.Data, m.Proofs} }},
		{"BlindChunkMsg", BlindChunkMsg{Off: 1024, Count: 2, Data: data, Proofs: eqProofs},
			func() wire.WireParser { return new(BlindChunkMsg) }, proofsAt, len(eqProofs),
			func(p any) [][]byte { m := p.(*BlindChunkMsg); return [][]byte{m.Data, m.Proofs} }},
		{"ShareChunkMsg", ShareChunkMsg{Off: 1024, Count: 2, Shares: data, Proof: eqProofs[:elgamal.EqualityProofLen]},
			func() wire.WireParser { return new(ShareChunkMsg) }, proofsAt, elgamal.EqualityProofLen,
			func(p any) [][]byte { m := p.(*ShareChunkMsg); return [][]byte{m.Shares, m.Proof} }},
		{"ChunkMsg", ChunkMsg{Off: 1024, Count: 2, Data: data},
			func() wire.WireParser { return new(ChunkMsg) }, 2 * wire.IntSize, len(data),
			func(p any) [][]byte { return [][]byte{p.(*ChunkMsg).Data} }},
		{"BlockOutMsg", BlockOutMsg{Pass: 1, Block: 7, Count: 2, Data: data, Commits: [][]byte{c0, c1}},
			func() wire.WireParser { return new(BlockOutMsg) },
			3*wire.IntSize + wire.BytesSize(len(data)) + wire.LenSize + wire.BytesSize(32), 32,
			func(p any) [][]byte { m := p.(*BlockOutMsg); return append([][]byte{m.Data}, m.Commits...) }},
		{"BlockShadowMsg", BlockShadowMsg{Pass: 1, Block: 7, Round: 3, Count: 2, OpenPerm: perm, OpenRand: rand},
			func() wire.WireParser { return new(BlockShadowMsg) }, 4*wire.IntSize + wire.BytesSize(len(perm)), len(rand),
			func(p any) [][]byte { m := p.(*BlockShadowMsg); return [][]byte{m.OpenPerm, m.OpenRand} }},
	}
}

// TestBinaryMessageCodecs: each self-encoding message round-trips,
// refuses every truncation, trailing bytes and a length prefix that
// disagrees with its bytes, and hands out byte fields that cannot grow
// into one another.
func TestBinaryMessageCodecs(t *testing.T) {
	for _, tc := range binaryMsgs() {
		good, err := wire.EncodePayload(tc.msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		back := tc.fresh()
		if err := wire.DecodePayload(good, back); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(reflect.ValueOf(back).Elem().Interface(), tc.msg) {
			t.Errorf("%s: round trip gave %+v, want %+v", tc.name, back, tc.msg)
		}
		if again := back.(wire.WireAppender).AppendWire(nil); !bytes.Equal(again, good) {
			t.Errorf("%s: parsed message re-encodes differently", tc.name)
		}

		for cut := 0; cut < len(good); cut++ {
			if err := tc.fresh().ParseWire(good[:cut]); !errors.Is(err, wire.ErrBadPayload) {
				t.Fatalf("%s truncated to %d of %d bytes: got %v, want ErrBadPayload", tc.name, cut, len(good), err)
			}
		}
		if err := tc.fresh().ParseWire(append(bytes.Clone(good), 0)); !errors.Is(err, wire.ErrBadPayload) {
			t.Errorf("%s with a trailing byte: got %v", tc.name, err)
		}
		if got := binary.LittleEndian.Uint32(good[tc.lastLen:]); int(got) != tc.lastN {
			t.Fatalf("%s: length prefix at %d reads %d, want %d (test table out of date)", tc.name, tc.lastLen, got, tc.lastN)
		}
		for _, n := range []int{tc.lastN - 1, tc.lastN + 1, 1 << 31, 1<<32 - 1} {
			bad := bytes.Clone(good)
			binary.LittleEndian.PutUint32(bad[tc.lastLen:], uint32(n))
			if err := tc.fresh().ParseWire(bad); !errors.Is(err, wire.ErrBadPayload) {
				t.Errorf("%s with its last length prefix set to %d: got %v", tc.name, n, err)
			}
		}

		// Parse out of a buffer with room to spare, append to every
		// field, and nothing else — neighbour, header, or the spare
		// room — may change.
		buf := append(bytes.Clone(good), bytes.Repeat([]byte{0xEE}, 64)...)
		orig := bytes.Clone(buf)
		parsed := tc.fresh()
		if err := parsed.ParseWire(buf[:len(good)]); err != nil {
			t.Fatal(err)
		}
		for i, f := range tc.fields(parsed) {
			if cap(f) != len(f) {
				t.Errorf("%s field %d: %d bytes of spare capacity", tc.name, i, cap(f)-len(f))
			}
			_ = append(f, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55)
		}
		if !bytes.Equal(buf, orig) {
			t.Errorf("%s: append on a parsed field wrote into the frame", tc.name)
		}
	}
}

// TestBlockOutCommitCountBounded: the commitment count is compared with
// the bytes left before the list is sized from it.
func TestBlockOutCommitCountBounded(t *testing.T) {
	good := BlockOutMsg{Pass: 1, Count: 1, Data: []byte{1}}.AppendWire(nil)
	countAt := len(good) - wire.LenSize
	for _, n := range []uint32{1, 1 << 20, 1<<32 - 1} {
		bad := bytes.Clone(good)
		binary.LittleEndian.PutUint32(bad[countAt:], n)
		var m BlockOutMsg
		if err := m.ParseWire(bad); !errors.Is(err, wire.ErrBadPayload) {
			t.Errorf("%d commitments announced, none present: got %v", n, err)
		}
		if m.Commits != nil {
			t.Errorf("%d commitments announced: a list of %d was allocated", n, len(m.Commits))
		}
	}
	// Announced and present, but each empty: framing is fine, and it is
	// parseBlockOut that refuses them.
	var m BlockOutMsg
	two := append(bytes.Clone(good[:countAt]), 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if err := m.ParseWire(two); err != nil || len(m.Commits) != 2 {
		t.Fatalf("two empty commitments: %d parsed, err %v", len(m.Commits), err)
	}
}

// TestChunkReaderRejectsCountMismatch: a well-framed chunk whose Count
// disagrees with the vector or with its own data is refused by the
// checks behind the codec, as before.
func TestChunkReaderRejectsCountMismatch(t *testing.T) {
	cts := encryptBits(pkForTest(), 3)
	for name, msg := range map[string]ChunkMsg{
		"wrong offset":          {Off: 1, Count: 3, Data: encodeVector(cts)},
		"zero count":            {Off: 0, Count: 0, Data: encodeVector(cts)},
		"negative count":        {Off: 0, Count: -3, Data: encodeVector(cts)},
		"count past the vector": {Off: 0, Count: 4, Data: encodeVector(cts)},
		"count understates":     {Off: 0, Count: 2, Data: encodeVector(cts)},
		"count overstates":      {Off: 0, Count: 3, Data: encodeVector(cts[:2])},
	} {
		ts, party := wire.Pipe()
		go func() {
			party.Send(kindChunk, msg)
			party.Close()
		}()
		err := recvVectorFunc(ts, 3, func(int, []elgamal.Ciphertext) error { return nil })
		if err == nil {
			t.Errorf("%s: chunk accepted", name)
		}
		ts.Close()
	}
}

// encodeVector packs ciphertexts back to back: the Data field of a
// ChunkMsg, NoiseChunkMsg, BlindChunkMsg or BlockOutMsg.
func encodeVector(v []elgamal.Ciphertext) []byte {
	var out []byte
	for _, c := range v {
		out = c.AppendTo(out)
	}
	return out
}

// packProofs packs proofs back to back at their fixed width: the
// Proofs field of a NoiseChunkMsg or BlindChunkMsg.
func packProofs[P interface{ AppendTo([]byte) []byte }](proofs []P) []byte {
	var out []byte
	for _, p := range proofs {
		out = p.AppendTo(out)
	}
	return out
}

// TestSendEncodersMatchMessages: every send-side encoder writes, behind
// whatever its buffer already holds, exactly the bytes of the message
// it stands for, built the packed way, on a vector whose ciphertexts
// have identity halves (one-byte points, so the packed length is not
// a multiple of the element count).
func TestSendEncodersMatchMessages(t *testing.T) {
	key := elgamal.GenerateKey()
	bits := []bool{true, false, true, true, false}
	cts, rs := elgamal.BatchEncryptBits(key.PK, bits)
	bitProofs := elgamal.BatchProveBits(key.PK, cts, bits, rs)
	blinded, ss := elgamal.BatchExpBlind(cts)
	blindProofs := elgamal.BatchProveBlinds(cts, blinded, ss)
	g := elgamal.Generator()
	id := elgamal.Identity()
	mixed := append([]elgamal.Ciphertext{{C1: id, C2: g}, {C1: g, C2: id}, {C1: id, C2: id}}, cts...)
	opening := elgamal.BlockOpening{Perm: []int{2, 0, 4, 1, 3}, Rand: bytes.Repeat([]byte{0xA5, 0x5A}, 5*openScalarLen/2)}
	openPerm := []byte{2, 0, 0, 0, 4, 0, 1, 0, 3, 0}
	commits := [][32]byte{{1}, {2, 3}}

	prefix := []byte("already in the buffer")
	for _, tc := range []struct {
		name      string
		enc, want wire.WireAppender
	}{
		{"chunk", chunkOut{off: 1024, cts: mixed},
			ChunkMsg{Off: 1024, Count: len(mixed), Data: encodeVector(mixed)}},
		{"empty chunk", chunkOut{off: 0},
			ChunkMsg{}},
		{"noise chunk", provedOut[elgamal.BitProof]{off: 16, cts: cts, proofs: bitProofs, width: elgamal.BitProofLen},
			NoiseChunkMsg{Off: 16, Count: len(cts), Data: encodeVector(cts), Proofs: packProofs(bitProofs)}},
		{"blind chunk", provedOut[elgamal.EqualityProof]{off: 2048, cts: blinded, proofs: blindProofs, width: elgamal.EqualityProofLen},
			BlindChunkMsg{Off: 2048, Count: len(blinded), Data: encodeVector(blinded), Proofs: packProofs(blindProofs)}},
		{"shuffled block", blockOut{pass: 2, block: 7, cts: mixed, commits: commits},
			BlockOutMsg{Pass: 2, Block: 7, Count: len(mixed), Data: encodeVector(mixed), Commits: [][]byte{commits[0][:], commits[1][:]}}},
		{"opening", openingOut{pass: 2, block: 7, round: 5, o: opening},
			BlockShadowMsg{Pass: 2, Block: 7, Round: 5, Count: 5, OpenPerm: openPerm, OpenRand: opening.Rand}},
	} {
		want := tc.want.AppendWire(bytes.Clone(prefix))
		if got := tc.enc.AppendWire(bytes.Clone(prefix)); !bytes.Equal(got, want) {
			t.Errorf("%s: encoder wrote\n%x\nwant\n%x", tc.name, got, want)
		}
		if got := tc.enc.AppendWire(nil); !bytes.Equal(got, want[len(prefix):]) {
			t.Errorf("%s: encoder into an empty buffer disagrees", tc.name)
		}
	}
}
