package psc

import (
	"bytes"
	"testing"

	"repro/internal/elgamal"
	"repro/internal/wire"
)

// Fuzzing for the block-proof codec: whatever bytes a malicious or
// confused CP ships as shuffled blocks, round openings, or re-streamed
// feeds, the tally must get a clean error — never a panic or a bogus
// acceptance of malformed structure. A payload passes two gates, as it
// does in a round: the message's own ParseWire (framing: lengths that
// the bytes back, nothing trailing), reached through
// wire.DecodePayload, then the parse* function (meaning: position,
// counts, widths, curve points). The seeds include well-framed payloads
// that only the second gate can refuse, so both are reached from the
// corpus and not just by mutation.

// mustEncode is wire.EncodePayload for seed construction.
func mustEncode(f *testing.F, v any) []byte {
	f.Helper()
	b, err := wire.EncodePayload(v)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// checkCanonical requires that a payload ParseWire accepted is the one
// encoding of what it parsed to.
func checkCanonical(t *testing.T, payload []byte, msg wire.WireAppender) {
	t.Helper()
	if again := msg.AppendWire(nil); !bytes.Equal(again, payload) {
		t.Fatalf("accepted payload %x re-encodes to %x", payload, again)
	}
}

// FuzzBlockOutCodec mutates a well-formed BlockOutMsg payload.
func FuzzBlockOutCodec(f *testing.F) {
	pk := pkForTest()
	cts := encryptBits(pk, 3)
	good := BlockOutMsg{Pass: 1, Block: 0, Count: 3, Data: encodeVector(cts), Commits: [][]byte{make([]byte, 32), make([]byte, 32)}}
	seed := mustEncode(f, good)
	f.Add(seed, 3, 2)
	f.Add([]byte{}, 0, 0)
	f.Add([]byte{0xff, 0x00, 0x41}, 1, 1)
	f.Add(seed[:len(seed)-1], 3, 2)           // truncated: ParseWire's to refuse
	f.Add(append(bytes.Clone(seed), 0), 3, 2) // trailing byte: likewise
	f.Add(seed, 2, 2)                         // well framed, wrong count: parseBlockOut's
	f.Add(seed, 3, 1)                         // well framed, wrong round count
	short := good
	short.Commits = [][]byte{make([]byte, 31), make([]byte, 32)}
	f.Add(mustEncode(f, short), 3, 2) // well framed, 31-byte commitment
	f.Fuzz(func(t *testing.T, payload []byte, count, rounds int) {
		if count < 0 || count > 64 || rounds < 0 || rounds > 16 {
			return
		}
		var msg BlockOutMsg
		if err := wire.DecodePayload(payload, &msg); err != nil {
			return
		}
		checkCanonical(t, payload, msg)
		if len(msg.Data) > 1<<16 {
			return
		}
		outB, commits, err := parseBlockOut(msg, msg.Pass, msg.Block, count, rounds)
		if err != nil {
			return
		}
		// Structural acceptance must mean structural validity.
		if len(outB) != count || len(commits) != rounds {
			t.Fatalf("parseBlockOut accepted %d elements / %d commits, want %d / %d", len(outB), len(commits), count, rounds)
		}
		for _, c := range outB {
			if !c.IsValid() {
				t.Fatal("parseBlockOut accepted an invalid ciphertext")
			}
		}
	})
}

// FuzzBlockShadowCodec mutates a well-formed BlockShadowMsg payload —
// the frame carrying one round's opening (fixed-width permutation
// indices and randomizers; no ciphertexts).
func FuzzBlockShadowCodec(f *testing.F) {
	pk := pkForTest()
	in := encryptBits(pk, 3)
	out, w := elgamal.Shuffle(pk, in)
	tr := elgamal.NewShuffleTranscript(pk, 3, 3, 1, 1)
	proof, err := elgamal.ProveShuffleBlock(tr, 1, 0, pk, in, out, w, 1)
	if err != nil {
		f.Fatal(err)
	}
	seed := mustEncode(f, openingOut{pass: 1, block: 0, round: 0, o: proof.Openings[0]})
	var good BlockShadowMsg
	if err := good.ParseWire(seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed, 3)
	f.Add([]byte{}, 0)
	f.Add([]byte{0x01, 0x02, 0x03, 0x04}, 2)
	f.Add(seed[:len(seed)-1], 3)           // truncated: ParseWire's to refuse
	f.Add(append(bytes.Clone(seed), 0), 3) // trailing byte: likewise
	f.Add(seed, 2)                         // well framed, wrong count: parseBlockShadow's
	ragged := good
	ragged.OpenPerm = good.OpenPerm[:5]
	f.Add(mustEncode(f, ragged), 3) // well framed, odd-length index field
	f.Fuzz(func(t *testing.T, payload []byte, count int) {
		if count < 0 || count > 64 {
			return
		}
		var msg BlockShadowMsg
		if err := wire.DecodePayload(payload, &msg); err != nil {
			return
		}
		checkCanonical(t, payload, msg)
		o, err := parseBlockShadow(msg, msg.Pass, msg.Block, msg.Round, count, nil)
		if err != nil {
			return
		}
		// Structural acceptance must mean exact fixed-width framing.
		if len(msg.OpenPerm) != openIndexLen*count || len(msg.OpenRand) != openScalarLen*count {
			t.Fatalf("parseBlockShadow accepted %d index and %d scalar bytes for %d elements", len(msg.OpenPerm), len(msg.OpenRand), count)
		}
		if len(o.Perm) != count || len(o.Rand) != openScalarLen*count {
			t.Fatal("parseBlockShadow accepted mismatched sizes")
		}
		// The scalars are the frame's own bytes, not a copy.
		if count > 0 && &o.Rand[0] != &msg.OpenRand[0] {
			t.Fatal("parseBlockShadow copied the scalars out of the frame")
		}
	})
}

// TestBlockCodecRejectsMalformed pins the specific malformed shapes the
// fuzzers explore: they must error, not panic, and never be accepted.
func TestBlockCodecRejectsMalformed(t *testing.T) {
	pk := pkForTest()
	cts := encryptBits(pk, 3)
	data := encodeVector(cts)

	cases := []BlockOutMsg{
		{Pass: 2, Block: 0, Count: 3, Data: data},                                              // wrong pass
		{Pass: 1, Block: 1, Count: 3, Data: data},                                              // wrong block
		{Pass: 1, Block: 0, Count: 2, Data: data},                                              // count understates data
		{Pass: 1, Block: 0, Count: 3, Data: data[:10]},                                         // truncated ciphertexts
		{Pass: 1, Block: 0, Count: 3, Data: data, Commits: [][]byte{make([]byte, 31), {}, {}}}, // short commitment
		{Pass: 1, Block: 0, Count: 3, Data: data, Commits: [][]byte{make([]byte, 32)}},         // missing commitments
	}
	for i, msg := range cases {
		if _, _, err := parseBlockOut(overWire(t, msg), 1, 0, 3, 3); err == nil {
			t.Errorf("malformed BlockOutMsg %d accepted", i)
		}
	}

	perm, rand := make([]byte, openIndexLen*3), make([]byte, openScalarLen*3)
	if _, err := parseBlockShadow(overWire(t, BlockShadowMsg{Pass: 1, Block: 0, Round: 0, Count: 3, OpenPerm: perm, OpenRand: rand}), 1, 0, 0, 3, nil); err != nil {
		t.Errorf("well-formed BlockShadowMsg rejected: %v", err)
	}
	shadowCases := []BlockShadowMsg{
		{Pass: 1, Block: 0, Round: 1, Count: 3, OpenPerm: perm, OpenRand: rand},                                      // wrong round
		{Pass: 1, Block: 1, Round: 0, Count: 3, OpenPerm: perm, OpenRand: rand},                                      // wrong block
		{Pass: 1, Block: 0, Round: 0, Count: 2, OpenPerm: perm[:4], OpenRand: rand[:64]},                             // Count disagrees with the block
		{Pass: 1, Block: 0, Round: 0, Count: 3, OpenPerm: perm[:4], OpenRand: rand},                                  // short perm
		{Pass: 1, Block: 0, Round: 0, Count: 3, OpenPerm: perm[:5], OpenRand: rand},                                  // odd-length perm
		{Pass: 1, Block: 0, Round: 0, Count: 3, OpenPerm: append(perm[:6:6], 0), OpenRand: rand},                     // trailing perm byte
		{Pass: 1, Block: 0, Round: 0, Count: 3, OpenPerm: perm, OpenRand: rand[:64]},                                 // short rands
		{Pass: 1, Block: 0, Round: 0, Count: 3, OpenPerm: perm, OpenRand: rand[:95]},                                 // truncated scalar
		{Pass: 1, Block: 0, Round: 0, Count: 3, OpenPerm: perm, OpenRand: append(rand[:96:96], make([]byte, 32)...)}, // trailing scalar
		{Pass: 1, Block: 0, Round: 0, Count: 3},                                                                      // empty opening
	}
	for i, msg := range shadowCases {
		if _, err := parseBlockShadow(overWire(t, msg), 1, 0, 0, 3, nil); err == nil {
			t.Errorf("malformed BlockShadowMsg %d accepted", i)
		}
	}
}

// overWire returns msg as the tally would hold it: encoded by the
// sender and parsed back out of the payload, so the shapes above reach
// the parse* checks through the codec and not around it.
func overWire[M any, P interface {
	*M
	wire.WireParser
}](t *testing.T, msg M) M {
	t.Helper()
	payload, err := wire.EncodePayload(msg)
	if err != nil {
		t.Fatal(err)
	}
	var back M
	if err := wire.DecodePayload(payload, P(&back)); err != nil {
		t.Fatalf("well-framed %T refused by its codec: %v", msg, err)
	}
	return back
}
