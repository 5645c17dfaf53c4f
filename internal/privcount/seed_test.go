package privcount

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/wire"
)

func expandAll(t testing.TB, seed []byte, n int) []uint64 {
	t.Helper()
	out := make([]uint64, n)
	next := 0
	err := expandSeed(seed, n, func(off int, shares []uint64) error {
		if off != next || len(shares) == 0 || len(shares) > seedStep {
			t.Fatalf("expansion step [%d,+%d) does not continue at %d", off, len(shares), next)
		}
		copy(out[off:], shares)
		next += len(shares)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("expansion covered %d of %d slots", next, n)
	}
	return out
}

func TestSeedExpansionDeterministicAndOffsetIndependent(t *testing.T) {
	const n = 2*ChunkSlots + 37
	seedA := bytes.Repeat([]byte{0xA5}, seedSize)
	seedB := bytes.Repeat([]byte{0xA5}, seedSize)
	seedB[seedSize-1] ^= 1

	a := expandAll(t, seedA, n)
	if !slices.Equal(a, expandAll(t, seedA, n)) {
		t.Fatal("same seed expanded to different vectors")
	}
	// A slot depends on (seed, index) alone: shorter expansions are
	// prefixes, wherever the chunk boundaries fall.
	for _, m := range []int{1, 10, seedStep - 1, seedStep, seedStep + 1, ChunkSlots + 1} {
		if !slices.Equal(a[:m], expandAll(t, seedA, m)) {
			t.Fatalf("%d-slot expansion is not a prefix of the %d-slot one", m, n)
		}
	}
	// The chunk-wise expansion equals the keystream drawn in one call.
	block, err := aes.NewCipher(seedA)
	if err != nil {
		t.Fatal(err)
	}
	oneShot := make([]byte, 8*n)
	cipher.NewCTR(block, make([]byte, aes.BlockSize)).XORKeyStream(oneShot, oneShot)
	for i, got := range a {
		if want := binary.LittleEndian.Uint64(oneShot[8*i:]); got != want {
			t.Fatalf("slot %d: chunk-wise %#x, one-shot %#x", i, got, want)
		}
	}

	b := expandAll(t, seedB, n)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("seeds differing in one bit agree on %d of %d slots", same, n)
	}

	// Known answer: AES-256 under the all-zero key maps the all-zero
	// counter block to dc95c078 a2408989 ad48a214 92842087; slots are
	// its halves read little-endian.
	kat := expandAll(t, make([]byte, seedSize), 2)
	if want := []uint64{0x898940a278c095dc, 0x8720849214a248ad}; !slices.Equal(kat, want) {
		t.Fatalf("known-answer vector: got %#x, want %#x", kat, want)
	}

	if err := expandSeed(make([]byte, 16), 1, nil); err == nil {
		t.Fatal("a 16-byte seed must be refused, not used as an AES-128 key")
	}
}

// TestSeedExpansionScratchIsSmall: however long the vector, an
// expansion allocates one seedStep scratch beside the cipher's own
// state — about 5 KiB for 100 000 slots, where a ChunkSlots step of
// keystream and slots took 64 KiB.
func TestSeedExpansionScratchIsSmall(t *testing.T) {
	const runs = 20
	seed := bytes.Repeat([]byte{0x5A}, seedSize)
	var sum uint64
	expand := func() {
		err := expandSeed(seed, 100_000, func(_ int, shares []uint64) error {
			sum += shares[0]
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	expand()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		expand()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("expanding 100 000 slots allocates %d bytes", perCall)
	// One small scratch (4 KiB at seedStep 256) and the cipher's state.
	const bound = 10 << 10
	if perCall > bound {
		t.Fatalf("expanding 100 000 slots allocates %d bytes, want at most %d", perCall, bound)
	}
}

// TestSharesFrameIsConstantSize plays the tally server to one DC of a
// 3-SK round and records every frame the DC sends: the whole share
// distribution is one small frame whatever the schema size, and nothing
// travels between it and the report.
func TestSharesFrameIsConstantSize(t *testing.T) {
	var skNames []string
	skKeys := make(map[string][]byte)
	for i := 0; i < 3; i++ {
		k, err := NewSealKey()
		if err != nil {
			t.Fatal(err)
		}
		skNames = append(skNames, skName(i))
		skKeys[skName(i)] = k.Public()
	}
	for _, slots := range []int{10, 100_000} {
		stats := make([]StatConfig, 10)
		for i := range stats {
			stats[i] = StatConfig{Name: fmt.Sprintf("stat-%d", i), Bins: make([]string, slots/10)}
		}
		tsSide, dcSide := wire.Pipe()
		dc := NewDC("dc", dcSide, nil)

		type seen struct {
			kind string
			size int
		}
		frames := make(chan []seen, 1)
		go func() {
			var got []seen
			defer func() { frames <- got }()
			recv := func() (wire.Frame, bool) {
				f, err := tsSide.Recv()
				if err != nil {
					return f, false
				}
				got = append(got, seen{f.Kind, len(f.Payload)})
				return f, true
			}
			tsSide.Send(kindConfigure, ConfigureMsg{Round: 1, Shapes: shapesOf(stats), NumDCs: 1, SKNames: skNames, SKKeys: skKeys})
			if _, ok := recv(); !ok { // shares
				return
			}
			tsSide.Send(kindBegin, BeginMsg{Round: 1})
			for n := 0; n < slots; { // report header, then chunks
				f, ok := recv()
				if !ok {
					return
				}
				if f.Kind == kindChunk {
					var c ValueChunkMsg
					if wire.DecodePayload(f.Payload, &c) != nil {
						return
					}
					n += len(c.Raw) / 8
				}
			}
		}()
		if err := dc.Setup(); err != nil {
			t.Fatal(err)
		}
		if err := dc.Finish(); err != nil {
			t.Fatal(err)
		}
		got := <-frames

		wantKinds := []string{kindShares, kindReport}
		for n := 0; n < slots; n += FrameSlots {
			wantKinds = append(wantKinds, kindChunk)
		}
		var kinds []string
		for _, f := range got {
			kinds = append(kinds, f.kind)
		}
		if !slices.Equal(kinds, wantKinds) {
			t.Fatalf("%d slots: DC sent frames %v, want %v", slots, kinds, wantKinds)
		}
		if size := got[0].size; size >= 1024 {
			t.Fatalf("%d slots: shares frame payload is %d bytes, want < 1 KiB", slots, size)
		}
	}
}

// scriptConn is a Messenger that replays a fixed frame script to the
// party under test and records what it sends.
type scriptConn struct {
	in   []wire.Frame
	sent []wire.Frame
}

func (c *scriptConn) push(kind string, v any) {
	payload, err := wire.EncodePayload(v)
	if err != nil {
		panic(err)
	}
	c.in = append(c.in, wire.Frame{Kind: kind, Payload: payload})
}

func (c *scriptConn) Send(kind string, v any) error {
	payload, err := wire.EncodePayload(v)
	if err != nil {
		return err
	}
	return c.SendFrame(wire.Frame{Kind: kind, Payload: payload})
}

func (c *scriptConn) SendFrame(f wire.Frame) error {
	c.sent = append(c.sent, f)
	return nil
}

func (c *scriptConn) Recv() (wire.Frame, error) {
	if len(c.in) == 0 {
		return wire.Frame{}, wire.ErrClosed
	}
	f := c.in[0]
	c.in = c.in[1:]
	return f, nil
}

func (c *scriptConn) Expect(kind string, out any) error {
	f, err := c.Recv()
	if err != nil {
		return err
	}
	if f.Kind != kind {
		return fmt.Errorf("expected %q frame, got %q", kind, f.Kind)
	}
	return wire.DecodePayload(f.Payload, out)
}

func (c *scriptConn) Close() error { return nil }

// FuzzSharesRelayCodec feeds one mutated payload to each consumer of
// the share-distribution and chunk frames — the TS relaying a
// SharesMsg, an SK receiving a RelayMsg, and the chunk reader — and
// requires that whatever they accept is structurally what they were
// configured for.
func FuzzSharesRelayCodec(f *testing.F) {
	const slots = 5
	key, err := NewSealKey()
	if err != nil {
		f.Fatal(err)
	}
	sk := &SK{Name: "sk", key: key}
	box, err := Seal(key.Public(), newSeed())
	if err != nil {
		f.Fatal(err)
	}
	for _, good := range []any{
		SharesMsg{N: slots, Boxes: map[string][]byte{"sk": box}},
		RelayMsg{From: "dc", N: slots, Box: box},
		ValueChunkMsg{Off: 0, Raw: make([]byte, 8*slots)},
	} {
		payload, err := wire.EncodePayload(good)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x41})
	// The chunk frame is binary: seeds its ParseWire must refuse
	// (truncated, trailing byte), and well-framed ones that only the
	// chunk reader's tiling check can (wrong offset, ragged slot, one
	// slot too many).
	chunk, err := wire.EncodePayload(ValueChunkMsg{Off: 0, Raw: make([]byte, 8*slots)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chunk[:len(chunk)-1])
	f.Add(append(bytes.Clone(chunk), 0))
	for _, bad := range []ValueChunkMsg{
		{Off: 1, Raw: make([]byte, 8)},
		{Off: 0, Raw: make([]byte, 8*slots-3)},
		{Off: 0, Raw: make([]byte, 8*(slots+1))},
	} {
		payload, err := wire.EncodePayload(bad)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}

	bins := make([]string, slots)
	tally, err := NewTally(TallyConfig{Round: 1, Stats: []StatConfig{{Name: "s", Bins: bins}}, NumDCs: 1, NumSKs: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		// TS: a relayed box is the one the DC addressed to that SK.
		var shares SharesMsg
		dcConn, skConn := &scriptConn{in: []wire.Frame{{Kind: kindShares, Payload: payload}}}, &scriptConn{}
		err := tally.relayShares("dc", dcConn, []string{"sk"}, []wire.Messenger{skConn})
		if err == nil {
			var relay RelayMsg
			if wire.DecodePayload(payload, &shares) != nil || len(skConn.sent) != 1 ||
				wire.DecodePayload(skConn.sent[0].Payload, &relay) != nil ||
				relay.N != slots || !bytes.Equal(relay.Box, shares.Boxes["sk"]) {
				t.Fatalf("relayShares accepted %+v and relayed %d frames", shares, len(skConn.sent))
			}
		}

		// SK: an answered collect is a full-length sums vector. The
		// collect names whichever DC the payload claims to come from
		// (an undecodable payload fails at the relay frame anyway).
		var from RelayMsg
		wire.DecodePayload(payload, &from)
		conn := &scriptConn{}
		conn.push(kindConfigure, ConfigureMsg{Round: 1, Slots: slots, NumDCs: 1})
		conn.in = append(conn.in, wire.Frame{Kind: kindRelay, Payload: payload})
		conn.push(kindCollect, CollectMsg{Round: 1, DCs: []string{from.From}})
		if err := sk.ServeRound(conn); err == nil {
			var sums SumsMsg
			if len(conn.sent) != 3 || conn.sent[1].Kind != kindSums ||
				wire.DecodePayload(conn.sent[1].Payload, &sums) != nil || sums.N != slots {
				t.Fatalf("SK served the round with %d frames, sums %+v", len(conn.sent), sums)
			}
		}

		// Chunk reader: an accepted chunk lies inside the vector, and
		// its payload is the one encoding of what was parsed from it.
		chunk := &scriptConn{in: []wire.Frame{{Kind: kindChunk, Payload: payload}}}
		recvValuesFunc(chunk, slots, func(off int, raw []byte) error {
			if off != 0 || len(raw) == 0 || len(raw)%8 != 0 || len(raw)/8 > slots {
				t.Fatalf("chunk reader accepted %d bytes at slot %d of %d", len(raw), off, slots)
			}
			if again := (ValueChunkMsg{Off: off, Raw: raw}).AppendWire(nil); !bytes.Equal(again, payload) {
				t.Fatalf("accepted chunk payload %x re-encodes to %x", payload, again)
			}
			return nil
		})
	})
}
