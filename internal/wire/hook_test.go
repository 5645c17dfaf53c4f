package wire_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/wire"
)

// TestPayloadHookValueAndPointerAgree: the four binary message types
// encode identically whether Send is handed a value or a pointer, what
// they encode is their own layout and not gob, and they decode back to
// themselves; a type without the two methods still travels as gob.
func TestPayloadHookValueAndPointerAgree(t *testing.T) {
	data := bytes.Repeat([]byte{0xC7}, 70)
	cases := []struct {
		val       wire.WireAppender
		headerLen int // fixed header bytes before the first length prefix
		firstLen  int // the length that prefix announces
	}{
		{privcount.ValueChunkMsg{Off: 4096, Raw: data[:64]}, 8, 64},
		{psc.ChunkMsg{Off: 9, Count: 2, Data: data}, 16, 70},
		{psc.BlockOutMsg{Pass: 1, Block: 3, Count: 2, Data: data, Commits: [][]byte{data[:32], data[32:64]}}, 24, 70},
		{psc.BlockShadowMsg{Pass: 1, Block: 3, Round: 5, Count: 2, OpenPerm: data[:4], OpenRand: data[:64]}, 32, 4},
	}
	for _, tc := range cases {
		typ := reflect.TypeOf(tc.val)
		ptr := reflect.New(typ)
		ptr.Elem().Set(reflect.ValueOf(tc.val))

		fromVal, err := wire.EncodePayload(tc.val)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		fromPtr, err := wire.EncodePayload(ptr.Interface())
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if !bytes.Equal(fromVal, fromPtr) {
			t.Errorf("%s: value and pointer encode differently", typ)
		}
		if !bytes.Equal(tc.val.AppendWire(nil), fromVal) {
			t.Errorf("%s: EncodePayload did not use AppendWire", typ)
		}
		// The first byte string's length prefix sits right behind the
		// fixed header: were this gob, it would not.
		if got := binary.LittleEndian.Uint32(fromVal[tc.headerLen:]); int(got) != tc.firstLen {
			t.Errorf("%s: length prefix at byte %d reads %d, want %d", typ, tc.headerLen, got, tc.firstLen)
		}
		back := reflect.New(typ)
		if err := wire.DecodePayload(fromVal, back.Interface()); err != nil {
			t.Fatalf("%s: decode: %v", typ, err)
		}
		if !reflect.DeepEqual(back.Elem().Interface(), tc.val) {
			t.Errorf("%s: round trip gave %+v, want %+v", typ, back.Elem(), tc.val)
		}
	}

	// No methods: gob, as before — a struct, and a bare slice like the
	// one the benchmark's seal probe encodes.
	type control struct {
		From string
		N    int
		Keys map[string][]byte
	}
	want := control{From: "dc-0", N: 3, Keys: map[string][]byte{"sk": {1, 2}}}
	b, err := wire.EncodePayload(want)
	if err != nil {
		t.Fatal(err)
	}
	var got control
	if err := wire.DecodePayload(b, &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("gob fallback: got %+v, err %v", got, err)
	}
	vec := []uint64{1, 1 << 63, 0}
	if b, err = wire.EncodePayload(vec); err != nil {
		t.Fatal(err)
	}
	var vecBack []uint64
	if err := wire.DecodePayload(b, &vecBack); err != nil || !reflect.DeepEqual(vecBack, vec) {
		t.Fatalf("gob fallback: got %v, err %v", vecBack, err)
	}
}
