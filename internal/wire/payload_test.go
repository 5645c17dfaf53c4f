package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestParserFields(t *testing.T) {
	b := AppendInt(nil, -3)
	b = AppendBytes(b, []byte("left"))
	b = AppendBytes(b, nil)
	b = AppendLen(b, 2)
	b = AppendBytes(b, []byte("x"))
	b = AppendBytes(b, []byte("yz"))
	if want := IntSize + BytesSize(4) + BytesSize(0) + LenSize + BytesSize(1) + BytesSize(2); len(b) != want {
		t.Fatalf("encoded %d bytes, sizes add to %d", len(b), want)
	}

	p := NewParser(b)
	if v := p.Int(); v != -3 {
		t.Fatalf("Int: %d", v)
	}
	left := p.Bytes()
	if empty := p.Bytes(); empty != nil {
		t.Fatalf("empty string parsed as %v, want nil", empty)
	}
	if n := p.Len(BytesSize(0)); n != 2 {
		t.Fatalf("Len: %d", n)
	}
	x, yz := p.Bytes(), p.Bytes()
	if err := p.Done(); err != nil {
		t.Fatal(err)
	}
	if string(left) != "left" || string(x) != "x" || string(yz) != "yz" {
		t.Fatalf("parsed %q %q %q", left, x, yz)
	}
	// Fields alias the payload but cannot grow into their neighbours.
	if &left[0] != &b[IntSize+LenSize] {
		t.Fatal("Bytes copied instead of aliasing")
	}
	orig := bytes.Clone(b)
	_ = append(left, "!!!!"...)
	_ = append(x, '!')
	if !bytes.Equal(b, orig) {
		t.Fatal("append on a parsed field wrote into the payload")
	}
}

func TestParserRejects(t *testing.T) {
	u32 := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	cases := []struct {
		name string
		b    []byte
		read func(p *Parser)
	}{
		{"short integer", make([]byte, IntSize-1), func(p *Parser) { p.Int() }},
		{"short length", []byte{1, 0, 0}, func(p *Parser) { p.Bytes() }},
		{"string longer than the payload", append(u32(5), "abcd"...), func(p *Parser) { p.Bytes() }},
		{"string length near 2^32", append(u32(1<<32-1), "abcd"...), func(p *Parser) { p.Bytes() }},
		{"count its items cannot back", append(u32(3), make([]byte, 11)...), func(p *Parser) { p.Len(4) }},
		{"count whose product with the item size overflows", u32(1 << 31), func(p *Parser) { p.Len(1 << 40) }},
		{"trailing byte", append(AppendBytes(nil, []byte("ab")), 0), func(p *Parser) { p.Bytes() }},
		{"reads after a failure stay failed", AppendInt(make([]byte, 3), 1), func(p *Parser) {
			p.Bytes() // announces 2^24-odd bytes: fails
			if v := p.Int(); v != 0 {
				t.Errorf("Int after a failure returned %d", v)
			}
		}},
	}
	for _, tc := range cases {
		p := NewParser(tc.b)
		tc.read(&p)
		if err := p.Done(); !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s: got %v, want ErrBadPayload", tc.name, err)
		}
	}
}
