package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary payloads. The bulk messages — the ones whose fields are only
// integers and byte strings, and which carry nearly every byte of a
// round — encode themselves instead of going through gob: a fixed
// little-endian header, then the byte strings, so a payload is copied
// once on the way out (AppendWire into the payload) and not at all on
// the way in (ParseWire hands out sub-slices of the frame body).
//
// The two methods are deliberately not encoding.BinaryMarshaler and
// BinaryUnmarshaler: UnmarshalBinary's contract obliges the callee to
// copy what it keeps, which is the copy this path exists to avoid, and
// gob itself would pick up MarshalBinary.

// WireAppender is implemented — on the value receiver, so that a value
// and a pointer encode identically — by messages that write their own
// payload. AppendWire appends the encoding to b and returns the result.
type WireAppender interface {
	AppendWire(b []byte) []byte
}

// WireParser is the decoding half, on the pointer receiver. The parsed
// fields may alias b: a parsed message shares its frame's body, on the
// terms of the package doc's ownership rule.
type WireParser interface {
	ParseWire(b []byte) error
}

// ErrBadPayload reports a binary payload that is truncated, carries
// trailing bytes, or announces a length its bytes do not back.
var ErrBadPayload = errors.New("wire: malformed binary payload")

// Grow returns b with room for n more bytes, reallocating at most
// once and to exactly that size. (slices.Grow would do, but its
// append-of-make idiom allocates the addend for real when the race
// detector is on, which is when the allocation guard tests run.)
func Grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	out := make([]byte, len(b), len(b)+n)
	copy(out, b)
	return out
}

// AppendInt appends v as eight little-endian bytes (two's complement,
// so a negative value survives to be rejected by the check that owns
// it).
func AppendInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
}

// AppendLen appends a bare count as a little-endian uint32 — the
// prefix of a byte string or of a list of them. A payload never
// outgrows a frame, so the count always fits.
func AppendLen(b []byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

// AppendBytes appends p behind its AppendLen length.
func AppendBytes(b, p []byte) []byte {
	return append(AppendLen(b, len(p)), p...)
}

// appendString is AppendBytes for a string, which it does not copy
// first.
func appendString(b []byte, s string) []byte {
	return append(AppendLen(b, len(s)), s...)
}

// Encoded sizes, for an AppendWire to grow its buffer once.
const (
	IntSize = 8 // an AppendInt field
	LenSize = 4 // an AppendLen count
)

// BytesSize is the encoded size of an n-byte AppendBytes string.
func BytesSize(n int) int { return LenSize + n }

// Parser is a cursor over a binary payload. Reads past the end latch
// an error and return zero values, so a ParseWire reads its fields
// unconditionally and checks Done once. Nothing is ever allocated or
// sliced from a length that has not been compared with what remains.
type Parser struct {
	b   []byte
	err error
}

// NewParser starts parsing b.
func NewParser(b []byte) Parser { return Parser{b: b} }

func (p *Parser) fail(what string) {
	if p.err == nil {
		p.err = fmt.Errorf("%w: %s", ErrBadPayload, what)
	}
}

// Int reads an AppendInt field.
func (p *Parser) Int() int {
	v := int64(p.u64())
	if int64(int(v)) != v {
		p.fail("integer overflows int")
		return 0
	}
	return int(v)
}

// u64 reads eight little-endian bytes as they were written: an
// AppendInt field, or a mux control field that uses all 64 bits.
func (p *Parser) u64() uint64 {
	if p.err != nil || len(p.b) < IntSize {
		p.fail("truncated integer")
		return 0
	}
	v := binary.LittleEndian.Uint64(p.b)
	p.b = p.b[IntSize:]
	return v
}

// Len reads an AppendLen count and requires at least min (> 0)
// remaining bytes per counted item — the bound a caller needs before
// sizing an allocation from the count.
func (p *Parser) Len(min int) int {
	if p.err != nil || len(p.b) < LenSize {
		p.fail("truncated length")
		return 0
	}
	n := uint64(binary.LittleEndian.Uint32(p.b))
	if n > uint64(len(p.b)-LenSize)/uint64(min) {
		p.fail("length overruns payload")
		return 0
	}
	p.b = p.b[LenSize:]
	return int(n)
}

// Bytes reads an AppendBytes field as a sub-slice of the payload,
// capped at its own length so an append on it reallocates instead of
// writing into the next field. An empty string reads as nil, as gob
// would have delivered it.
func (p *Parser) Bytes() []byte {
	n := p.Len(1)
	if p.err != nil || n == 0 {
		return nil
	}
	out := p.b[:n:n]
	p.b = p.b[n:]
	return out
}

// Done reports the first error, or trailing bytes if the payload was
// not consumed exactly.
func (p *Parser) Done() error {
	if p.err == nil && len(p.b) != 0 {
		p.fail(fmt.Sprintf("%d trailing bytes", len(p.b)))
	}
	return p.err
}
