package privcount

import (
	"encoding/binary"
	"fmt"

	"repro/internal/wire"
)

// Wire message kinds exchanged between the PrivCount parties. Every
// message travels as a wire.Frame whose payload encodes one of these
// structs: gob for the control messages, a fixed binary layout for
// ValueChunkMsg, which carries all of a round's vector bytes. Counter
// vectors travel as bounded chunk frames after a header, never as one
// frame; blinding shares never travel at all, only the sealed seeds
// they expand from.
const (
	kindRegister  = "privcount/register"
	kindConfigure = "privcount/configure"
	kindShares    = "privcount/shares"
	kindRelay     = "privcount/relay-shares"
	kindBegin     = "privcount/begin"
	kindReport    = "privcount/report"
	kindCollect   = "privcount/collect"
	kindSums      = "privcount/sums"
	kindChunk     = "privcount/chunk"
	kindResults   = "privcount/results"
)

// ChunkSlots is how many uint64 counter slots travel per chunk frame
// (and expand per step of a blinding seed): 32 KiB of payload, far
// below any frame cap.
const ChunkSlots = 4096

// maxSlots bounds the slot count of a round: the total a schema may
// describe, and so the counters a DC allocates from its configure
// frame, and the number an SK accepts in its own. The SK never sees the
// schema and the DC sees only bin counts, so nothing else caps the
// allocation a tally server can ask of either. 2²⁴ slots is 128 MiB of
// counters or sums.
const maxSlots = 1 << 24

// forEachChunk invokes fn(off, end) over [0, n) in ChunkSlots-sized
// ranges.
func forEachChunk(n int, fn func(off, end int) error) error {
	for off := 0; off < n; off += ChunkSlots {
		end := off + ChunkSlots
		if end > n {
			end = n
		}
		if err := fn(off, end); err != nil {
			return err
		}
	}
	return nil
}

// sendValues streams a counter vector as bounded chunks after its
// header has announced len(v) slots.
func sendValues(m wire.Messenger, v []uint64) error {
	raw := make([]byte, 8*min(len(v), ChunkSlots))
	return forEachChunk(len(v), func(off, end int) error {
		buf := raw[:8*(end-off)]
		for i, x := range v[off:end] {
			binary.LittleEndian.PutUint64(buf[8*i:], x)
		}
		return m.Send(kindChunk, ValueChunkMsg{Off: off, Raw: buf})
	})
}

// recvValuesFunc consumes chunk frames until n slots have arrived,
// invoking fn with each chunk's raw slots (eight little-endian bytes
// apiece) as it lands, so callers fold or spill the vector instead of
// buffering it whole. Chunks must tile [0, n) in order.
func recvValuesFunc(m wire.Messenger, n int, fn func(off int, raw []byte) error) error {
	for off := 0; off < n; {
		var c ValueChunkMsg
		if err := m.Expect(kindChunk, &c); err != nil {
			return err
		}
		count := len(c.Raw) / 8
		if c.Off != off || count == 0 || len(c.Raw)%8 != 0 || count > n-off {
			return fmt.Errorf("privcount: chunk of %d bytes at slot %d does not continue vector at %d/%d",
				len(c.Raw), c.Off, off, n)
		}
		if err := fn(off, c.Raw); err != nil {
			return err
		}
		off += count
	}
	return nil
}

// Party roles.
const (
	RoleDC = "dc"
	RoleSK = "sk"
)

// RegisterMsg announces a party to the tally server. Share keepers
// include their sealed-box public key.
type RegisterMsg struct {
	Role    string
	Name    string
	SealPub []byte
}

// ConfigureMsg carries the round configuration from the TS to every
// party. DCs learn the schema's shape (Shapes: each statistic's name,
// bin count and sigma — never a bin label, which only the operator
// reading the tally's output needs), their noise weight, and the SK
// public keys to seal blinding seeds to; SKs learn only the schema's
// slot count (Slots — they never need the statistic names either), how
// many DCs to expect, and the round's declared DC quorum floor
// (MinDCs): an SK refuses a collect request naming fewer DCs, so a TS
// cannot adaptively subset the aggregate below the policy it declared
// before collection began.
type ConfigureMsg struct {
	Round       uint64
	Shapes      []StatShape // DCs only
	Slots       int         // SKs only
	NumDCs      int
	MinDCs      int
	SKNames     []string
	SKKeys      map[string][]byte
	NoiseWeight float64
}

// SharesMsg is a DC's whole blinding-share distribution: one sealed
// 32-byte seed per SK, keyed by SK name. The TS relays each box
// to its SK without being able to open it. The frame's size depends on
// the SK count alone, not on the schema.
type SharesMsg struct {
	From string
	// N is the schema slot count every seed expands to.
	N     int
	Boxes map[string][]byte
}

// RelayMsg delivers one DC's sealed seed to a share keeper.
type RelayMsg struct {
	From string
	N    int // slots the seed expands to
	Box  []byte
}

// BeginMsg tells DCs the collection phase has started.
type BeginMsg struct {
	Round uint64
}

// ReportMsg opens a DC's end-of-round report: blinded, noised counters,
// chunked as ValueChunkMsg frames.
type ReportMsg struct {
	From  string
	Round uint64
	N     int
}

// CollectMsg asks a share keeper for its blinding sums. DCs lists the
// data collectors whose reports the tally actually holds: the SK sums
// exactly those DCs' blinding shares, so a DC that distributed shares
// but never reported (churn, crash) is excluded on both sides of the
// telescoping sum instead of corrupting the aggregate. The list is
// never implicit: an SK refuses a collect naming fewer DCs than the
// round's quorum floor, an empty list included.
type CollectMsg struct {
	Round uint64
	DCs   []string
}

// SumsMsg opens a share keeper's response — the negated sum of all
// blinding shares it received — chunked as ValueChunkMsg frames.
type SumsMsg struct {
	From  string
	Round uint64
	N     int
}

// ValueChunkMsg carries one slot range of a counter vector: Raw holds
// the slots starting at Off, eight little-endian bytes apiece. Blinded
// values are uniform in ℤ₂⁶⁴, so fixed width is also the shortest
// encoding. It travels in its own binary form (wire.WireAppender), not
// gob: [Off int][Raw bytes]. A received Raw aliases the frame it
// arrived in.
type ValueChunkMsg struct {
	Off int
	Raw []byte
}

// AppendWire implements wire.WireAppender.
func (c ValueChunkMsg) AppendWire(b []byte) []byte {
	b = wire.Grow(b, wire.IntSize+wire.BytesSize(len(c.Raw)))
	b = wire.AppendInt(b, c.Off)
	return wire.AppendBytes(b, c.Raw)
}

// ParseWire implements wire.WireParser.
func (c *ValueChunkMsg) ParseWire(b []byte) error {
	p := wire.NewParser(b)
	c.Off, c.Raw = p.Int(), p.Bytes()
	return p.Done()
}
