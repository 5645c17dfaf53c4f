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
// they expand from. No frame names its sender: the tally knows every
// party by the name its engine hello pinned.
const (
	kindRegister  = "privcount/register"     // SK->TS seal key; a DC sends none
	kindConfigure = "privcount/configure"    // TS->SK, TS->DC
	kindShares    = "privcount/shares"       // DC->TS sealed seeds, one per SK
	kindRelay     = "privcount/relay-shares" // TS->SK one DC's seed, under the DC's name
	kindBegin     = "privcount/begin"        // TS->DC collection starts
	kindReport    = "privcount/report"       // DC->TS report header, then chunks
	kindCollect   = "privcount/collect"      // TS->SK the names of the DCs that reported
	kindSums      = "privcount/sums"         // SK->TS sums header, then chunks
	kindChunk     = "privcount/chunk"        // one counter-vector chunk
)

// ChunkSlots is the step, in counter slots, in which a tally folds a
// buffered report (a seed expands in its own, smaller seedStep). It
// stays a power of two: the benchmark's probes size their chunks by it
// and assume it divides their 2¹⁸-slot spill.
const ChunkSlots = 4096

// FrameSlots is how many counter slots travel per chunk frame: the
// most whose frame body fits in 32 KiB, Go's largest small-object size
// class, so receiving a chunk allocates exactly that class and not a
// 40 KiB page span. The body is the frame envelope after its length
// prefix (u16 kind length, the kind, u64 stream ID) and then the
// ValueChunkMsg payload (Off, then Raw behind its length):
// 2 + 15 + 8 + 8 + 4 + 8·slots ≤ 32 768, so 4091 slots in a 32 765-byte
// body. (15 is len(kindChunk), spelled out because len would make the
// constant a typed int.)
const FrameSlots = (32<<10 - (2 + 15 + 8) - wire.IntSize - wire.LenSize) / 8

// maxSlots bounds the slot count of a round: the total a schema may
// describe, and so the counters a DC allocates from its configure
// frame, and the number an SK accepts in its own. The SK never sees the
// schema and the DC sees only bin counts, so nothing else caps the
// allocation a tally server can ask of either. 2²⁴ slots is 128 MiB of
// counters or sums.
const maxSlots = 1 << 24

// forEachChunk invokes fn(off, end) over [0, n) in step-sized ranges.
func forEachChunk(n, step int, fn func(off, end int) error) error {
	for off := 0; off < n; off += step {
		end := min(off+step, n)
		if err := fn(off, end); err != nil {
			return err
		}
	}
	return nil
}

// sendValues streams a counter vector as FrameSlots-sized chunk frames
// after its header has announced len(v) slots. Each chunk is encoded
// straight from v into the messenger's send buffer.
func sendValues(m wire.Messenger, v []uint64) error {
	var c valueChunk // sent by pointer: one interface value for every chunk
	return forEachChunk(len(v), FrameSlots, func(off, end int) error {
		c.off, c.vals = off, v[off:end]
		return m.Send(kindChunk, &c)
	})
}

// recvValuesFunc consumes chunk frames until n slots have arrived,
// invoking fn with each chunk's raw slots (eight little-endian bytes
// apiece) as it lands, so callers fold or spill the vector instead of
// buffering it whole. Chunks must tile [0, n) in order. The raw slots
// are lent (wire.ExpectFunc): fn copies whatever it keeps.
func recvValuesFunc(m wire.Messenger, n int, fn func(off int, raw []byte) error) error {
	for off := 0; off < n; {
		err := wire.ExpectFunc(m, kindChunk, func(payload []byte) error {
			var c ValueChunkMsg
			if err := c.ParseWire(payload); err != nil {
				return err
			}
			count := len(c.Raw) / 8
			if c.Off != off || count == 0 || len(c.Raw)%8 != 0 || count > n-off {
				return fmt.Errorf("privcount: chunk of %d bytes at slot %d does not continue vector at %d/%d",
					len(c.Raw), c.Off, off, n)
			}
			off += count
			return fn(c.Off, c.Raw)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// RegisterMsg is a share keeper's key material for the round: its
// sealed-box public key. It names no party — the engine's pinned hello
// is the one place a party says who it is — and a DC sends none.
type RegisterMsg struct {
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
	// N is the schema slot count every seed expands to.
	N     int
	Boxes map[string][]byte
}

// RelayMsg delivers one DC's sealed seed to a share keeper. From is the
// DC's pinned name, which the tally fills in: the SK keys the seed by
// it and the collect request names it.
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
	Round uint64
	N     int
}

// ValueChunkMsg carries one slot range of a counter vector: Raw holds
// the slots starting at Off, eight little-endian bytes apiece. Blinded
// values are uniform in ℤ₂⁶⁴, so fixed width is also the shortest
// encoding. It travels in its own binary form (wire.WireAppender), not
// gob: [Off int][Raw bytes]. A parsed Raw aliases the payload it was
// parsed from — in recvValuesFunc, a body lent only until its callback
// returns.
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

// valueChunk is how sendValues sends a ValueChunkMsg without building
// Raw: its AppendWire writes the slots of vals, starting at off,
// byte for byte as ValueChunkMsg{Off: off, Raw: vals as raw slots}
// would.
type valueChunk struct {
	off  int
	vals []uint64
}

// AppendWire implements wire.WireAppender.
func (c valueChunk) AppendWire(b []byte) []byte {
	b = wire.Grow(b, wire.IntSize+wire.BytesSize(8*len(c.vals)))
	b = wire.AppendInt(b, c.off)
	b = wire.AppendLen(b, 8*len(c.vals))
	raw := b[len(b) : len(b)+8*len(c.vals)]
	for i, x := range c.vals {
		binary.LittleEndian.PutUint64(raw[8*i:], x)
	}
	return b[:len(b)+len(raw)]
}

// ParseWire implements wire.WireParser.
func (c *ValueChunkMsg) ParseWire(b []byte) error {
	p := wire.NewParser(b)
	c.Off, c.Raw = p.Int(), p.Bytes()
	return p.Done()
}
