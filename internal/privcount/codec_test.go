package privcount

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestValueChunkCodec pins the chunk frame's binary layout and every
// way it can be malformed: ParseWire checks framing, recvValuesFunc
// still owns what the fields must say.
func TestValueChunkCodec(t *testing.T) {
	raw := make([]byte, 8*5)
	for i := range raw {
		raw[i] = byte(i + 1)
	}
	good, err := wire.EncodePayload(ValueChunkMsg{Off: 3, Raw: raw})
	if err != nil {
		t.Fatal(err)
	}
	if want := wire.IntSize + wire.BytesSize(len(raw)); len(good) != want {
		t.Fatalf("chunk of %d raw bytes encodes to %d, want %d", len(raw), len(good), want)
	}
	var c ValueChunkMsg
	if err := wire.DecodePayload(good, &c); err != nil {
		t.Fatal(err)
	}
	if c.Off != 3 || !bytes.Equal(c.Raw, raw) {
		t.Fatalf("round trip: %+v", c)
	}

	// An append on the parsed field must not reach the bytes behind it
	// in the buffer the frame was read into.
	buf := append(bytes.Clone(good), 0xAA, 0xAA, 0xAA, 0xAA)
	if err := wire.DecodePayload(buf[:len(good)], &c); err != nil {
		t.Fatal(err)
	}
	_ = append(c.Raw, 1, 2, 3, 4)
	if !bytes.Equal(buf[len(good):], []byte{0xAA, 0xAA, 0xAA, 0xAA}) {
		t.Fatal("append on Raw wrote past the payload")
	}

	for name, b := range map[string][]byte{
		"empty":              {},
		"truncated header":   good[:wire.IntSize-1],
		"no length":          good[:wire.IntSize+2],
		"truncated raw":      good[:len(good)-1],
		"trailing byte":      append(bytes.Clone(good), 0),
		"length overstates":  withLen(good, wire.IntSize, uint32(len(raw)+1)),
		"length understates": withLen(good, wire.IntSize, uint32(len(raw)-8)),
		"length near 2^32":   withLen(good, wire.IntSize, math.MaxUint32),
	} {
		if err := wire.DecodePayload(b, &c); !errors.Is(err, wire.ErrBadPayload) {
			t.Errorf("%s: got %v, want ErrBadPayload", name, err)
		}
	}

	// Well-framed chunks that do not continue the vector are for the
	// chunk reader to refuse.
	for name, msg := range map[string]ValueChunkMsg{
		"wrong offset":     {Off: 1, Raw: raw},
		"negative offset":  {Off: -1, Raw: raw},
		"ragged slot":      {Off: 0, Raw: raw[:13]},
		"empty":            {Off: 0},
		"overruns the end": {Off: 0, Raw: make([]byte, 8*6)},
	} {
		conn := &scriptConn{}
		conn.push(kindChunk, msg)
		err := recvValuesFunc(conn, 5, func(int, []byte) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "does not continue vector") {
			t.Errorf("%s: chunk reader returned %v", name, err)
		}
	}
}

// withLen returns b with the uint32 at off overwritten.
func withLen(b []byte, off int, n uint32) []byte {
	out := bytes.Clone(b)
	binary.LittleEndian.PutUint32(out[off:], n)
	return out
}

// TestChunkFrameFitsSizeClass: the body of a full chunk frame — what
// the receiver allocates for it — fits in 32 KiB, Go's largest
// small-object size class, and one more slot would not, so FrameSlots
// is the most that class holds. The body length is read off the wire,
// so a change to the frame envelope or the kind shows here.
func TestChunkFrameFitsSizeClass(t *testing.T) {
	const sizeClass = 32 << 10
	body := func(slots int) int {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		sent := make(chan error, 1)
		go func() { sent <- wire.NewConn(a).Send(kindChunk, ValueChunkMsg{Raw: make([]byte, 8*slots)}) }()
		var prefix [4]byte
		if _, err := io.ReadFull(b, prefix[:]); err != nil {
			t.Fatal(err)
		}
		n := binary.BigEndian.Uint32(prefix[:])
		if _, err := io.CopyN(io.Discard, b, int64(n)); err != nil {
			t.Fatal(err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		return int(n)
	}
	if n := body(FrameSlots); n > sizeClass {
		t.Fatalf("a %d-slot chunk frame has a %d-byte body, over the %d-byte size class", FrameSlots, n, sizeClass)
	}
	if n := body(FrameSlots + 1); n <= sizeClass {
		t.Fatalf("a %d-slot chunk frame still fits the size class (%d bytes): FrameSlots is not the most it holds", FrameSlots+1, n)
	}
}

// TestChunkStreamCopiesOnce guards the frame path's allocation: a value
// chunk is encoded straight from the counter vector into the
// connection's reused write buffer and received into a body
// recvValuesFunc hands back to the receive pool, so a steady stream of
// chunks allocates next to nothing per frame. (With gob inside a gob
// envelope it was about thirteen chunks' worth, with a fresh payload
// per send two, and with a fresh receive body one.)
func TestChunkStreamCopiesOnce(t *testing.T) {
	const chunks = 100
	vals := make([]uint64, chunks*FrameSlots)
	for i := range vals {
		vals[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	// Warm both directions, so the connection's own buffers are not in
	// the measurement.
	go sendValues(a, vals[:FrameSlots])
	if _, err := recvAll(b, FrameSlots); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sent := make(chan error, 1)
	go func() { sent <- sendValues(a, vals) }()
	var sum uint64
	err := recvValuesFunc(b, len(vals), func(off int, raw []byte) error {
		sum += binary.LittleEndian.Uint64(raw) // touch the chunk
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / chunks
	const payload = 8 * FrameSlots
	t.Logf("%.0f bytes allocated per %d-byte chunk (%.2fx)", perFrame, payload, perFrame/payload)
	limit := 0.1 * payload
	if raceEnabled {
		// sync.Pool drops a random share of Puts under -race, so some
		// bodies are allocated afresh: hold the frame path to one.
		limit = 1.5 * payload
	}
	if perFrame > limit {
		t.Fatalf("a %d-byte chunk costs %.0f bytes of allocation end to end, want at most %.0f", payload, perFrame, limit)
	}
}

// TestValueChunkEncodesLikeTheMessage: sendValues's appender writes a
// chunk byte for byte as ValueChunkMsg does — for a full frame and for
// the ragged last frame of a vector.
func TestValueChunkEncodesLikeTheMessage(t *testing.T) {
	vals := make([]uint64, FrameSlots+37)
	for i := range vals {
		vals[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	for _, r := range []struct{ off, end int }{{0, FrameSlots}, {FrameSlots, len(vals)}} {
		raw := make([]byte, 0, 8*(r.end-r.off))
		for _, x := range vals[r.off:r.end] {
			raw = binary.LittleEndian.AppendUint64(raw, x)
		}
		want, err := wire.EncodePayload(ValueChunkMsg{Off: r.off, Raw: raw})
		if err != nil {
			t.Fatal(err)
		}
		got, err := wire.EncodePayload(&valueChunk{off: r.off, vals: vals[r.off:r.end]})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("slots [%d,%d): appender writes %d bytes unlike ValueChunkMsg's %d", r.off, r.end, len(got), len(want))
		}
	}
}

// sizeRecorder notes the largest payload sent per frame kind.
type sizeRecorder struct {
	wire.Messenger
	largest map[string]int
}

func (r *sizeRecorder) Send(kind string, v any) error {
	payload, err := wire.EncodePayload(v)
	if err != nil {
		return err
	}
	return r.SendFrame(wire.Frame{Kind: kind, Payload: payload})
}

func (r *sizeRecorder) SendFrame(f wire.Frame) error {
	r.largest[f.Kind] = max(r.largest[f.Kind], len(f.Payload))
	return r.Messenger.SendFrame(f)
}

// wideStats builds a schema of nStats statistics of nBins labelled
// bins each.
func wideStats(nStats, nBins int) []StatConfig {
	bins := make([]string, nBins)
	for i := range bins {
		bins[i] = "bin-" + strings.Repeat("x", 1+i%7)
	}
	stats := make([]StatConfig, nStats)
	for i := range stats {
		stats[i] = StatConfig{Name: "stat-" + string(rune('A'+i/26)) + string(rune('a'+i%26)), Bins: bins}
	}
	return stats
}

// TestDCConfigureCarriesNoLabels: a DC's configure frame describes each
// statistic by name, bin count and sigma, so its size follows the
// number of statistics — and a schema far past what a frame of labels
// could hold runs over default-cap pipes and tallies exactly.
func TestDCConfigureCarriesNoLabels(t *testing.T) {
	largest := map[string]int{}
	record := func(m wire.Messenger) wire.Messenger { return &sizeRecorder{Messenger: m, largest: largest} }

	runRoundOver(t, wideStats(100, 1000), 1, 1, record, func([]*DC) {})
	if size := largest[kindConfigure]; size == 0 || size > 8<<10 {
		t.Fatalf("configure frame for 100 x 1000 bins is %d bytes, want 1..8192", size)
	}

	// 300 000 counters: as labels, over the 1 MiB frame cap three
	// times; as shapes, three entries.
	stats := wideStats(3, 100_000)
	want := make(map[string][]float64, len(stats))
	for _, st := range stats {
		want[st.Name] = make([]float64, len(st.Bins))
	}
	clear(largest)
	got := runRoundOver(t, stats, 2, 2, record, func(dcs []*DC) {
		for d, dc := range dcs {
			for i := 0; i < 2000; i++ {
				st := stats[(i+d)%len(stats)]
				bin := (i*7919 + d*104729) % len(st.Bins)
				if i%500 == 0 {
					bin = len(st.Bins) - 1 - i/500 // the far end of the vector too
				}
				if err := dc.Increment(st.Name, bin, float64(1+d)); err != nil {
					t.Fatal(err)
				}
				want[st.Name][bin] += float64(1 + d)
			}
		}
	})
	if size := largest[kindConfigure]; size > 8<<10 {
		t.Fatalf("configure frame for 300 000 counters is %d bytes", size)
	}
	for _, st := range stats {
		if len(got[st.Name]) != len(st.Bins) {
			t.Fatalf("%s: %d bins tallied, want %d", st.Name, len(got[st.Name]), len(st.Bins))
		}
		for b, w := range want[st.Name] {
			if math.Abs(got[st.Name][b]-w) > 1e-9 {
				t.Fatalf("%s bin %d: tallied %v, plaintext %v", st.Name, b, got[st.Name][b], w)
			}
		}
	}
}

// TestDCRejectsHostileShape: a configure frame is a few bytes per
// statistic whatever it claims, so the DC must refuse impossible bin
// counts before it sizes anything from them.
func TestDCRejectsHostileShape(t *testing.T) {
	cases := map[string][]StatShape{
		"no statistics":         nil,
		"zero bins":             {{Name: "a", Bins: 3}, {Name: "b", Bins: 0}},
		"negative bins":         {{Name: "a", Bins: -5}},
		"one over the cap":      {{Name: "a", Bins: maxSlots + 1}},
		"total over the cap":    {{Name: "a", Bins: maxSlots}, {Name: "b", Bins: 1}},
		"total overflowing int": {{Name: "a", Bins: math.MaxInt}, {Name: "b", Bins: math.MaxInt}, {Name: "c", Bins: 2}},
		"unnamed":               {{Name: "", Bins: 1}},
		"duplicate":             {{Name: "a", Bins: 1}, {Name: "a", Bins: 1}},
		"negative sigma":        {{Name: "a", Bins: 1, Sigma: -1}},
	}
	for name, shapes := range cases {
		conn := &scriptConn{}
		conn.push(kindConfigure, ConfigureMsg{Round: 1, Shapes: shapes, NumDCs: 1})
		dc := NewDC("dc", conn, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := dc.Setup()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: DC accepted the schema", name)
		}
		if dc.counters != nil || dc.schema != nil {
			t.Errorf("%s: DC built counters from a schema it refused", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: refusing the schema allocated %d bytes", name, grew)
		}
		if len(conn.sent) != 0 {
			t.Errorf("%s: DC sent %d frames after refusing its configuration", name, len(conn.sent))
		}
	}
	// The cap itself is a legal schema.
	if s, err := newSchema([]StatShape{{Name: "a", Bins: maxSlots - 1}, {Name: "b", Bins: 1}}); err != nil || s.Size() != maxSlots {
		t.Fatalf("schema of exactly maxSlots: %v", err)
	}
}
