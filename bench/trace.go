package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
)

// span is one timed interval of the traced run. Spans of one round
// share its engine round ID; Parent links a span to the one that
// caused it (0: none). Frame spans ("send <kind>" / "recv <kind>")
// are the time a party spent inside Messenger.Send or Recv, so a
// party span's self time is the time it spent computing.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Party  string  `json:"party"`
	Round  uint64  `json:"round"`
	Phase  string  `json:"phase,omitempty"`
	Bytes  int     `json:"bytes,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// parentOfRound marks a span whose parent is its round's root span,
// resolved when the trace is finished: party streams can be accepted
// before the driver learns the round ID from Start*.
const parentOfRound = -1

// tracer is the in-memory span store of one traced run.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	rounds map[uint64]int // round ID -> root span ID
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), rounds: make(map[uint64]int)}
}

func (t *tracer) rel(at time.Time) float64 { return at.Sub(t.epoch).Seconds() }

// add records a finished span and returns its ID.
func (t *tracer) add(s span, start, end time.Time) int {
	s.Start, s.End = t.rel(start), t.rel(end)
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin records an open span; end closes it.
func (t *tracer) begin(s span, start time.Time) int {
	return t.add(s, start, start)
}

func (t *tracer) end(id int, at time.Time) {
	t.mu.Lock()
	t.spans[id-1].End = t.rel(at)
	t.mu.Unlock()
}

// setRound names the round of a root span begun before Start*
// returned the engine's round ID, making it the parent of every span
// that named that round. A root that drives a PSC and a PrivCount
// round together is named after the first and adopts both.
func (t *tracer) setRound(id int, round uint64) {
	t.mu.Lock()
	if t.spans[id-1].Round == 0 {
		t.spans[id-1].Round = round
	}
	t.rounds[round] = id
	t.mu.Unlock()
}

// finish resolves round parents, drops party activity that trails its
// parent's end (a stream draining after Wait* returned is not on the
// round's path), computes self times, and returns the spans. Parents
// are begun before their children, so IDs ascend down every chain.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := make(map[int]*span, len(t.spans))
	out := t.spans[:0]
	for _, s := range t.spans {
		if s.Parent == parentOfRound {
			s.Parent = t.rounds[s.Round]
			if s.Parent == 0 {
				continue // a round the driver never started
			}
		}
		if s.Parent != 0 {
			p := kept[s.Parent]
			if p == nil || s.Start >= p.End {
				continue
			}
			if s.End > p.End {
				s.End = p.End
			}
		}
		out = append(out, s)
		kept[s.ID] = &out[len(out)-1]
	}
	t.spans = out
	children := make(map[int][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.dur() - unionLen(children[s.ID])
	}
	return t.spans
}

type interval struct{ lo, hi float64 }

// unionLen is the total length covered by the intervals.
func unionLen(iv []interval) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	total, lo, hi := 0.0, iv[0].lo, iv[0].hi
	for _, x := range iv[1:] {
		if x.lo > hi {
			total += hi - lo
			lo, hi = x.lo, x.hi
		} else if x.hi > hi {
			hi = x.hi
		}
	}
	return total + hi - lo
}

// writeTrace dumps the spans as JSON.
func writeTrace(path string, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// recMessenger wraps a party-side round stream and records, per frame,
// its kind, payload bytes, protocol phase, and the enter/leave times of
// Send and Recv. It encodes payloads itself (exactly what Stream.Send
// does) so the byte count costs no second encoding.
type recMessenger struct {
	inner  wire.Messenger
	tr     *tracer
	parent int
	party  string
	round  uint64
	// Chunk frames belong to the vector announced by the last header
	// in their direction; Send and Recv each have one caller.
	sendCtx, recvCtx string
}

func (m *recMessenger) record(dir, kind string, ctx *string, bytes int, enter, leave time.Time) {
	m.tr.add(span{
		Parent: m.parent, Name: dir + " " + kind, Party: m.party, Round: m.round,
		Phase: phaseOf(kind, ctx), Bytes: bytes,
	}, enter, leave)
}

func (m *recMessenger) Send(kind string, v any) error {
	payload, err := wire.EncodePayload(v)
	if err != nil {
		return fmt.Errorf("wire: encode %q: %w", kind, err)
	}
	return m.SendFrame(wire.Frame{Kind: kind, Payload: payload})
}

func (m *recMessenger) SendFrame(f wire.Frame) error {
	enter := time.Now()
	err := m.inner.SendFrame(f)
	if err == nil {
		m.record("send", f.Kind, &m.sendCtx, len(f.Payload), enter, time.Now())
	}
	return err
}

func (m *recMessenger) Recv() (wire.Frame, error) {
	enter := time.Now()
	f, err := m.inner.Recv()
	if err == nil {
		m.record("recv", f.Kind, &m.recvCtx, len(f.Payload), enter, time.Now())
	}
	return f, err
}

func (m *recMessenger) Expect(kind string, out any) error {
	f, err := m.Recv()
	if err != nil {
		return err
	}
	if f.Kind != kind {
		return fmt.Errorf("wire: expected %q frame, got %q", kind, f.Kind)
	}
	if out == nil {
		return nil
	}
	if err := wire.DecodePayload(f.Payload, out); err != nil {
		return fmt.Errorf("wire: decode %q: %w", kind, err)
	}
	return nil
}

func (m *recMessenger) Close() error { return m.inner.Close() }

// phaseOf maps a frame kind to the protocol phase it belongs to. The
// generic chunk kinds take the phase of the header that announced
// their vector.
func phaseOf(kind string, ctx *string) string {
	switch kind {
	case "psc/table":
		*ctx = "gather"
	case "psc/mix", "psc/mixed":
		*ctx = "shuffle"
	case "psc/decrypt", "psc/shares":
		*ctx = "decrypt"
	case "psc/chunk":
		return *ctx
	case "psc/noise":
		return "noise"
	case "psc/blind":
		return "blind"
	case "psc/share-chunk":
		return "decrypt"
	case "privcount/shares", "privcount/share-chunk", "privcount/relay-shares", "privcount/begin":
		return "setup"
	case "privcount/report", "privcount/collect", "privcount/sums":
		*ctx = "collect"
	case "privcount/chunk":
		return *ctx
	default:
		if strings.HasPrefix(kind, "psc/shuffle-") {
			return "shuffle"
		}
		return ""
	}
	return *ctx
}
