package torctl

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"repro/internal/event"
	"repro/internal/simtime"
)

// ErrTraceDone marks the mock relay's PRIVCOUNT_DONE trace-end line.
var ErrTraceDone = errors.New("torctl: end of replayed trace")

// TimeMap converts the wall-clock timestamps carried on event lines
// into the virtual simtime timeline the rest of the pipeline consumes.
// The zero TimeMap anchors: the first timestamp it sees becomes
// simtime 0 and later timestamps map to their offset from it, which is
// what a live collector wants (its measurement period starts at the
// first observation).
type TimeMap struct {
	epoch     int64 // wall instant of simtime 0, Unix nanoseconds
	haveEpoch bool
}

// Map converts a wall-clock Unix-nanosecond timestamp to simtime,
// anchoring on first use if no epoch was set.
func (m *TimeMap) Map(wallUnixNano int64) simtime.Time {
	if !m.haveEpoch {
		m.epoch = wallUnixNano
		m.haveEpoch = true
	}
	return simtime.Time(wallUnixNano - m.epoch)
}

// appendWall appends a Unix-nanosecond wall timestamp as the
// "seconds.nanoseconds" decimal the event lines carry. Integer
// arithmetic keeps the round trip exact; float64 cannot represent
// nanoseconds at 2018-scale epochs.
func appendWall(dst []byte, unixNano int64) []byte {
	dst = strconv.AppendInt(dst, unixNano/1e9, 10)
	dst = append(dst, '.')
	frac := unixNano % 1e9
	for div := int64(1e8); div > frac && div > 1; div /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, frac, 10)
}

// parseWall parses "seconds[.fraction]" into Unix nanoseconds. The
// fraction may carry 1–9 digits; shorter fractions are right-padded.
func parseWall(s string) (int64, error) {
	intPart, frac, _ := strings.Cut(s, ".")
	sec, err := strconv.ParseInt(intPart, 10, 64)
	if err != nil || sec < 0 {
		return 0, fmt.Errorf("torctl: bad timestamp %q", s)
	}
	var nanos int64
	if frac != "" {
		if len(frac) > 9 {
			return 0, fmt.Errorf("torctl: timestamp %q has sub-nanosecond precision", s)
		}
		n, err := strconv.ParseUint(frac, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("torctl: bad timestamp fraction %q", s)
		}
		nanos = int64(n)
		for i := len(frac); i < 9; i++ {
			nanos *= 10
		}
	}
	if sec > (1<<63-1-nanos)/1e9 {
		return 0, fmt.Errorf("torctl: timestamp %q overflows", s)
	}
	return sec*1e9 + nanos, nil
}

// Enum spellings on the wire. TargetKind, FetchOutcome, and RendOutcome
// reuse their String() forms; CircuitKind has no stringer, so its
// spellings live here.
const (
	kindDataStr      = "data"
	kindDirectoryStr = "directory"
)

// LineParser maps PRIVCOUNT_* event lines onto internal/event values.
// It normalizes fields (enum spellings, quoted strings, wall-clock
// times) and tolerates unknown keys, so an instrumented relay that
// grows new fields keeps feeding an older collector. A LineParser
// reuses its field scratch from line to line, so it serves one
// goroutine at a time, as its TimeMap already does.
type LineParser struct {
	// Time maps wall-clock stamps to simtime; the zero value anchors at
	// the first event.
	Time TimeMap
	// DefaultRelay is the observer recorded when a line carries no
	// Relay= field — a real control port serves exactly one relay, so
	// the collector knows who it is talking to.
	DefaultRelay event.RelayID

	pairs pairs // the current line's fields; cleared when Parse returns
}

// fields wraps a line's pairs with typed, error-latching accessors:
// missing keys yield zero values (field normalization), malformed
// values latch the first error.
type fields struct {
	kv  pairs
	err error
}

func (f *fields) fail(key, val string, why error) {
	if f.err == nil {
		f.err = fmt.Errorf("torctl: field %s=%q: %v", key, val, why)
	}
}

func (f *fields) str(key string) string {
	v, _ := f.kv.get(key)
	return v
}

func (f *fields) uint(key string, bits int) uint64 {
	v, ok := f.kv.get(key)
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(v, 10, bits)
	if err != nil {
		f.fail(key, v, errors.New("not an unsigned integer"))
	}
	return n
}

func (f *fields) flag(key string) bool {
	v, ok := f.kv.get(key)
	if !ok {
		return false
	}
	switch v {
	case "1":
		return true
	case "0":
		return false
	}
	f.fail(key, v, errors.New("not a 0/1 flag"))
	return false
}

func (f *fields) addr(key string) netip.Addr {
	v, ok := f.kv.get(key)
	if !ok || v == "" {
		return netip.Addr{}
	}
	a, err := netip.ParseAddr(v)
	if err != nil {
		f.fail(key, v, errors.New("not an IP address"))
		return netip.Addr{}
	}
	return a
}

func (f *fields) enum(key string, vals map[string]uint8) uint8 {
	v, ok := f.kv.get(key)
	if !ok {
		return 0
	}
	n, ok := vals[v]
	if !ok {
		f.fail(key, v, errors.New("unknown enum value"))
	}
	return n
}

var (
	targetVals = map[string]uint8{
		event.TargetHostname.String(): uint8(event.TargetHostname),
		event.TargetIPv4.String():     uint8(event.TargetIPv4),
		event.TargetIPv6.String():     uint8(event.TargetIPv6),
	}
	circKindVals = map[string]uint8{
		kindDataStr:      uint8(event.CircuitData),
		kindDirectoryStr: uint8(event.CircuitDirectory),
	}
	fetchVals = map[string]uint8{
		event.FetchOK.String():        uint8(event.FetchOK),
		event.FetchNotFound.String():  uint8(event.FetchNotFound),
		event.FetchMalformed.String(): uint8(event.FetchMalformed),
	}
	rendVals = map[string]uint8{
		event.RendSucceeded.String():  uint8(event.RendSucceeded),
		event.RendConnClosed.String(): uint8(event.RendConnClosed),
		event.RendExpired.String():    uint8(event.RendExpired),
	}
)

// Parse maps one asynchronous event line onto an internal/event value.
// The line may or may not still carry its "650 " prefix. Non-PRIVCOUNT
// events return ErrNotPrivCount; the mock relay's trace-end marker
// returns ErrTraceDone; unknown PRIVCOUNT_* keywords and malformed
// known fields return descriptive errors. Unknown keys are ignored.
// String fields of the event may share the line's memory; the parser
// itself keeps nothing of the line once Parse returns.
func (p *LineParser) Parse(line string) (event.Event, error) {
	ev, err := p.parse(line)
	clear(p.pairs)
	p.pairs = p.pairs[:0]
	return ev, err
}

func (p *LineParser) parse(line string) (event.Event, error) {
	if len(line) >= 4 && line[:3] == "650" && (line[3] == ' ' || line[3] == '-' || line[3] == '+') {
		line = line[4:]
	}
	keyword, rest, _ := strings.Cut(line, " ")
	if !strings.HasPrefix(keyword, "PRIVCOUNT_") {
		return nil, ErrNotPrivCount
	}
	if keyword == EventDone {
		return nil, ErrTraceDone
	}
	kv, err := scanPairs(rest, p.pairs[:0])
	p.pairs = kv
	if err != nil {
		return nil, err
	}
	f := fields{kv: kv}

	// Header: wall-clock time and observing relay, with defaults.
	var hdr event.Header
	hdr.Relay = p.DefaultRelay
	if v, ok := kv.get("Relay"); ok {
		n, err := strconv.ParseUint(v, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("torctl: field Relay=%q: not a relay id", v)
		}
		hdr.Relay = event.RelayID(n)
	}
	if v, ok := kv.get("Time"); ok {
		wall, err := parseWall(v)
		if err != nil {
			return nil, err
		}
		hdr.At = p.Time.Map(wall)
	}

	var ev event.Event
	switch keyword {
	case EventStreamEnded:
		ev = &event.StreamEnd{
			Header:    hdr,
			CircuitID: f.uint("CircID", 64),
			IsInitial: f.flag("IsInitial"),
			Target:    event.TargetKind(f.enum("Target", targetVals)),
			Port:      uint16(f.uint("Port", 16)),
			Hostname:  f.str("Host"),
			BytesSent: f.uint("SentBytes", 64),
			BytesRecv: f.uint("RecvBytes", 64),
		}
	case EventCircuitEnded:
		ev = &event.CircuitEnd{
			Header:     hdr,
			CircuitID:  f.uint("CircID", 64),
			Kind:       event.CircuitKind(f.enum("Kind", circKindVals)),
			ClientIP:   f.addr("ClientIP"),
			Country:    f.str("Country"),
			ASN:        uint32(f.uint("ASN", 32)),
			NumStreams: uint32(f.uint("NumStreams", 32)),
			BytesSent:  f.uint("SentBytes", 64),
			BytesRecv:  f.uint("RecvBytes", 64),
		}
	case EventConnectionEnded:
		ev = &event.ConnectionEnd{
			Header:      hdr,
			ClientIP:    f.addr("ClientIP"),
			Country:     f.str("Country"),
			ASN:         uint32(f.uint("ASN", 32)),
			NumCircuits: uint32(f.uint("NumCircuits", 32)),
			BytesSent:   f.uint("SentBytes", 64),
			BytesRecv:   f.uint("RecvBytes", 64),
		}
	case EventHSDirStored:
		ev = &event.DescPublished{
			Header:  hdr,
			Address: f.str("Address"),
			Version: uint8(f.uint("Version", 8)),
			Replica: uint8(f.uint("Replica", 8)),
		}
	case EventHSDirFetched:
		ev = &event.DescFetched{
			Header:  hdr,
			Address: f.str("Address"),
			Version: uint8(f.uint("Version", 8)),
			Outcome: event.FetchOutcome(f.enum("Outcome", fetchVals)),
		}
	case EventRendEnded:
		ev = &event.RendezvousEnd{
			Header:       hdr,
			CircuitID:    f.uint("CircID", 64),
			Version:      uint8(f.uint("Version", 8)),
			Outcome:      event.RendOutcome(f.enum("Outcome", rendVals)),
			PayloadCells: f.uint("PayloadCells", 64),
			PayloadBytes: f.uint("PayloadBytes", 64),
		}
	default:
		return nil, fmt.Errorf("torctl: unknown event keyword %q", keyword)
	}
	if f.err != nil {
		return nil, f.err
	}
	return ev, nil
}
