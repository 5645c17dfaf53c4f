package torctl

import (
	"fmt"
	"net/netip"
	"strconv"

	"repro/internal/event"
)

// FormatEvent renders an internal/event value as the payload of a 650
// async line (keyword plus key=value fields, no "650 " prefix, no
// CRLF). epochUnixNano is the wall-clock instant of simtime 0, so
// replayed traces carry realistic absolute timestamps the way an
// instrumented Tor would. FormatEvent and LineParser.Parse (with the
// matching epoch) are exact inverses; the golden tests pin this.
func FormatEvent(ev event.Event, epochUnixNano int64) (string, error) {
	var buf [256]byte
	b, err := appendEvent(buf[:0], ev, epochUnixNano)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// appendEvent appends FormatEvent's payload for ev to dst. On error dst
// comes back unchanged.
func appendEvent(dst []byte, ev event.Event, epochUnixNano int64) ([]byte, error) {
	keyword := eventKeyword(ev)
	if keyword == "" {
		return dst, fmt.Errorf("torctl: no line format for event type %v", ev.EventType())
	}
	wall := epochUnixNano + int64(ev.Time())
	if wall < 0 {
		return dst, fmt.Errorf("torctl: event time %v predates the Unix epoch", ev.Time())
	}
	b := append(dst, keyword...)
	b = appendWall(append(b, " Time="...), wall)
	b = appendUint(b, "Relay", uint64(ev.Observer()))

	switch e := ev.(type) {
	case *event.StreamEnd:
		b = appendUint(b, "CircID", e.CircuitID)
		flag := "0"
		if e.IsInitial {
			flag = "1"
		}
		b = appendKV(b, "IsInitial", flag)
		b = appendKV(b, "Target", e.Target.String())
		b = appendUint(b, "Port", uint64(e.Port))
		b = appendKV(b, "Host", e.Hostname)
		b = appendUint(b, "SentBytes", e.BytesSent)
		b = appendUint(b, "RecvBytes", e.BytesRecv)
	case *event.CircuitEnd:
		b = appendUint(b, "CircID", e.CircuitID)
		kind := kindDataStr
		if e.Kind == event.CircuitDirectory {
			kind = kindDirectoryStr
		}
		b = appendKV(b, "Kind", kind)
		b = appendAddr(b, "ClientIP", e.ClientIP)
		b = appendKV(b, "Country", e.Country)
		b = appendUint(b, "ASN", uint64(e.ASN))
		b = appendUint(b, "NumStreams", uint64(e.NumStreams))
		b = appendUint(b, "SentBytes", e.BytesSent)
		b = appendUint(b, "RecvBytes", e.BytesRecv)
	case *event.ConnectionEnd:
		b = appendAddr(b, "ClientIP", e.ClientIP)
		b = appendKV(b, "Country", e.Country)
		b = appendUint(b, "ASN", uint64(e.ASN))
		b = appendUint(b, "NumCircuits", uint64(e.NumCircuits))
		b = appendUint(b, "SentBytes", e.BytesSent)
		b = appendUint(b, "RecvBytes", e.BytesRecv)
	case *event.DescPublished:
		b = appendKV(b, "Address", e.Address)
		b = appendUint(b, "Version", uint64(e.Version))
		b = appendUint(b, "Replica", uint64(e.Replica))
	case *event.DescFetched:
		b = appendKV(b, "Address", e.Address)
		b = appendUint(b, "Version", uint64(e.Version))
		b = appendKV(b, "Outcome", e.Outcome.String())
	case *event.RendezvousEnd:
		b = appendUint(b, "CircID", e.CircuitID)
		b = appendUint(b, "Version", uint64(e.Version))
		b = appendKV(b, "Outcome", e.Outcome.String())
		b = appendUint(b, "PayloadCells", e.PayloadCells)
		b = appendUint(b, "PayloadBytes", e.PayloadBytes)
	}
	return b, nil
}

// eventKeyword maps an event to its SETEVENTS keyword.
func eventKeyword(ev event.Event) string {
	switch ev.(type) {
	case *event.StreamEnd:
		return EventStreamEnded
	case *event.CircuitEnd:
		return EventCircuitEnded
	case *event.ConnectionEnd:
		return EventConnectionEnded
	case *event.DescPublished:
		return EventHSDirStored
	case *event.DescFetched:
		return EventHSDirFetched
	case *event.RendezvousEnd:
		return EventRendEnded
	}
	return ""
}

// appendUint appends ` Key=decimal`.
func appendUint(b []byte, key string, v uint64) []byte {
	b = append(append(append(b, ' '), key...), '=')
	return strconv.AppendUint(b, v, 10)
}

// appendAddr appends ` Key=address`, nothing for the zero Addr. Only a
// zone can hold characters that need quoting.
func appendAddr(b []byte, key string, a netip.Addr) []byte {
	if a.Zone() != "" {
		return appendKV(b, key, a.String())
	} else if a.IsValid() {
		b = a.AppendTo(append(append(append(b, ' '), key...), '='))
	}
	return b
}
