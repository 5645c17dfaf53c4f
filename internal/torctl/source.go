package torctl

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
)

// Source is a control-port connection to one instrumented relay that
// turns its PRIVCOUNT_* lines into a stream of internal/event values,
// the data collector's one event source.
type Source struct {
	cfg    Config
	parser LineParser
	out    chan event.Event
	stop   chan struct{}

	parsed  atomic.Int64
	skipped atomic.Int64

	mu         sync.Mutex
	err        error
	conn       net.Conn
	reconnects int
	closeOnce  sync.Once
}

// DialSource connects, authenticates, and subscribes; it returns only
// after the first session is fully established, so configuration
// errors (bad address, bad credentials) surface immediately. The source
// then survives relay and network churn: any read or connect error
// short of an authentication failure triggers reconnection with
// exponential backoff, and the SETEVENTS subscription is re-established
// on every new connection. One goroutine reads the socket, parses each
// PRIVCOUNT_* line, and sends its event on Events.
func DialSource(cfg Config, parser LineParser) (*Source, error) {
	if cfg.Events == nil {
		cfg.Events = AllEvents
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 250 * time.Millisecond
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 15 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	parser.pairs = nil // the scratch is this source's alone
	s := &Source{cfg: cfg, parser: parser, out: make(chan event.Event, 256), stop: make(chan struct{})}
	conn, br, err := s.connect()
	if err != nil {
		return nil, err
	}
	go s.run(conn, br)
	return s, nil
}

// Events delivers parsed events. The channel closes when the trace
// ends (mock relay), the source is closed, or the client dies; Err
// distinguishes the last case.
func (s *Source) Events() <-chan event.Event { return s.out }

// Err reports why Events closed; nil for a clean end.
func (s *Source) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats reports how many lines parsed into events and how many
// malformed or unknown lines were skipped.
func (s *Source) Stats() (parsed, skipped int64) {
	return s.parsed.Load(), s.skipped.Load()
}

// handle parses one event payload, on the goroutine reading the
// socket, and sends its event; an error ends the session.
func (s *Source) handle(payload string) error {
	ev, err := s.parser.Parse(payload)
	switch {
	case err == nil:
		s.parsed.Add(1)
		// Select against client shutdown: a consumer that stopped
		// reading Events after Close must not strand the reader on the
		// send (Events still closes, via finish).
		select {
		case s.out <- ev:
			return nil
		case <-s.stop:
			return ErrClosed
		}
	case errors.Is(err, ErrTraceDone):
		// The relay marked the end of its replayed trace: a clean end
		// of collection.
		s.Close()
		return ErrClosed
	case errors.Is(err, ErrNotPrivCount):
		// Subscribed to broader events than we parse; ignore.
	default:
		// Malformed line: tolerate (a live feed must survive a relay
		// hiccup) but count and report it.
		if n := s.skipped.Add(1); n <= 5 {
			s.cfg.logf("torctl: skipping unparseable event line: %v", err)
		}
	}
	return nil
}
