package torctl

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"strings"
	"sync"

	"repro/internal/event"
)

// MockRelay is a mock instrumented relay: a control-port server that
// authenticates controllers exactly as a PrivCount-patched Tor would
// (PROTOCOLINFO, COOKIE / SAFECOOKIE / HASHEDPASSWORD) and replays a
// trace of simulator events as 650 PRIVCOUNT_* lines. It serves two
// jobs: the test double for Source, and — in cmd/torsim — the control
// port of each simulated relay for deployment rehearsals.
//
// The trace is held in memory with a single replay cursor: a
// controller that reconnects resumes where the previous connection
// stopped. Lines go out in batches of whatever the trace holds, up to
// 256 events or 64 KiB, one Write each, and the cursor passes a line
// only once it is written whole: a batch cut short by a failed Write
// resumes at its first partial line, so a disconnect loses at most
// what the socket accepted and the controller never read. That mirrors
// the single-controller relationship of a real DC to its relay;
// concurrent controllers would share the cursor.
type MockRelay struct {
	cfg MockConfig

	mu     sync.Mutex
	cond   *sync.Cond
	trace  []event.Event
	pos    int
	ended  bool
	closed bool

	written   int  // event lines delivered across all connections
	dropped   bool // the one DropAfter disconnect has fired
	liveConns int
	doneSent  int // how many connections received PRIVCOUNT_DONE
	conns     map[net.Conn]bool

	ln net.Listener
}

// MockConfig configures a MockRelay.
type MockConfig struct {
	// Cookie enables COOKIE and SAFECOOKIE auth (must be CookieLen
	// bytes). The caller owns writing it to a cookie file.
	Cookie []byte
	// CookiePath is advertised in PROTOCOLINFO as COOKIEFILE, the way
	// a real relay points controllers at its cookie.
	CookiePath string
	// Password enables HASHEDPASSWORD auth (plain comparison — the
	// mock stores the secret, not a hash).
	Password string
	// EpochUnixNano is the wall-clock instant of simtime 0 on emitted
	// lines. Zero selects 2018-01-01T00:00:00Z, the paper's study year.
	EpochUnixNano int64
	// DropAfter, when positive, abruptly closes the controller
	// connection after that many event lines have been delivered —
	// once. The replay cursor survives, so a reconnecting client
	// resumes the feed: this is the churn drill of the integration
	// tests.
	DropAfter int
	// Logf, when set, receives connection-lifecycle messages.
	Logf func(format string, args ...any)
}

// defaultEpochUnixNano is 2018-01-01T00:00:00Z.
const defaultEpochUnixNano = 1514764800 * int64(1e9)

// GenerateCookie returns a fresh random control-auth cookie.
func GenerateCookie() ([]byte, error) {
	c := make([]byte, CookieLen)
	if _, err := rand.Read(c); err != nil {
		return nil, err
	}
	return c, nil
}

// NewMockRelay returns a mock relay with an empty trace.
func NewMockRelay(cfg MockConfig) (*MockRelay, error) {
	if cfg.Cookie != nil && len(cfg.Cookie) != CookieLen {
		return nil, fmt.Errorf("torctl: mock cookie is %d bytes, want %d", len(cfg.Cookie), CookieLen)
	}
	if cfg.EpochUnixNano == 0 {
		cfg.EpochUnixNano = defaultEpochUnixNano
	}
	m := &MockRelay{cfg: cfg, conns: make(map[net.Conn]bool)}
	m.cond = sync.NewCond(&m.mu)
	return m, nil
}

func (m *MockRelay) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Feed appends one event to the replay trace and wakes streaming
// connections. Safe to call while serving.
func (m *MockRelay) Feed(ev event.Event) {
	m.mu.Lock()
	if !m.ended {
		m.trace = append(m.trace, ev)
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// End marks the trace complete: once a connection has streamed every
// event it emits the PRIVCOUNT_DONE marker.
func (m *MockRelay) End() {
	m.mu.Lock()
	m.ended = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// Listen binds addr and serves controllers in the background.
func (m *MockRelay) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.ln = ln
	m.mu.Unlock()
	go m.Serve(ln)
	return ln.Addr(), nil
}

// Serve accepts controller connections until the listener closes.
func (m *MockRelay) Serve(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go m.serveConn(conn)
	}
}

// Close stops the listener and tears down every live connection.
func (m *MockRelay) Close() {
	m.mu.Lock()
	m.closed = true
	ln := m.ln
	conns := make([]net.Conn, 0, len(m.conns))
	for c := range m.conns {
		conns = append(conns, c)
	}
	m.mu.Unlock()
	m.cond.Broadcast()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// Delivered reports how many event lines have been written to
// controllers in total.
func (m *MockRelay) Delivered() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.written
}

// WaitIdle blocks until the trace has ended, at least one controller
// received the PRIVCOUNT_DONE marker, and no connections remain — the
// point at which a standalone mock relay can exit. Returns immediately
// if the relay is closed.
func (m *MockRelay) WaitIdle() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.closed && !(m.ended && m.doneSent > 0 && m.liveConns == 0) {
		m.cond.Wait()
	}
}

// mockConn is the per-connection controller state.
type mockConn struct {
	m    *MockRelay
	conn net.Conn

	wmu sync.Mutex // interleaves command replies with event lines

	mu            sync.Mutex
	authed        bool
	subscribed    map[string]bool
	streaming     bool
	gone          bool
	safeClientN   []byte
	safeServerN   []byte
	challengeSent bool
}

func (m *MockRelay) serveConn(conn net.Conn) {
	c := &mockConn{m: m, conn: conn}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		conn.Close()
		return
	}
	m.liveConns++
	m.conns[conn] = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.liveConns--
		delete(m.conns, conn)
		m.mu.Unlock()
		m.cond.Broadcast()
	}()
	defer c.markGone()
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<14)
	for {
		line, err := readLine(br)
		if err != nil {
			return
		}
		if !c.dispatch(line) {
			return
		}
	}
}

// markGone flags the connection dead and wakes its streamer.
func (c *mockConn) markGone() {
	c.mu.Lock()
	c.gone = true
	c.mu.Unlock()
	c.m.cond.Broadcast()
}

func (c *mockConn) reply(lines ...string) bool {
	var b []byte
	for i, l := range lines {
		sep := byte(' ')
		if i < len(lines)-1 {
			sep = '-'
		}
		b = append(b, l[:3]...)
		b = append(b, sep)
		b = append(b, l[4:]...)
		b = append(b, '\r', '\n')
	}
	c.wmu.Lock()
	_, err := c.conn.Write(b)
	c.wmu.Unlock()
	return err == nil
}

// dispatch handles one command line; false ends the connection.
func (c *mockConn) dispatch(line string) bool {
	cmd, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
	c.mu.Lock()
	authed := c.authed
	c.mu.Unlock()
	switch strings.ToUpper(cmd) {
	case "PROTOCOLINFO":
		return c.protocolInfo()
	case "AUTHCHALLENGE":
		return c.authChallenge(rest)
	case "AUTHENTICATE":
		return c.authenticate(rest)
	case "QUIT":
		c.reply("250 closing connection")
		return false
	case "SETEVENTS":
		if !authed {
			return c.reply("514 Authentication required")
		}
		subs := make(map[string]bool)
		for _, kw := range strings.Fields(rest) {
			subs[strings.ToUpper(kw)] = true
		}
		c.mu.Lock()
		c.subscribed = subs
		start := !c.streaming && len(subs) > 0
		if start {
			c.streaming = true
		}
		c.mu.Unlock()
		if !c.reply("250 OK") {
			return false
		}
		if start {
			go c.stream()
		}
		return true
	case "GETINFO":
		if !authed {
			return c.reply("514 Authentication required")
		}
		if strings.TrimSpace(rest) == "version" {
			return c.reply("250-version=0.3.3.7-privcount-mock", "250 OK")
		}
		return c.reply("552 Unrecognized key")
	default:
		if !authed {
			return c.reply("514 Authentication required")
		}
		return c.reply(fmt.Sprintf("510 Unrecognized command %q", cmd))
	}
}

func (c *mockConn) protocolInfo() bool {
	var methods []string
	if c.m.cfg.Password != "" {
		methods = append(methods, "HASHEDPASSWORD")
	}
	if c.m.cfg.Cookie != nil {
		methods = append(methods, "COOKIE", "SAFECOOKIE")
	}
	if methods == nil {
		methods = append(methods, "NULL")
	}
	auth := "250 AUTH METHODS=" + strings.Join(methods, ",")
	if c.m.cfg.Cookie != nil && c.m.cfg.CookiePath != "" {
		auth = string(appendKV([]byte(auth), "COOKIEFILE", c.m.cfg.CookiePath))
	}
	return c.reply(
		"250 PROTOCOLINFO 1",
		auth,
		`250 VERSION Tor="0.3.3.7-privcount-mock"`,
		"250 OK",
	)
}

func (c *mockConn) authChallenge(rest string) bool {
	fields := strings.Fields(rest)
	if len(fields) != 2 || !strings.EqualFold(fields[0], "SAFECOOKIE") || c.m.cfg.Cookie == nil {
		return c.reply("512 Invalid AUTHCHALLENGE request")
	}
	clientNonce, err := hex.DecodeString(fields[1])
	if err != nil {
		return c.reply("512 Invalid nonce")
	}
	serverNonce := make([]byte, 32)
	if _, err := rand.Read(serverNonce); err != nil {
		return c.reply("550 Internal error")
	}
	c.mu.Lock()
	c.safeClientN, c.safeServerN, c.challengeSent = clientNonce, serverNonce, true
	c.mu.Unlock()
	hash := SafeCookieServerHash(c.m.cfg.Cookie, clientNonce, serverNonce)
	return c.reply(fmt.Sprintf("250 AUTHCHALLENGE SERVERHASH=%X SERVERNONCE=%X", hash, serverNonce))
}

func (c *mockConn) authenticate(rest string) bool {
	rest = strings.TrimSpace(rest)
	ok := false
	c.mu.Lock()
	challenge, cn, sn := c.challengeSent, c.safeClientN, c.safeServerN
	c.mu.Unlock()
	switch {
	case challenge:
		// A SAFECOOKIE exchange is in flight; only the client hash is
		// acceptable now.
		if hash, err := hex.DecodeString(rest); err == nil && c.m.cfg.Cookie != nil {
			ok = hashesEqual(hash, SafeCookieClientHash(c.m.cfg.Cookie, cn, sn))
		}
	case strings.HasPrefix(rest, `"`):
		if pw, trailing, err := unquote(rest); err == nil && trailing == "" {
			ok = c.m.cfg.Password != "" && pw == c.m.cfg.Password
		}
	case rest == "":
		ok = c.m.cfg.Password == "" && c.m.cfg.Cookie == nil
	default:
		if cookie, err := hex.DecodeString(rest); err == nil && c.m.cfg.Cookie != nil {
			ok = hashesEqual(cookie, c.m.cfg.Cookie)
		}
	}
	if !ok {
		c.reply("515 Authentication failed")
		return false // real Tor closes the connection on auth failure
	}
	c.mu.Lock()
	c.authed = true
	c.challengeSent = false
	c.mu.Unlock()
	return c.reply("250 OK")
}

// A stream batch holds at most this many events or, past the event
// that crosses it, this many bytes.
const (
	batchEvents = 256
	batchBytes  = 64 << 10
)

// stream replays the trace from the shared cursor to this controller.
// It exits when the connection dies, the relay closes, or the trace
// completes (leaving the connection open for the controller to QUIT).
// Each pass takes every event available, up to one batch, and writes
// their lines with one Write: an event fed alone goes out at once.
func (c *mockConn) stream() {
	m := c.m
	var buf []byte
	var ends []int // ends[i]: len(buf) once the batch's event i is in
	for {
		m.mu.Lock()
		for {
			if m.closed || c.isGone() {
				m.mu.Unlock()
				return
			}
			if m.pos < len(m.trace) {
				break
			}
			if m.ended {
				n := m.written
				m.mu.Unlock()
				line := fmt.Sprintf("650 %s Processed=%d\r\n", EventDone, n)
				c.wmu.Lock()
				_, werr := c.conn.Write([]byte(line))
				c.wmu.Unlock()
				if werr == nil {
					m.mu.Lock()
					m.doneSent++
					m.mu.Unlock()
					m.cond.Broadcast()
				}
				m.logf("mockrelay: trace complete, %d event lines delivered", n)
				return
			}
			m.cond.Wait()
		}
		// Feed only appends, so the events taken here stay put after
		// the lock is released.
		batch := m.trace[m.pos:min(len(m.trace), m.pos+batchEvents)]
		budget := len(batch) // lines before the churn drill's drop
		if m.cfg.DropAfter > 0 && !m.dropped {
			budget = m.cfg.DropAfter - m.written
		}
		m.mu.Unlock()
		c.mu.Lock()
		subs := c.subscribed // SETEVENTS replaces the map, never edits it
		c.mu.Unlock()

		buf, ends = buf[:0], ends[:0]
		lines := 0
		for _, ev := range batch {
			if lines == budget || len(buf) >= batchBytes {
				break
			}
			if subs[eventKeyword(ev)] {
				if b, err := appendEvent(append(buf, "650 "...), ev, m.cfg.EpochUnixNano); err == nil {
					buf = append(b, '\r', '\n')
					lines++
				}
			}
			ends = append(ends, len(buf))
		}
		n, werr := len(buf), error(nil)
		if n > 0 {
			c.wmu.Lock()
			n, werr = c.conn.Write(buf)
			c.wmu.Unlock()
		}

		// The cursor passes only the events whose lines were written
		// whole; a reconnect resumes at the first line cut short.
		taken, delivered, prev := 0, 0, 0
		for _, end := range ends {
			if end > n {
				break
			}
			if end > prev {
				delivered++
			}
			taken, prev = taken+1, end
		}
		m.mu.Lock()
		m.pos += taken
		m.written += delivered
		drop := m.cfg.DropAfter > 0 && !m.dropped && m.written >= m.cfg.DropAfter
		if drop {
			m.dropped = true
		}
		m.mu.Unlock()
		if drop {
			m.logf("mockrelay: dropping controller connection after %d event lines (churn drill)", m.cfg.DropAfter)
		}
		if drop || werr != nil {
			c.conn.Close()
			return
		}
	}
}

func (c *mockConn) isGone() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gone
}
