package torctl

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"net"
	"os"
	"slices"
	"strings"
	"time"
)

// Config describes a control-port connection to one instrumented relay.
type Config struct {
	// Addr is the control-port address (host:port).
	Addr string
	// CookiePath is the auth cookie file. Empty means use the path the
	// relay advertises in PROTOCOLINFO (the usual Tor deployment: the
	// relay owns the cookie file and tells controllers where it is).
	CookiePath string
	// Password authenticates via HASHEDPASSWORD when the relay offers
	// it; it takes precedence over cookies when both are configured.
	Password string
	// Events is the SETEVENTS subscription; nil means AllEvents.
	Events []string
	// ReconnectMin/Max bound the exponential backoff between reconnect
	// attempts. Zero values select 250ms and 15s.
	ReconnectMin, ReconnectMax time.Duration
	// MaxDialFailures ends the client after this many consecutive
	// failed connection attempts; 0 means retry forever (a relay in a
	// months-long epoch may be down for days).
	MaxDialFailures int
	// DialTimeout bounds each dial attempt; zero selects 10s.
	DialTimeout time.Duration
	// Dialer overrides the TCP dialer (tests).
	Dialer func() (net.Conn, error)
	// Logf, when set, receives connection-lifecycle messages.
	Logf func(format string, args ...any)
}

func (cfg *Config) logf(format string, args ...any) {
	if cfg.Logf != nil {
		cfg.Logf(format, args...)
	}
}

// Reconnects reports how many times the source re-established its
// session after losing one.
func (s *Source) Reconnects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reconnects
}

// Close tears the source down: the current connection drops, and
// Events closes shortly after, with a nil Err.
func (s *Source) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.mu.Lock()
		conn := s.conn
		s.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
	})
}

func (s *Source) closed() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// finish records why the source ended (nil once Close was called) and
// closes Events.
func (s *Source) finish(err error) {
	if s.closed() {
		err = nil
	}
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
	close(s.out)
}

// run pumps event lines, reconnecting across connection failures.
func (s *Source) run(conn net.Conn, br *bufio.Reader) {
	for {
		err := s.pump(br)
		conn.Close()
		if s.closed() {
			s.finish(nil)
			return
		}
		s.cfg.logf("torctl: connection to %s lost: %v; reconnecting", s.cfg.Addr, err)
		conn, br, err = s.reconnect()
		if err != nil {
			s.finish(err)
			return
		}
	}
}

// pump reads lines from one established session until it fails,
// parsing and sending each 650 event payload (handle). Non-650 lines between
// events are tolerated and dropped (a relay may volunteer status lines).
func (s *Source) pump(br *bufio.Reader) error {
	for {
		line, err := readLine(br)
		if err != nil {
			return err
		}
		if len(line) < 4 || line[:3] != "650" {
			continue
		}
		switch line[3] {
		case ' ':
			if err := s.handle(line[4:]); err != nil {
				return err
			}
		case '+':
			// An async data-block reply: drain the block so framing
			// stays aligned; the PRIVCOUNT dialect never uses these.
			if _, err := readDataBlock(br); err != nil {
				return err
			}
		}
		// "650-" continuation lines carry no standalone event; skip.
	}
}

// reconnect retries connect with exponential backoff until it
// succeeds, the client closes, or the failure budget is spent.
func (s *Source) reconnect() (net.Conn, *bufio.Reader, error) {
	delay := s.cfg.ReconnectMin
	failures := 0
	for {
		select {
		case <-time.After(delay):
		case <-s.stop:
			return nil, nil, ErrClosed
		}
		conn, br, err := s.connect()
		if err == nil {
			s.mu.Lock()
			s.reconnects++
			n := s.reconnects
			s.mu.Unlock()
			s.cfg.logf("torctl: reconnected to %s (reconnect %d)", s.cfg.Addr, n)
			return conn, br, nil
		}
		if errors.Is(err, ErrAuthFailed) {
			return nil, nil, err // credentials will not improve with retries
		}
		failures++
		if s.cfg.MaxDialFailures > 0 && failures >= s.cfg.MaxDialFailures {
			return nil, nil, fmt.Errorf("torctl: giving up after %d failed reconnect attempts: %w", failures, err)
		}
		s.cfg.logf("torctl: reconnect to %s failed (%v); next attempt in %v", s.cfg.Addr, err, delay*2)
		if delay *= 2; delay > s.cfg.ReconnectMax {
			delay = s.cfg.ReconnectMax
		}
	}
}

// connect dials and runs the synchronous session setup: PROTOCOLINFO,
// AUTHENTICATE, SETEVENTS. No 650 can arrive before SETEVENTS is
// acknowledged, so replies are read inline.
func (s *Source) connect() (net.Conn, *bufio.Reader, error) {
	var conn net.Conn
	var err error
	if s.cfg.Dialer != nil {
		conn, err = s.cfg.Dialer()
	} else {
		conn, err = net.DialTimeout("tcp", s.cfg.Addr, s.cfg.DialTimeout)
	}
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
	if s.closed() {
		conn.Close()
		return nil, nil, ErrClosed
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	if err := s.handshake(conn, br); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, br, nil
}

// request writes one command line and reads its reply.
func request(conn net.Conn, br *bufio.Reader, cmd string) (Reply, error) {
	if _, err := conn.Write([]byte(cmd + "\r\n")); err != nil {
		return Reply{}, err
	}
	return ReadReply(br)
}

func (s *Source) handshake(conn net.Conn, br *bufio.Reader) error {
	rep, err := request(conn, br, "PROTOCOLINFO 1")
	if err != nil {
		return fmt.Errorf("torctl: PROTOCOLINFO: %w", err)
	}
	if !rep.IsOK() {
		return fmt.Errorf("torctl: PROTOCOLINFO refused: %d %s", rep.Status, rep.Text())
	}
	methods, cookieFile := parseProtocolInfo(rep)

	authCmd, err := s.chooseAuth(conn, br, methods, cookieFile)
	if err != nil {
		return err
	}
	rep, err = request(conn, br, authCmd)
	if err != nil {
		return fmt.Errorf("torctl: AUTHENTICATE: %w", err)
	}
	if !rep.IsOK() {
		return fmt.Errorf("%w: %d %s", ErrAuthFailed, rep.Status, rep.Text())
	}

	rep, err = request(conn, br, "SETEVENTS "+strings.Join(s.cfg.Events, " "))
	if err != nil {
		return fmt.Errorf("torctl: SETEVENTS: %w", err)
	}
	if !rep.IsOK() {
		return fmt.Errorf("torctl: SETEVENTS refused: %d %s", rep.Status, rep.Text())
	}
	return nil
}

// parseProtocolInfo extracts the advertised auth methods and cookie
// file path from a PROTOCOLINFO reply.
func parseProtocolInfo(rep Reply) (methods map[string]bool, cookieFile string) {
	methods = make(map[string]bool)
	for _, line := range rep.Lines {
		rest, ok := strings.CutPrefix(line, "AUTH ")
		if !ok {
			continue
		}
		kv, err := scanPairs(rest, nil)
		if err != nil {
			continue
		}
		list, _ := kv.get("METHODS")
		for _, m := range strings.Split(list, ",") {
			methods[m] = true
		}
		if f, _ := kv.get("COOKIEFILE"); f != "" {
			cookieFile = f
		}
	}
	return methods, cookieFile
}

// chooseAuth picks the strongest workable method and returns the
// AUTHENTICATE command, running the AUTHCHALLENGE exchange for
// SAFECOOKIE.
func (s *Source) chooseAuth(conn net.Conn, br *bufio.Reader, methods map[string]bool, advertisedCookie string) (string, error) {
	if s.cfg.Password != "" && methods["HASHEDPASSWORD"] {
		return "AUTHENTICATE " + quoteString(s.cfg.Password), nil
	}
	cookiePath := s.cfg.CookiePath
	if cookiePath == "" {
		cookiePath = advertisedCookie
	}
	if cookiePath != "" && (methods["SAFECOOKIE"] || methods["COOKIE"]) {
		cookie, err := os.ReadFile(cookiePath)
		if err != nil {
			return "", fmt.Errorf("torctl: read cookie: %w", err)
		}
		if len(cookie) != CookieLen {
			return "", fmt.Errorf("torctl: cookie file %s holds %d bytes, want %d", cookiePath, len(cookie), CookieLen)
		}
		if methods["SAFECOOKIE"] {
			return s.safeCookieAuth(conn, br, cookie)
		}
		return "AUTHENTICATE " + hex.EncodeToString(cookie), nil
	}
	if methods["NULL"] {
		return "AUTHENTICATE", nil
	}
	return "", fmt.Errorf("torctl: no usable auth method (relay offers %v)", slices.Sorted(maps.Keys(methods)))
}

// safeCookieAuth runs the AUTHCHALLENGE exchange and returns the final
// AUTHENTICATE command. It verifies the server hash, so a fake relay
// that does not know the cookie is rejected before we prove anything.
func (s *Source) safeCookieAuth(conn net.Conn, br *bufio.Reader, cookie []byte) (string, error) {
	clientNonce := make([]byte, 32)
	if _, err := rand.Read(clientNonce); err != nil {
		return "", err
	}
	rep, err := request(conn, br, "AUTHCHALLENGE SAFECOOKIE "+hex.EncodeToString(clientNonce))
	if err != nil {
		return "", fmt.Errorf("torctl: AUTHCHALLENGE: %w", err)
	}
	if !rep.IsOK() {
		return "", fmt.Errorf("%w: AUTHCHALLENGE refused: %d %s", ErrAuthFailed, rep.Status, rep.Text())
	}
	rest, ok := strings.CutPrefix(rep.Text(), "AUTHCHALLENGE ")
	if !ok {
		return "", fmt.Errorf("torctl: malformed AUTHCHALLENGE reply %q", rep.Text())
	}
	kv, err := scanPairs(rest, nil)
	if err != nil {
		return "", fmt.Errorf("torctl: malformed AUTHCHALLENGE reply: %v", err)
	}
	hashHex, _ := kv.get("SERVERHASH")
	nonceHex, _ := kv.get("SERVERNONCE")
	serverHash, err1 := hex.DecodeString(hashHex)
	serverNonce, err2 := hex.DecodeString(nonceHex)
	if err1 != nil || err2 != nil || len(serverNonce) == 0 {
		return "", fmt.Errorf("torctl: malformed AUTHCHALLENGE reply %q", rep.Text())
	}
	if !hashesEqual(serverHash, SafeCookieServerHash(cookie, clientNonce, serverNonce)) {
		return "", fmt.Errorf("%w: relay failed the SAFECOOKIE server-hash check", ErrAuthFailed)
	}
	clientHash := SafeCookieClientHash(cookie, clientNonce, serverNonce)
	return "AUTHENTICATE " + hex.EncodeToString(clientHash), nil
}
