package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"
)

// Stream multiplexing: a Session carries many logical Streams — one per
// (round, party-role) — over a single framed connection, so a party
// keeps one persistent TLS connection to the tally server across every
// round it ever participates in. Each stream has credit-based flow
// control: a sender may have at most one window of bytes in flight, so
// a burst on one round's stream can neither exhaust the receiver's
// memory nor starve the connection for other rounds.
//
// The design mirrors HTTP/2 in miniature: the session reader goroutine
// only demultiplexes (it never writes — control replies are handed to a
// dedicated control-writer goroutine — so two sessions can never
// deadlock writing window updates at each other); credit is returned
// from the application's Recv calls; stream IDs carry an initiator bit
// so both ends can open streams without coordination.
//
// Windows: every stream starts at DefaultWindow in both directions, so
// mux/open carries only the round and label and nothing is negotiated.
// Every credit grant is a mux/window frame. The receiver tags
// occasional grants with a probe sequence; the sender echoes
// mux/winack, the measured credit-grant round trip drives the AIMD
// controller in flowctl.go, and window growth is granted as extra
// credit in further mux/window frames. Shrink cannot claw back granted
// credit, so it is applied as debt withheld from future refunds.

// Mux control frame kinds. Application kinds must not collide with
// these; all protocol kinds in this repository are namespaced
// ("psc/...", "privcount/...") so the "mux/" prefix is reserved.
const (
	kindMuxOpen   = "mux/open"
	kindMuxWindow = "mux/window"
	kindMuxWinAck = "mux/winack"
	kindMuxClose  = "mux/close"
	kindMuxReset  = "mux/reset"
)

// DefaultWindow is the initial per-stream flow-control window: the
// maximum bytes (payload plus per-frame overhead) a sender may have
// buffered at the receiver. Every stream starts here on both ends and
// grows beyond it toward the connection's window cap.
const DefaultWindow = 1 << 20

// frameOverhead is the accounting cost added to each frame's payload
// length, covering kind string and framing.
const frameOverhead = 64

// probeStale bounds how long the receiver waits for a winack before
// considering the probe lost and issuing a new one.
const probeStale = 5 * time.Second

func frameCost(f Frame) int64 { return int64(len(f.Payload)) + frameOverhead }

// The mux control messages travel in their own binary form
// (WireAppender/WireParser), like the bulk messages: integers as eight
// little-endian bytes, strings behind a uint32 length.

// openMsg announces a new stream: [Round][Label].
type openMsg struct {
	Round uint64
	Label string
}

// AppendWire implements WireAppender.
func (m openMsg) AppendWire(b []byte) []byte {
	return appendString(binary.LittleEndian.AppendUint64(b, m.Round), m.Label)
}

// ParseWire implements WireParser.
func (m *openMsg) ParseWire(b []byte) error {
	p := NewParser(b)
	m.Round, m.Label = p.u64(), string(p.Bytes())
	return p.Done()
}

// winUpdate is the credit grant: Credit extends the
// sender's budget (refunds and window growth alike), Window reports
// the receiver's current window (monotonic high-water on the sender's
// side), and a nonzero Seq asks the sender to echo a winack so the
// receiver can time the credit round trip. [Credit][Window][Seq].
type winUpdate struct {
	Credit int64
	Window int64
	Seq    uint64
}

// winUpdateSize is a winUpdate's encoded size.
const winUpdateSize = 3 * IntSize

// AppendWire implements WireAppender.
func (wu winUpdate) AppendWire(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(wu.Credit))
	b = binary.LittleEndian.AppendUint64(b, uint64(wu.Window))
	return binary.LittleEndian.AppendUint64(b, wu.Seq)
}

// ParseWire implements WireParser. No receiver grants negative credit
// or announces a negative window, so either is refused.
func (wu *winUpdate) ParseWire(b []byte) error {
	p := NewParser(b)
	wu.Credit, wu.Window, wu.Seq = int64(p.u64()), int64(p.u64()), p.u64()
	if err := p.Done(); err != nil {
		return err
	}
	if wu.Credit < 0 || wu.Window < 0 {
		return fmt.Errorf("%w: credit %d, window %d", ErrBadPayload, wu.Credit, wu.Window)
	}
	return nil
}

// winAck echoes a probe's sequence number: [Seq].
type winAck uint64

// AppendWire implements WireAppender.
func (a winAck) AppendWire(b []byte) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(a))
}

// ParseWire implements WireParser.
func (a *winAck) ParseWire(b []byte) error {
	p := NewParser(b)
	*a = winAck(p.u64())
	return p.Done()
}

// resetMsg is the reason a stream was reset: [Msg].
type resetMsg string

// AppendWire implements WireAppender.
func (m resetMsg) AppendWire(b []byte) []byte { return appendString(b, string(m)) }

// ParseWire implements WireParser.
func (m *resetMsg) ParseWire(b []byte) error {
	p := NewParser(b)
	*m = resetMsg(p.Bytes())
	return p.Done()
}

// ctrlMsg is a control frame queued for the control writer: a growth
// grant, or (ack) a winack whose sequence number the writer takes from
// its stream's ackSeq.
type ctrlMsg struct {
	st  *Stream
	ack bool
	wu  winUpdate
}

// Session multiplexes streams over one Conn. One side is the initiator
// (the party that dialed); stream IDs are unique per session because
// the initiator allocates odd IDs and the acceptor even ones.
type Session struct {
	conn      *Conn
	initiator bool

	mu      sync.Mutex
	streams map[uint64]*Stream
	nextID  uint64
	err     error
	closed  bool

	acceptCh chan *Stream
	done     chan struct{}

	// Control frames originated by the read loop (winacks, growth
	// grants) are queued here and written by ctrlLoop, keeping
	// the read loop write-free. ctrlMu also guards every stream's
	// ackSeq.
	ctrlMu   sync.Mutex
	ctrlCond *sync.Cond
	ctrlq    []ctrlMsg
	ctrlDone bool
}

// NewSession starts a multiplexed session over conn and spawns its
// reader goroutine. Exactly one end must pass initiator=true (by
// convention the dialing party; the tally server accepts).
func NewSession(conn *Conn, initiator bool) *Session {
	s := &Session{
		conn:      conn,
		initiator: initiator,
		streams:   make(map[uint64]*Stream),
		acceptCh:  make(chan *Stream, 1024),
		done:      make(chan struct{}),
	}
	s.ctrlCond = sync.NewCond(&s.ctrlMu)
	go s.readLoop()
	go s.ctrlLoop()
	return s
}

// Open creates a new stream for the given round. The peer sees it on
// Accept. Opening never blocks on the peer.
func (s *Session) Open(round uint64, label string) (*Stream, error) {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return nil, err
	}
	id := s.nextID*2 + 2 // even for acceptor
	if s.initiator {
		id = s.nextID*2 + 1 // odd for initiator
	}
	s.nextID++
	st := newStream(s, id, round, label)
	s.streams[id] = st
	s.mu.Unlock()

	payload := openMsg{Round: round, Label: label}.AppendWire(nil)
	if err := s.conn.SendFrame(Frame{Kind: kindMuxOpen, SID: id, Payload: payload}); err != nil {
		s.drop(id)
		return nil, err
	}
	return st, nil
}

// Accept returns the next peer-initiated stream. It blocks until one
// arrives or the session dies.
func (s *Session) Accept() (*Stream, error) {
	select {
	case st := <-s.acceptCh:
		return st, nil
	case <-s.done:
		return nil, s.Err()
	}
}

// Done closes when the session dies — the peer hung up, the transport
// failed, or Close was called. It is the engine's churn signal: a
// registry watching Done can move a party to the disconnected state the
// moment its TCP session drops, instead of discovering it on the next
// round's first failed stream operation.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err reports why the session died (nil while healthy).
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close tears down the connection; every stream errors out.
func (s *Session) Close() error {
	s.fail(ErrClosed)
	return s.conn.Close()
}

// fail marks the session dead and wakes everything.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	streams := make([]*Stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.streams = map[uint64]*Stream{}
	alreadyClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	s.ctrlMu.Lock()
	s.ctrlDone = true
	s.ctrlCond.Broadcast()
	s.ctrlMu.Unlock()
	for _, st := range streams {
		st.abort(err)
	}
	if !alreadyClosed {
		close(s.done)
	}
}

// sendGrant queues a growth grant for the control writer.
func (s *Session) sendGrant(st *Stream, wu winUpdate) {
	s.ctrlMu.Lock()
	if !s.ctrlDone {
		s.ctrlq = append(s.ctrlq, ctrlMsg{st: st, wu: wu})
		s.ctrlCond.Signal()
	}
	s.ctrlMu.Unlock()
}

// sendAck queues a winack echoing probe seq. A stream has at most one
// winack queued, carrying the newest sequence — onWinAck ignores every
// sequence but the latest probe's — so a peer that floods probes and
// stops reading cannot grow the queue.
func (s *Session) sendAck(st *Stream, seq uint64) {
	s.ctrlMu.Lock()
	if !s.ctrlDone {
		if st.ackSeq == 0 {
			s.ctrlq = append(s.ctrlq, ctrlMsg{st: st, ack: true})
			s.ctrlCond.Signal()
		}
		st.ackSeq = seq
	}
	s.ctrlMu.Unlock()
}

// ctrlLoop writes queued control frames, each encoded into one buffer
// it reuses. It is the only writer the read loop can enlist, so
// read-side replies (winacks, growth grants) never block
// demultiplexing.
func (s *Session) ctrlLoop() {
	var buf []byte
	for {
		s.ctrlMu.Lock()
		for len(s.ctrlq) == 0 && !s.ctrlDone {
			s.ctrlCond.Wait()
		}
		if s.ctrlDone {
			s.ctrlMu.Unlock()
			return
		}
		m := s.ctrlq[0]
		s.ctrlq = s.ctrlq[1:]
		kind := kindMuxWindow
		if m.ack {
			kind = kindMuxWinAck
			buf = winAck(m.st.ackSeq).AppendWire(buf[:0])
			m.st.ackSeq = 0
		} else {
			buf = m.wu.AppendWire(buf[:0])
		}
		s.ctrlMu.Unlock()
		if err := s.conn.SendFrame(Frame{Kind: kind, SID: m.st.id, Payload: buf}); err != nil {
			s.fail(err)
			return
		}
	}
}

func (s *Session) drop(id uint64) {
	s.mu.Lock()
	delete(s.streams, id)
	s.mu.Unlock()
}

func (s *Session) lookup(id uint64) *Stream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[id]
}

// handleOpen installs a peer-initiated stream. The SID must come from
// the peer's half of the ID space: an open carrying the local parity
// (or zero) could be silently replaced by this end's next Open, after
// which that round's frames would reach the wrong stream.
func (s *Session) handleOpen(f Frame, om openMsg) error {
	if f.SID == 0 || (f.SID%2 == 1) == s.initiator {
		return fmt.Errorf("wire: peer opened stream id %d inside the local id space", f.SID)
	}
	st := newStream(s, f.SID, om.Round, om.Label)
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return nil
	}
	if _, dup := s.streams[f.SID]; dup {
		s.mu.Unlock()
		return fmt.Errorf("wire: duplicate stream id %d", f.SID)
	}
	s.streams[f.SID] = st
	s.mu.Unlock()
	select {
	case s.acceptCh <- st:
		return nil
	default:
		return fmt.Errorf("wire: accept backlog overflow")
	}
}

// readLoop is the demultiplexer. It never writes to the connection:
// refunds are sent from application Recv calls and read-side control
// replies go through ctrlLoop, so two sessions can never wedge each
// other by both blocking on a control write.
func (s *Session) readLoop() {
	for {
		f, err := s.conn.Recv()
		if err != nil {
			s.fail(err)
			return
		}
		switch f.Kind {
		case kindMuxOpen:
			var om openMsg
			if err := om.ParseWire(f.Payload); err != nil {
				s.fail(fmt.Errorf("wire: bad mux open: %w", err))
				return
			}
			if err := s.handleOpen(f, om); err != nil {
				s.fail(err)
				return
			}
		case kindMuxWindow:
			var wu winUpdate
			if err := wu.ParseWire(f.Payload); err != nil {
				s.fail(fmt.Errorf("wire: bad window update: %w", err))
				return
			}
			if st := s.lookup(f.SID); st != nil {
				st.onWinUpdate(wu)
			}
		case kindMuxWinAck:
			var seq winAck
			if err := seq.ParseWire(f.Payload); err != nil {
				s.fail(fmt.Errorf("wire: bad winack: %w", err))
				return
			}
			if st := s.lookup(f.SID); st != nil {
				st.onWinAck(uint64(seq))
			}
		case kindMuxClose:
			if st := s.lookup(f.SID); st != nil {
				st.remoteClose()
			}
		case kindMuxReset:
			// A reason that does not parse still resets the stream.
			var msg resetMsg
			_ = msg.ParseWire(f.Payload)
			if st := s.lookup(f.SID); st != nil {
				s.drop(f.SID)
				st.abort(fmt.Errorf("wire: stream reset by peer: %s", msg))
			}
		default:
			st := s.lookup(f.SID)
			if st == nil {
				continue // late frame on a reset stream
			}
			if !st.enqueue(f) {
				s.fail(fmt.Errorf("wire: stream %d overran its flow-control window", f.SID))
				return
			}
		}
	}
}

// StreamStats is the per-stream telemetry surface: byte counters for
// the round accounting, the live windows, and the window controller's
// RTT estimators and backoff count.
type StreamStats struct {
	// BytesSent and BytesRecv count payload bytes moved on the stream.
	BytesSent int64
	BytesRecv int64
	// SendWindow is the peer-announced window governing this end's
	// sends; RecvWindow is this end's own (the current AIMD target).
	SendWindow int64
	RecvWindow int64
	// RTT is the smoothed credit-grant round-trip estimate and MinRTT
	// the smallest sample seen; both are zero until the first probe
	// completes.
	RTT    time.Duration
	MinRTT time.Duration
	// Decreases counts AIMD multiplicative backoffs.
	Decreases int64
	// Throughput is the lifetime average receive rate in bytes/sec.
	Throughput float64
}

// Stream is one logical message channel of a Session. It implements
// Messenger, so every protocol role runs unchanged over a dedicated
// connection or over one stream of a shared session.
type Stream struct {
	sess    *Session
	id      uint64
	round   uint64
	label   string
	created time.Time

	// sendMu serialises Send, which encodes into sendBuf, a buffer
	// the stream reuses for every payload it sends.
	sendMu  sync.Mutex
	sendBuf []byte

	mu   sync.Mutex
	cond *sync.Cond
	rq   []Frame
	// rqCost is the flow-control debt of queued frames; pendingCredit
	// is consumed cost not yet returned to the peer.
	rqCost        int64
	pendingCredit int64
	sendCredit    int64
	// sendWindow is the peer's announced receive window (the largest
	// frame that can ever be covered by credit); recvWindow is this
	// end's own, governing refunds and the controller's target.
	sendWindow int64
	recvWindow int64
	// maxAdvertised is the high-water mark of credit the peer may
	// legitimately act on — the enforcement bound, which only grows.
	maxAdvertised int64
	// debt is window shrinkage not yet collected: credit already in
	// the peer's hands cannot be revoked, so it is withheld from
	// refunds until paid down.
	debt int64
	// ctrl is the AIMD controller driving recvWindow.
	ctrl *winController
	// probeSeq numbers credit probes; probeSent is the departure time
	// of the outstanding probe (zero: none) and probeBytes the recv
	// counter at that moment.
	probeSeq   uint64
	probeSent  time.Time
	probeBytes int64
	// ackSeq is the probe sequence a queued winack will echo (zero:
	// none queued); the session's ctrlMu guards it.
	ackSeq       uint64
	err          error
	failedCh     chan struct{}
	remoteClosed bool
	localClosed  bool
	bytesSent    int64 // payload bytes sent on this stream
	bytesRecv    int64 // payload bytes received on this stream
}

func newStream(s *Session, id, round uint64, label string) *Stream {
	st := &Stream{
		sess: s, id: id, round: round, label: label, created: time.Now(),
		sendCredit: DefaultWindow, sendWindow: DefaultWindow,
		recvWindow: DefaultWindow, maxAdvertised: DefaultWindow,
		ctrl:     newWinController(DefaultWindow, s.conn.windowCap),
		failedCh: make(chan struct{}),
	}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// Round reports the round ID the opener attached to this stream.
func (st *Stream) Round() uint64 { return st.round }

// Label reports the opener's stream label (the role being served).
func (st *Stream) Label() string { return st.label }

// Send encodes v as the payload of a frame with the given kind, into
// the stream's own send buffer: SendFrame has copied the payload into
// the connection's write buffer by the time it returns, so the next
// Send reuses the same bytes and a steady stream of frames allocates
// nothing. Concurrent Sends are serialised on the buffer.
func (st *Stream) Send(kind string, v any) error {
	st.sendMu.Lock()
	defer st.sendMu.Unlock()
	payload, err := appendPayload(st.sendBuf[:0], v)
	if err != nil {
		return fmt.Errorf("wire: encode %q: %w", kind, err)
	}
	st.sendBuf = payload
	return st.SendFrame(Frame{Kind: kind, Payload: payload})
}

// SendFrame writes a frame on the stream, blocking until flow-control
// credit covers it. A frame costing more than a full window can never
// be covered and is rejected outright rather than blocking forever.
func (st *Stream) SendFrame(f Frame) error {
	f.SID = st.id
	cost := frameCost(f)
	st.mu.Lock()
	if cost > st.sendWindow {
		st.mu.Unlock()
		return ErrFrameTooLarge
	}
	for st.err == nil && !st.localClosed && st.sendCredit < cost {
		st.cond.Wait()
	}
	if st.err != nil {
		err := st.err
		st.mu.Unlock()
		return err
	}
	if st.localClosed {
		st.mu.Unlock()
		return ErrClosed
	}
	st.sendCredit -= cost
	st.bytesSent += int64(len(f.Payload))
	st.mu.Unlock()
	if err := st.sess.conn.SendFrame(f); err != nil {
		return err
	}
	return nil
}

// Stats reports the stream's telemetry: byte counters, live windows,
// and the window controller's RTT/throughput estimators.
func (st *Stream) Stats() StreamStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	ss := StreamStats{
		BytesSent:  st.bytesSent,
		BytesRecv:  st.bytesRecv,
		SendWindow: st.sendWindow,
		RecvWindow: st.recvWindow,
		RTT:        st.ctrl.srtt,
		MinRTT:     st.ctrl.minRTT,
		Decreases:  st.ctrl.decreases,
	}
	if el := time.Since(st.created).Seconds(); el > 0 {
		ss.Throughput = float64(st.bytesRecv) / el
	}
	return ss
}

// onWinUpdate applies a credit grant and echoes the probe, if any,
// through the session's control writer. Credit and window are never
// negative (ParseWire refuses them) and credit saturates instead of
// wrapping, so no grant can park the sender.
func (st *Stream) onWinUpdate(wu winUpdate) {
	st.mu.Lock()
	st.sendCredit += min(wu.Credit, math.MaxInt64-st.sendCredit)
	if wu.Window > st.sendWindow {
		st.sendWindow = wu.Window
	}
	st.mu.Unlock()
	st.cond.Broadcast()
	if wu.Seq != 0 {
		st.sess.sendAck(st, wu.Seq)
	}
}

// onWinAck completes a credit probe: the grant-to-echo round trip and
// the bytes consumed meanwhile feed the AIMD controller, growth is
// granted as immediate extra credit, and shrinkage becomes refund
// debt.
func (st *Stream) onWinAck(seq uint64) {
	st.mu.Lock()
	if seq == 0 || seq != st.probeSeq || st.probeSent.IsZero() {
		st.mu.Unlock()
		return
	}
	rtt := time.Since(st.probeSent)
	consumed := st.bytesRecv - st.probeBytes
	st.probeSent = time.Time{}
	target := st.ctrl.observe(rtt, consumed)
	var extra int64
	switch {
	case target > st.recvWindow:
		extra = target - st.recvWindow
		st.recvWindow = target
		if target > st.maxAdvertised {
			st.maxAdvertised = target
		}
	case target < st.recvWindow:
		st.debt += st.recvWindow - target
		st.recvWindow = target
	}
	dead := st.err != nil || st.remoteClosed
	win := st.recvWindow
	st.mu.Unlock()
	if extra > 0 && !dead {
		st.sess.sendGrant(st, winUpdate{Credit: extra, Window: win})
	}
}

// Recv returns the next frame, returning flow-control credit to the
// peer once half the window has been consumed.
func (st *Stream) Recv() (Frame, error) {
	st.mu.Lock()
	for len(st.rq) == 0 && st.err == nil && !st.remoteClosed {
		st.cond.Wait()
	}
	if len(st.rq) == 0 {
		err := st.err
		if err == nil {
			err = ErrClosed // remote half-closed and drained
		}
		st.mu.Unlock()
		return Frame{}, err
	}
	// Frames already delivered drain even if the stream has since
	// failed: a peer may legitimately send its last frame and close the
	// connection in the same instant.
	f := st.rq[0]
	st.rq = st.rq[1:]
	cost := frameCost(f)
	st.rqCost -= cost
	st.pendingCredit += cost
	var refund int64
	var probe uint64
	// Refund once half a window accumulates (batching window updates),
	// and always when the queue drains: leaving residual credit
	// unrefunded across an idle stream would cap the peer below a full
	// window, and a protocol whose next frame needs more than the
	// remainder (e.g. a PSC share chunk after the mix input left
	// window/2−1 unrefunded) would wedge both ends. A half-closed peer
	// gets nothing: it will never send on this stream again, and a
	// refund racing its process exit turns into a TCP RST that discards
	// data it already delivered.
	if (st.pendingCredit >= st.recvWindow/2 || len(st.rq) == 0) && !st.remoteClosed && st.err == nil {
		refund = st.pendingCredit
		st.pendingCredit = 0
		// Window shrinkage is collected here: withheld credit retires
		// debt instead of returning to the peer.
		if st.debt > 0 {
			if refund <= st.debt {
				st.debt -= refund
				refund = 0
			} else {
				refund -= st.debt
				st.debt = 0
			}
		}
		// Piggyback an RTT probe on the grant when no probe is in flight
		// (or the last one went unanswered long enough to be presumed
		// lost).
		if st.probeSent.IsZero() || time.Since(st.probeSent) > probeStale {
			st.probeSeq++
			probe = st.probeSeq
			st.probeSent = time.Now()
			st.probeBytes = st.bytesRecv
		}
	}
	win := st.recvWindow
	st.mu.Unlock()
	if refund > 0 || probe != 0 {
		var buf [winUpdateSize]byte
		payload := winUpdate{Credit: refund, Window: win, Seq: probe}.AppendWire(buf[:0])
		// A failed window update surfaces on the next Send/Recv via
		// the session error; ignore it here.
		_ = st.sess.conn.SendFrame(Frame{Kind: kindMuxWindow, SID: st.id, Payload: payload})
	}
	return f, nil
}

// Expect receives the next frame, requires its kind to match, and
// decodes the payload into out.
func (st *Stream) Expect(kind string, out any) error {
	f, err := st.Recv()
	if err != nil {
		return err
	}
	if f.Kind != kind {
		return fmt.Errorf("wire: expected %q frame, got %q", kind, f.Kind)
	}
	if out == nil {
		return nil
	}
	if err := DecodePayload(f.Payload, out); err != nil {
		return fmt.Errorf("wire: decode %q: %w", kind, err)
	}
	return nil
}

// Close half-closes the sending direction; the peer's Recv drains the
// queue then reports ErrClosed. The stream is forgotten once both sides
// have closed.
func (st *Stream) Close() error {
	st.mu.Lock()
	if st.localClosed || st.err != nil {
		st.mu.Unlock()
		return nil
	}
	st.localClosed = true
	remote := st.remoteClosed
	st.mu.Unlock()
	st.cond.Broadcast()
	if remote {
		st.sess.drop(st.id)
	}
	return st.sess.conn.SendFrame(Frame{Kind: kindMuxClose, SID: st.id})
}

// Reset aborts the stream on both ends: local operations fail
// immediately and the peer sees the message as an error. Other streams
// of the session are unaffected — this is the round-failure isolation
// primitive.
func (st *Stream) Reset(msg string) {
	st.sess.drop(st.id)
	st.abort(fmt.Errorf("wire: stream reset: %s", msg))
	payload := resetMsg(msg).AppendWire(nil)
	_ = st.sess.conn.SendFrame(Frame{Kind: kindMuxReset, SID: st.id, Payload: payload})
}

// enqueue adds an inbound frame, reporting false on window overrun.
func (st *Stream) enqueue(f Frame) bool {
	st.mu.Lock()
	if st.err != nil {
		st.mu.Unlock()
		return true // stream already dead; drop silently
	}
	st.rqCost += frameCost(f)
	// Allow the largest window ever advertised plus one max frame of
	// slack for accounting skew; beyond that the peer is ignoring flow
	// control.
	if st.rqCost > st.maxAdvertised+int64(st.sess.conn.maxFrame)+frameOverhead {
		st.mu.Unlock()
		return false
	}
	st.bytesRecv += int64(len(f.Payload))
	st.rq = append(st.rq, f)
	st.mu.Unlock()
	st.cond.Broadcast()
	return true
}

func (st *Stream) remoteClose() {
	st.mu.Lock()
	st.remoteClosed = true
	local := st.localClosed
	st.mu.Unlock()
	st.cond.Broadcast()
	if local {
		st.sess.drop(st.id)
	}
}

// Failed closes when the stream dies (reset by either side, or session
// death). It lets a goroutine holding a stream open on behalf of a
// round — but blocked on something other than the stream — learn the
// round is gone. It does not fire on a clean Close.
func (st *Stream) Failed() <-chan struct{} { return st.failedCh }

// abort marks the stream failed and wakes all waiters. Frames already
// queued remain readable; only blocking and future operations fail.
func (st *Stream) abort(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
		close(st.failedCh)
	}
	st.mu.Unlock()
	st.cond.Broadcast()
}
