package wire

import (
	"fmt"
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
// Window negotiation: the opener's mux/open announces its receive
// window and its window cap; the acceptor always replies with
// mux/open-ack carrying its own, and the two directions then run
// asymmetric windows. Every credit grant is a mux/window frame. With
// WithAdaptiveWindow enabled, the receiver tags occasional grants with
// a probe sequence; the sender echoes mux/winack, the measured
// credit-grant round trip drives the AIMD controller in flowctl.go, and
// window growth is granted as extra credit in further mux/window
// frames. Shrink cannot claw back granted credit, so it is applied as
// debt withheld from future refunds.

// Mux control frame kinds. Application kinds must not collide with
// these; all protocol kinds in this repository are namespaced
// ("psc/...", "privcount/...") so the "mux/" prefix is reserved.
const (
	kindMuxOpen    = "mux/open"
	kindMuxOpenAck = "mux/open-ack"
	kindMuxWindow  = "mux/window"
	kindMuxWinAck  = "mux/winack"
	kindMuxClose   = "mux/close"
	kindMuxReset   = "mux/reset"
)

// DefaultWindow is the initial per-stream flow-control window: the
// maximum bytes (payload plus per-frame overhead) a sender may have
// buffered at the receiver. It bounds per-stream memory on both ends;
// adaptive streams grow beyond it toward their cap.
const DefaultWindow = 1 << 20

// frameOverhead is the accounting cost added to each frame's payload
// length, covering kind string and framing.
const frameOverhead = 64

// probeStale bounds how long the receiver waits for a winack before
// considering the probe lost and issuing a new one.
const probeStale = 5 * time.Second

func frameCost(f Frame) int64 { return int64(len(f.Payload)) + frameOverhead }

// openMsg announces a new stream. Window is the opener's receive
// window for this stream (and, symmetrically, the credit it assumes
// until an ack adjusts it).
type openMsg struct {
	Round  uint64
	Label  string
	Window int64
}

// openAck is the acceptor's reply to an open, announcing the acceptor's
// own receive window for the stream.
type openAck struct {
	Window int64
}

// winUpdate is the credit grant: Credit extends the
// sender's budget (refunds and window growth alike), Window reports
// the receiver's current window (monotonic high-water on the sender's
// side), and a nonzero Seq asks the sender to echo a winack so the
// receiver can time the credit round trip.
type winUpdate struct {
	Credit int64
	Window int64
	Seq    uint64
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

	// Control frames originated by the read loop (open-acks, winacks,
	// growth grants) are queued here and written by ctrlLoop, keeping
	// the read loop write-free.
	ctrlMu   sync.Mutex
	ctrlCond *sync.Cond
	ctrlq    []Frame
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

	payload, err := EncodePayload(openMsg{Round: round, Label: label, Window: s.conn.window})
	if err != nil {
		return nil, err
	}
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

// sendCtrl queues a control frame for the control writer.
func (s *Session) sendCtrl(f Frame) {
	s.ctrlMu.Lock()
	if !s.ctrlDone {
		s.ctrlq = append(s.ctrlq, f)
		s.ctrlCond.Signal()
	}
	s.ctrlMu.Unlock()
}

// ctrlLoop writes queued control frames. It is the only writer the
// read loop can enlist, so read-side replies (open-acks, winacks)
// never block demultiplexing.
func (s *Session) ctrlLoop() {
	for {
		s.ctrlMu.Lock()
		for len(s.ctrlq) == 0 && !s.ctrlDone {
			s.ctrlCond.Wait()
		}
		if s.ctrlDone {
			s.ctrlMu.Unlock()
			return
		}
		f := s.ctrlq[0]
		s.ctrlq = s.ctrlq[1:]
		s.ctrlMu.Unlock()
		if err := s.conn.SendFrame(f); err != nil {
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

// handleOpen installs a peer-initiated stream and acks it with this
// end's own window, so the two directions run asymmetric (possibly
// adaptive) windows. The SID must come from the peer's half of the ID
// space: an open carrying the local parity (or zero) could be silently
// replaced by this end's next Open, after which that round's frames
// would reach the wrong stream.
func (s *Session) handleOpen(f Frame, om openMsg) error {
	if f.SID == 0 || (f.SID%2 == 1) == s.initiator {
		return fmt.Errorf("wire: peer opened stream id %d inside the local id space", f.SID)
	}
	st := newStream(s, f.SID, om.Round, om.Label)
	st.sendCredit = om.Window
	st.sendWindow = om.Window
	// Until its ack lands the opener sends against its own announced
	// window, so enforcement must honor the larger of the two
	// announcements.
	if om.Window > st.maxAdvertised {
		st.maxAdvertised = om.Window
	}
	st.acked = true
	if s.conn.adaptive {
		st.ctrl = newWinController(st.recvWindow, s.conn.windowCap)
	}
	payload, err := EncodePayload(openAck{Window: st.recvWindow})
	if err != nil {
		return err
	}
	s.sendCtrl(Frame{Kind: kindMuxOpenAck, SID: f.SID, Payload: payload})
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
			if err := DecodePayload(f.Payload, &om); err != nil {
				s.fail(fmt.Errorf("wire: bad mux open: %w", err))
				return
			}
			if err := s.handleOpen(f, om); err != nil {
				s.fail(err)
				return
			}
		case kindMuxOpenAck:
			var ack openAck
			if err := DecodePayload(f.Payload, &ack); err != nil {
				s.fail(fmt.Errorf("wire: bad mux open-ack: %w", err))
				return
			}
			if st := s.lookup(f.SID); st != nil {
				st.onOpenAck(ack)
			}
		case kindMuxWindow:
			var wu winUpdate
			if err := DecodePayload(f.Payload, &wu); err != nil {
				s.fail(fmt.Errorf("wire: bad window update: %w", err))
				return
			}
			if st := s.lookup(f.SID); st != nil {
				st.onWinUpdate(wu)
			}
		case kindMuxWinAck:
			var seq uint64
			if err := DecodePayload(f.Payload, &seq); err != nil {
				s.fail(fmt.Errorf("wire: bad winack: %w", err))
				return
			}
			if st := s.lookup(f.SID); st != nil {
				st.onWinAck(seq)
			}
		case kindMuxClose:
			if st := s.lookup(f.SID); st != nil {
				st.remoteClose()
			}
		case kindMuxReset:
			var msg string
			_ = DecodePayload(f.Payload, &msg)
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
// the round accounting, the live windows, and — when the adaptive
// controller is running — its RTT estimators and backoff count.
type StreamStats struct {
	// BytesSent and BytesRecv count payload bytes moved on the stream.
	BytesSent int64
	BytesRecv int64
	// SendWindow is the peer-announced window governing this end's
	// sends; RecvWindow is this end's own (current AIMD target when
	// adaptive).
	SendWindow int64
	RecvWindow int64
	// RTT is the smoothed credit-grant round-trip estimate and MinRTT
	// the smallest sample seen; both are zero until the first probe
	// completes (fixed-window streams never probe).
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
	// end's own, governing refunds and the adaptive target.
	sendWindow int64
	recvWindow int64
	// maxAdvertised is the high-water mark of credit the peer may
	// legitimately act on — the enforcement bound, which only grows.
	maxAdvertised int64
	// debt is window shrinkage not yet collected: credit already in
	// the peer's hands cannot be revoked, so it is withheld from
	// refunds until paid down.
	debt int64
	// ctrl is the AIMD controller; nil on fixed-window streams.
	ctrl *winController
	// acked makes onOpenAck apply the peer's ack exactly once (set at
	// once on an accepted stream, which is never acked).
	acked bool
	// probeSeq numbers credit probes; probeSent is the departure time
	// of the outstanding probe (zero: none) and probeBytes the recv
	// counter at that moment.
	probeSeq     uint64
	probeSent    time.Time
	probeBytes   int64
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
		sendCredit: s.conn.window, sendWindow: s.conn.window,
		recvWindow: s.conn.window, maxAdvertised: s.conn.window,
		failedCh: make(chan struct{}),
	}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// Round reports the round ID the opener attached to this stream.
func (st *Stream) Round() uint64 { return st.round }

// Label reports the opener's stream label (the role being served).
func (st *Stream) Label() string { return st.label }

// Send encodes v as the payload of a frame with the given kind.
func (st *Stream) Send(kind string, v any) error {
	payload, err := EncodePayload(v)
	if err != nil {
		return fmt.Errorf("wire: encode %q: %w", kind, err)
	}
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
// and the adaptive controller's RTT/throughput estimators.
func (st *Stream) Stats() StreamStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	ss := StreamStats{
		BytesSent:  st.bytesSent,
		BytesRecv:  st.bytesRecv,
		SendWindow: st.sendWindow,
		RecvWindow: st.recvWindow,
	}
	if st.ctrl != nil {
		ss.RTT = st.ctrl.srtt
		ss.MinRTT = st.ctrl.minRTT
		ss.Decreases = st.ctrl.decreases
	}
	if el := time.Since(st.created).Seconds(); el > 0 {
		ss.Throughput = float64(st.bytesRecv) / el
	}
	return ss
}

// onOpenAck applies the acceptor's window announcement: the opener
// assumed a symmetric window at open, so the send budget is adjusted
// by the difference, and the adaptive controller starts.
//
// The ack rides the peer's control queue, and a credit refund written
// straight from the peer's Recv can overtake it. The difference is
// therefore taken against the window assumed at open — never against
// sendWindow, which an overtaking update may already have raised:
// rebasing on the raised value would silently discard up to a window
// of credit and leave opener and acceptor blocked on each other. For
// the same reason a sendWindow already raised past the ack's figure
// (the update is the newer announcement) is left alone.
func (st *Stream) onOpenAck(ack openAck) {
	st.mu.Lock()
	if !st.acked {
		st.acked = true
		assumed := st.sess.conn.window
		st.sendCredit += ack.Window - assumed
		if st.sendWindow == assumed || ack.Window > st.sendWindow {
			st.sendWindow = ack.Window
		}
		if st.sess.conn.adaptive && st.ctrl == nil {
			st.ctrl = newWinController(st.recvWindow, st.sess.conn.windowCap)
		}
	}
	st.mu.Unlock()
	st.cond.Broadcast()
}

// onWinUpdate applies a credit grant and echoes the probe, if any,
// through the session's control writer.
func (st *Stream) onWinUpdate(wu winUpdate) {
	st.mu.Lock()
	st.sendCredit += wu.Credit
	if wu.Window > st.sendWindow {
		st.sendWindow = wu.Window
	}
	st.mu.Unlock()
	st.cond.Broadcast()
	if wu.Seq != 0 {
		if payload, err := EncodePayload(wu.Seq); err == nil {
			st.sess.sendCtrl(Frame{Kind: kindMuxWinAck, SID: st.id, Payload: payload})
		}
	}
}

// onWinAck completes a credit probe: the grant-to-echo round trip and
// the bytes consumed meanwhile feed the AIMD controller, growth is
// granted as immediate extra credit, and shrinkage becomes refund
// debt.
func (st *Stream) onWinAck(seq uint64) {
	st.mu.Lock()
	if st.ctrl == nil || seq == 0 || seq != st.probeSeq || st.probeSent.IsZero() {
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
		if payload, err := EncodePayload(winUpdate{Credit: extra, Window: win}); err == nil {
			st.sess.sendCtrl(Frame{Kind: kindMuxWindow, SID: st.id, Payload: payload})
		}
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
		// Piggyback an RTT probe on the grant when the adaptive loop is
		// running and no probe is in flight (or the last one went
		// unanswered long enough to be presumed lost).
		if st.ctrl != nil && (st.probeSent.IsZero() || time.Since(st.probeSent) > probeStale) {
			st.probeSeq++
			probe = st.probeSeq
			st.probeSent = time.Now()
			st.probeBytes = st.bytesRecv
		}
	}
	win := st.recvWindow
	st.mu.Unlock()
	if refund > 0 || probe != 0 {
		if payload, err := EncodePayload(winUpdate{Credit: refund, Window: win, Seq: probe}); err == nil {
			// A failed window update surfaces on the next Send/Recv via
			// the session error; ignore it here.
			_ = st.sess.conn.SendFrame(Frame{Kind: kindMuxWindow, SID: st.id, Payload: payload})
		}
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
	payload, err := EncodePayload(msg)
	if err != nil {
		return
	}
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
