package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/dp"
	"repro/internal/metrics"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/wire"
)

// Stream labels. The label tells the accepting party which protocol
// role the stream wants from it; the hello stream is the one
// session-level exchange.
const (
	LabelHello     = "engine/hello"
	LabelPSC       = "psc/round"
	LabelPrivCount = "privcount/round"
)

// Session-level party roles.
const (
	RoleCP = "psc-cp"
	RoleSK = "sharekeeper"
	RoleDC = "datacollector"
)

// Hello announces a party when its session is established, and is the
// only place it says who it is: Role and Name are its pinned identity,
// unique per role, and the name every round's tally knows it by. Token
// is the registration secret bound to that identity on first contact —
// a rejoining daemon must present the same token, so a session drop
// does not let another operator claim the identity. An empty token
// leaves the identity bound to its first session: every rejoin attempt
// is refused, since accepting one would let any peer that knows the
// name take the session over. Daemons that must survive reconnects
// therefore need a token. Deployments that want stronger pinning run
// the wire layer over TLS and use the session fingerprint as the
// token.
type Hello struct {
	Role  string
	Name  string
	Token string
}

// HelloAck is the engine's answer on the hello stream: whether the
// registration was accepted, and whether it rebound an existing pinned
// identity (a rejoin) rather than creating a new one.
type HelloAck struct {
	OK       bool
	Rejoined bool
	Reason   string
}

// ErrRejected reports that the engine refused a registration — the
// pinned identity exists with a different token, or the hello was
// malformed. Daemons treat it as fatal: retrying with the same
// credentials can never succeed.
var ErrRejected = errors.New("engine: registration rejected")

// SendHelloPinned announces this party and waits for the engine's
// verdict: the ack reports whether the pinned identity was accepted and
// whether this was a rejoin. A rejected registration (token mismatch)
// returns an error wrapping ErrRejected with the engine's reason.
func SendHelloPinned(sess *wire.Session, h Hello) (HelloAck, error) {
	st, err := sess.Open(0, LabelHello)
	if err != nil {
		return HelloAck{}, err
	}
	defer st.Close()
	if err := st.Send(LabelHello, h); err != nil {
		return HelloAck{}, err
	}
	var ack HelloAck
	if err := st.Expect(LabelHello, &ack); err != nil {
		return HelloAck{}, err
	}
	if !ack.OK {
		return ack, fmt.Errorf("%w: %s", ErrRejected, ack.Reason)
	}
	return ack, nil
}

// Engine is the tally-side round scheduler.
type Engine struct {
	mu        sync.Mutex
	nextRound uint64
	registry  map[string]*member   // pinned identity (role, name) -> member
	members   map[string][]*member // role -> members, registration order
	// membership closes and is replaced on every registration; it wakes
	// WaitParties.
	membership chan struct{}

	grace time.Duration

	acct     *dp.Accountant
	deadline time.Duration
	reg      *metrics.Registry
}

// New returns an empty engine; parties attach via AcceptSession.
func New() *Engine {
	return &Engine{
		reg:        metrics.Default(),
		registry:   make(map[string]*member),
		members:    make(map[string][]*member),
		membership: make(chan struct{}),
	}
}

// SetAccountant makes the engine consult a privacy accountant before
// scheduling: a round whose noise weight would push the cumulative
// (ε,δ) spend past the accountant's budget is refused with a clear
// error instead of silently eroding the guarantee.
func (e *Engine) SetAccountant(a *dp.Accountant) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.acct = a
}

// SetRoundDeadline bounds every subsequently scheduled round: its
// context carries d as a timeout, so a round that has not completed
// within d is cancelled exactly as an operator Abort would cancel it —
// a stalled party costs its round, not an operator page. Zero disables.
func (e *Engine) SetRoundDeadline(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.deadline = d
}

// Metrics returns the registry the engine records into.
func (e *Engine) Metrics() *metrics.Registry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.reg
}

// authorize consults the accountant, if any. It runs after every other
// fallible scheduling step except stream-open, so a round that cannot
// even be configured never consumes budget; open failures refund.
func (e *Engine) authorize(label string) error {
	e.mu.Lock()
	acct := e.acct
	e.mu.Unlock()
	if acct == nil {
		return nil
	}
	_, err := acct.Spend(label)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// unauthorize refunds a spend for a round that failed before running.
func (e *Engine) unauthorize(label string) {
	e.mu.Lock()
	acct := e.acct
	e.mu.Unlock()
	if acct != nil {
		acct.Refund(label)
	}
}

// AcceptSession performs the tally side of the hello handshake: it
// reads the party announcement, registers or rebinds the pinned
// identity, and acks the verdict on the hello stream. It is the one
// identity gate: a hello without a name or with an unknown role is
// refused, and every name it admits is unique within its role. A
// re-registration under a known identity with the matching token
// rebinds the member to this session (latest wins; any previous live
// session is closed); a token mismatch is rejected and the caller
// should close the session.
func (e *Engine) AcceptSession(sess *wire.Session) (Hello, error) {
	st, err := sess.Accept()
	if err != nil {
		return Hello{}, err
	}
	defer st.Close()
	if st.Label() != LabelHello {
		st.Reset("engine: expected hello stream")
		return Hello{}, fmt.Errorf("engine: expected hello stream, got %q", st.Label())
	}
	var h Hello
	if err := st.Expect(LabelHello, &h); err != nil {
		return Hello{}, err
	}
	var rejoined bool
	switch {
	case h.Name == "":
		err = fmt.Errorf("engine: hello without a name")
	case h.Role != RoleCP && h.Role != RoleSK && h.Role != RoleDC:
		err = fmt.Errorf("engine: unknown role %q", h.Role)
	default:
		rejoined, err = e.register(h, sess)
	}
	ack := HelloAck{OK: err == nil, Rejoined: rejoined}
	if err != nil {
		ack.Reason = err.Error()
	}
	_ = st.Send(LabelHello, ack)
	if err != nil {
		return Hello{}, err
	}
	return h, nil
}

// Counts reports how many parties of each role are registered
// (connected or disconnected).
func (e *Engine) Counts() (cps, sks, dcs int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.members[RoleCP]), len(e.members[RoleSK]), len(e.members[RoleDC])
}

// Close tears down every registered session.
func (e *Engine) Close() {
	e.mu.Lock()
	var sessions []*wire.Session
	for _, ms := range e.members {
		for _, m := range ms {
			sessions = append(sessions, m.sess)
		}
	}
	e.mu.Unlock()
	for _, s := range sessions {
		s.Close()
	}
}

// newRound builds a round over parties with the engine's observability
// and deadline wired: the round's context exists from here on, and its
// cancellation — by Abort, the deadline, or finish reporting a failed
// tally — is what resets the round's streams.
func (e *Engine) newRound(label string, parties []*member) *Round {
	e.mu.Lock()
	reg, d := e.reg, e.deadline
	e.nextRound++
	id := e.nextRound
	e.mu.Unlock()
	r := &Round{
		ID: id, Label: label, done: make(chan struct{}),
		parties: parties, started: time.Now(), reg: reg,
	}
	r.ctx, r.cancel = context.WithCancelCause(context.Background())
	if d > 0 {
		r.ctx, r.disarm = context.WithTimeoutCause(r.ctx, d, fmt.Errorf("round deadline %v exceeded", d))
	}
	r.stop = context.AfterFunc(r.ctx, r.resetStreams)
	return r
}

// pick selects parties for a round: explicit indices, or the first n.
func pick(pool []*member, sel []int, n int, role string) ([]*member, error) {
	if sel == nil {
		if len(pool) < n {
			return nil, fmt.Errorf("engine: need %d %s sessions, have %d", n, role, len(pool))
		}
		return pool[:n], nil
	}
	if len(sel) != n {
		return nil, fmt.Errorf("engine: %d %s indices for %d slots", len(sel), role, n)
	}
	out := make([]*member, n)
	for i, idx := range sel {
		if idx < 0 || idx >= len(pool) {
			return nil, fmt.Errorf("engine: %s index %d out of range", role, idx)
		}
		out[i] = pool[idx]
	}
	return out, nil
}

// Round is one scheduled measurement round. Wait blocks for the
// outcome. The round is its context: Abort, the engine's round deadline
// and a failed tally all cancel ctx with the reason as the cause, and
// that cancellation — nothing else — resets the round's streams, wakes
// the tally's pipeline and ends any rejoin wait pending on the round's
// behalf. The sessions are never touched, so every other round keeps
// running.
type Round struct {
	ID    uint64
	Label string
	done  chan struct{}

	ctx    context.Context
	cancel context.CancelCauseFunc
	// disarm releases the deadline timer; nil when no deadline is set.
	disarm context.CancelFunc
	// stop detaches resetStreams from ctx. Its result is the one claim on
	// the round's outcome: true, and the tally's own result stands; false,
	// and a cancellation got there first (see finish).
	stop func() bool

	// parties is the membership snapshot the round was scheduled over,
	// in the order its streams were opened.
	parties []*member

	started time.Time
	reg     *metrics.Registry

	mu      sync.Mutex
	streams []*wire.Stream
	err     error
	stats   RoundStats
	absent  []string
	pscRes  psc.Result
	privRes map[string][]float64
}

// RoundStats describes one completed round for the operator: how long
// it ran and how much it moved over its streams.
type RoundStats struct {
	Seconds   float64
	BytesSent int64
	BytesRecv int64
}

// Stats returns the round's resource footprint; valid once Done.
func (r *Round) Stats() RoundStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Done closes when the round has an outcome.
func (r *Round) Done() <-chan struct{} { return r.done }

// Err returns the round error (nil before Done and on success).
func (r *Round) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Abort cancels the round with reason as the cause: its streams are
// reset, so parties and the tally see the reason as a stream error and
// unwind, and the round completes with the reason as its error — unless
// the tally's result was claimed first, in which case that result
// stands. The sessions stay healthy.
func (r *Round) Abort(reason string) { r.cancel(errors.New(reason)) }

// resetStreams is the one bridge from the round's context to the wire:
// it runs once, when ctx is cancelled (or from finish, which detaches it
// first), and resets every stream with the cause's text.
func (r *Round) resetStreams() {
	reason := context.Cause(r.ctx).Error()
	r.mu.Lock()
	streams := append([]*wire.Stream(nil), r.streams...)
	r.mu.Unlock()
	for _, st := range streams {
		st.Reset(reason)
	}
}

// addStream attaches a stream to the round's stream set, so cancellation
// and stats cover it. It refuses once the round is cancelled: ctx is
// cancelled before resetStreams snapshots the set under the same mutex,
// so a stream is either in the reset set or refused here and reset by
// the caller.
func (r *Round) addStream(st *wire.Stream) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ctx.Err() != nil {
		return false
	}
	r.streams = append(r.streams, st)
	return true
}

// Absent lists, sorted, the parties declared absent from a completed
// round — the round ran degraded without their contribution, above its
// config's MinDCs floor. Empty for a full-strength round. It is the
// round's one record of absence: the tallies keep only a count.
func (r *Round) Absent() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Sorted(slices.Values(r.absent))
}

// names lists the pinned names of the round's membership snapshot, in
// the order of its streams: what the tally knows each party by.
func (r *Round) names() []string {
	names := make([]string, len(r.parties))
	for i, m := range r.parties {
		names[i] = m.name
	}
	return names
}

// Degraded reports whether the round completed without some selected
// parties.
func (r *Round) Degraded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.absent) > 0
}

// finish records the outcome and the metrics and releases the streams:
// closed on success so peers drain cleanly, reset on failure so every
// blocked party unwinds immediately. err is the tally's own result.
func (r *Round) finish(err error) {
	// Claim the outcome before anything else. If a cancellation got
	// there first, resetStreams is already running and the cause IS the
	// round's error, whatever the unwinding tally returned — a deadline or
	// an Abort that fires as the tally completes can never reset the
	// streams of a round reported as successful, nor the reverse.
	claimed := r.stop()
	if !claimed {
		cause := context.Cause(r.ctx)
		if errors.Is(r.ctx.Err(), context.DeadlineExceeded) && r.reg != nil {
			r.reg.Inc("engine/" + r.Label + "/rounds-deadline-exceeded")
		}
		if err != nil && !errors.Is(err, cause) {
			err = fmt.Errorf("%v (unwound with: %v)", cause, err)
		} else {
			err = cause
		}
	}
	// On success this only releases the context; a failed tally's error
	// becomes the cause its streams are reset with.
	r.cancel(err)
	if r.disarm != nil {
		r.disarm()
	}
	r.mu.Lock()
	streams := append([]*wire.Stream(nil), r.streams...)
	r.mu.Unlock()
	stats := RoundStats{Seconds: time.Since(r.started).Seconds()}
	var maxWindow int64
	var maxRTT time.Duration
	for _, st := range streams {
		ss := st.Stats()
		stats.BytesSent += ss.BytesSent
		stats.BytesRecv += ss.BytesRecv
		if ss.RecvWindow > maxWindow {
			maxWindow = ss.RecvWindow
		}
		if ss.RTT > maxRTT {
			maxRTT = ss.RTT
		}
	}
	r.mu.Lock()
	r.err = err
	r.stats = stats
	nAbsent := len(r.absent)
	r.mu.Unlock()
	if r.reg != nil {
		outcome := "completed"
		if err != nil {
			outcome = "failed"
		}
		r.reg.Inc("engine/" + r.Label + "/rounds-" + outcome)
		r.reg.Add("engine/"+r.Label+"/round-seconds", stats.Seconds)
		r.reg.Add("engine/"+r.Label+"/stream-bytes-sent", float64(stats.BytesSent))
		r.reg.Add("engine/"+r.Label+"/stream-bytes-recv", float64(stats.BytesRecv))
		// Per-round gauges: the most recent round's footprint as levels, so
		// a scraper graphs the latest round directly instead of
		// differentiating the cumulative counters.
		ok := 0.0
		if err == nil {
			ok = 1
		}
		r.reg.Set("engine/"+r.Label+"/last-round-ok", ok)
		r.reg.Set("engine/"+r.Label+"/last-round-seconds", stats.Seconds)
		r.reg.Set("engine/"+r.Label+"/last-round-bytes-sent", float64(stats.BytesSent))
		r.reg.Set("engine/"+r.Label+"/last-round-bytes-recv", float64(stats.BytesRecv))
		r.reg.Set("engine/"+r.Label+"/last-round-parties-absent", float64(nAbsent))
		// Flow-control gauges: the widest stream window of the round and
		// the smoothed credit-grant RTT, making the window controller's
		// behavior visible on the Prometheus endpoint. The RTT reads zero
		// when no stream of the round completed a probe.
		r.reg.Set("wire/"+r.Label+"/window-bytes", float64(maxWindow))
		r.reg.Set("wire/"+r.Label+"/rtt-ms", float64(maxRTT)/float64(time.Millisecond))
		// A degraded round counts exactly once, and only if it actually
		// completed: a round that also failed (deadline, quorum lost) is
		// a failure, not a degradation.
		if err == nil && nAbsent > 0 {
			r.reg.Inc("engine/" + r.Label + "/rounds-degraded")
			r.reg.Add("engine/"+r.Label+"/parties-absent", float64(nAbsent))
		}
	}
	switch {
	case err == nil:
		for _, st := range streams {
			st.Close()
		}
	case claimed:
		r.resetStreams()
	}
	close(r.done)
}

// openRound opens one labeled stream per party of the round's
// membership snapshot. Parties before dcStart are protocol-critical
// (CPs, SKs): an open failure aborts the round. From dcStart on the
// parties are data collectors, where the quorum floor may tolerate
// absence: a failed open substitutes a messenger that reports the
// failure on first use, routing a dead-at-start DC through the tally's
// per-party recovery path instead of wedging scheduling.
func (e *Engine) openRound(r *Round, dcStart int) ([]wire.Messenger, error) {
	ms := make([]wire.Messenger, 0, len(r.parties))
	for i, m := range r.parties {
		e.mu.Lock()
		sess := m.sess
		e.mu.Unlock()
		st, err := sess.Open(r.ID, r.Label)
		if err != nil {
			err = fmt.Errorf("engine: open %s stream to %s: %w", r.Label, m.name, err)
			if i >= dcStart {
				ms = append(ms, failedMessenger{err: err})
				continue
			}
			return nil, err
		}
		if !r.addStream(st) {
			st.Reset("round already finished")
			return nil, fmt.Errorf("engine: round %d finished during setup", r.ID)
		}
		ms = append(ms, st)
	}
	return ms, nil
}

// recoverFn builds the per-round recovery callback the protocol tallies
// consult when a party's exchange fails. If the party may still resume
// (its contribution barrier has not been passed), the engine tries to
// rebind it: an already-rejoined session gets a fresh round stream
// immediately, and otherwise the call blocks up to the rejoin grace
// window for the party to re-register. When no resumption is possible
// the party is recorded absent and nil returned; the tally decides —
// by the round's cancellation and its quorum floor — whether the round
// degrades or fails.
func (e *Engine) recoverFn(r *Round) func(i int, canRetry bool) wire.Messenger {
	return func(i int, canRetry bool) wire.Messenger {
		m := r.parties[i]
		if canRetry {
			if st := e.reopenFor(r, m); st != nil {
				r.reg.Inc("engine/" + r.Label + "/parties-reattached")
				return st
			}
		}
		r.mu.Lock()
		r.absent = append(r.absent, m.name)
		r.mu.Unlock()
		return nil
	}
}

// WaitPSC blocks until the round completes and returns its result.
func (r *Round) WaitPSC() (psc.Result, error) {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pscRes, r.err
}

// WaitPrivCount blocks until the round completes and returns its
// aggregated statistics.
func (r *Round) WaitPrivCount() (map[string][]float64, error) {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.privRes, r.err
}

// StartPSC schedules a PSC round over cfg.NumCPs computation parties
// and cfg.NumDCs collector sessions (dcSel indices, or the first
// NumDCs). cfg.Round and cfg.Recover are assigned by the engine;
// cfg.MinDCs is the round's DC quorum floor, as given. The round runs
// in the background; collect the outcome with WaitPSC.
func (e *Engine) StartPSC(cfg psc.Config, dcSel []int) (*Round, error) {
	// PSC correctness requires every CP (n-of-n joint key); cfg.MinDCs
	// governs DC coverage only.
	return e.start(LabelPSC, RoleCP, cfg.NumCPs, dcSel, cfg.NumDCs, func(r *Round) (runFunc, error) {
		cfg.Round, cfg.Recover = r.ID, e.recoverFn(r)
		tally, err := psc.NewTally(cfg)
		if err != nil {
			return nil, err
		}
		return func(ms []wire.Messenger) (err error) {
			r.pscRes, err = tally.Run(r.ctx, ms, r.names())
			return err
		}, nil
	})
}

// StartPrivCount schedules a PrivCount round over cfg.NumSKs share
// keepers and cfg.NumDCs collector sessions (dcSel indices, or the
// first NumDCs). cfg.Round and cfg.Recover are assigned by the engine;
// cfg.MinDCs is the round's DC quorum floor, as given.
func (e *Engine) StartPrivCount(cfg privcount.TallyConfig, dcSel []int) (*Round, error) {
	// PrivCount requires every SK (each holds blinding state nobody can
	// reproduce); cfg.MinDCs governs DC coverage only.
	return e.start(LabelPrivCount, RoleSK, cfg.NumSKs, dcSel, cfg.NumDCs, func(r *Round) (runFunc, error) {
		cfg.Round, cfg.Recover = r.ID, e.recoverFn(r)
		tally, err := privcount.NewTally(cfg)
		if err != nil {
			return nil, err
		}
		return func(ms []wire.Messenger) (err error) {
			r.privRes, err = tally.Run(r.ctx, ms, r.names())
			return err
		}, nil
	})
}

// runFunc runs a built tally over the round's messengers and stores its
// typed result on the round; the result is read only after Done.
type runFunc func(ms []wire.Messenger) error

// start is the one scheduling path: pick the critical parties (the
// first n registered under role — an open failure to one of them fails
// scheduling) and the DCs, build the round and its tally, spend the
// budget, open the streams, and run the tally in the background. Any
// failure before the tally runs cancels the round — resetting whatever
// streams were opened — and a failed open refunds the budget.
func (e *Engine) start(label, role string, n int, dcSel []int, numDCs int, build func(r *Round) (runFunc, error)) (*Round, error) {
	e.mu.Lock()
	critical, err := pick(e.members[role], nil, n, role)
	var dcs []*member
	if err == nil {
		dcs, err = pick(e.members[RoleDC], dcSel, numDCs, RoleDC)
	}
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	r := e.newRound(label, append(append([]*member(nil), critical...), dcs...))
	run, err := build(r)
	if err == nil {
		err = e.authorize(label)
	}
	var ms []wire.Messenger
	if err == nil {
		if ms, err = e.openRound(r, n); err != nil {
			e.unauthorize(label)
		}
	}
	if err != nil {
		r.cancel(err)
		return nil, err
	}
	go func() { r.finish(run(ms)) }()
	return r, nil
}
