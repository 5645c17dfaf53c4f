package privcount

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/spill"
	"repro/internal/wire"
)

// TallyConfig describes one PrivCount round from the tally server's
// perspective.
type TallyConfig struct {
	Round uint64
	Stats []StatConfig
	// NumDCs and NumSKs are how many of each party must participate.
	// The paper deploys 16 DCs and 3 SKs (§3.1).
	NumDCs, NumSKs int
	// MinDCs is the quorum floor for data collectors: the round
	// completes (with reduced coverage, which the engine's round
	// annotates) as long as at least MinDCs reports arrive. Zero means
	// every DC is required. SKs have no quorum knob: each holds
	// blinding state the aggregate cannot telescope without.
	MinDCs int
	// Recover is consulted whenever the exchange with the DC at index
	// i of the Run slice (SKs first, then DCs) fails. canRetry reports
	// that the DC's contribution barrier has not been passed — the
	// begin signal has not gone out — so a replacement messenger can
	// restart its configure/shares exchange (the SKs replace that DC's
	// seed with the re-sent one). A non-nil return is that
	// replacement; nil, or a nil Recover, declares the DC absent, and
	// Run alone decides whether the absence degrades or fails the
	// round.
	Recover func(i int, canRetry bool) wire.Messenger
}

// floor is how many DCs must report: MinDCs, or every DC when it is
// zero.
func (c TallyConfig) floor() int {
	if c.MinDCs == 0 {
		return c.NumDCs
	}
	return c.MinDCs
}

// Validate checks the configuration.
func (c TallyConfig) Validate() error {
	if c.NumDCs <= 0 {
		return fmt.Errorf("privcount: need at least one DC")
	}
	if c.NumSKs <= 0 {
		return fmt.Errorf("privcount: need at least one SK (the privacy guarantee requires an honest SK)")
	}
	if c.MinDCs < 0 || c.MinDCs > c.NumDCs {
		return fmt.Errorf("privcount: DC quorum %d out of range for %d DCs", c.MinDCs, c.NumDCs)
	}
	_, err := NewSchema(c.Stats)
	return err
}

// Tally is the tally server for one round.
type Tally struct {
	cfg    TallyConfig
	schema *Schema
	shapes []StatShape // what each DC's configure frame carries
}

// NewTally validates the configuration and returns a tally server.
func NewTally(cfg TallyConfig) (*Tally, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shapes := shapesOf(cfg.Stats)
	schema, err := newSchema(shapes)
	if err != nil {
		return nil, err
	}
	return &Tally{cfg: cfg, schema: schema, shapes: shapes}, nil
}

// Schema returns the round schema.
func (t *Tally) Schema() *Schema { return t.schema }

// Run executes the round over the given established messengers (one
// per party — dedicated connections or per-round streams of
// multiplexed sessions). It blocks until every participating DC has
// reported and every SK has answered, then returns the aggregated
// noisy statistics.
//
// Precondition: both slices are positional — the NumSKs SKs first,
// then the NumDCs DCs (the engine orders them) — and names[i] is the
// pinned name of the party behind conns[i]: the SK names DCs seal
// their seeds to, the DC names the SKs key those seeds by, and the
// name every error carries.
//
// The protocol phases are strictly sequenced, matching the PrivCount
// deployment: SK key registration, configuration, share distribution
// (sealed seeds relayed through the TS), collection, and aggregation.
// SKs are all required — each holds irreplaceable blinding state. A DC
// failure is put to cfg.Recover, which may restart the DC on a
// rejoined session; a DC it does not replace is lost (see lose) and
// counted, not listed — the engine keeps the round's one list. Absent
// DCs are excluded from the aggregate on both sides of the telescoping
// sum — the report sum and, via the collect DC list, every SK's
// blinding sum; their noise shares are covered by provisioning every
// DC's weight at the quorum floor (see weightFor), so a degraded round
// never carries less than the calibrated sigma.
//
// ctx is the round: cancelling it stops the report collection, and Run
// returns the cause. It does not unblock a phase waiting on a
// messenger; the caller resets or closes them once Run has returned.
func (t *Tally) Run(ctx context.Context, conns []wire.Messenger, names []string) (res map[string][]float64, err error) {
	if len(conns) != t.cfg.NumDCs+t.cfg.NumSKs || len(names) != len(conns) {
		return nil, fmt.Errorf("privcount ts: have %d connections and %d names, want %d DCs + %d SKs",
			len(conns), len(names), t.cfg.NumDCs, t.cfg.NumSKs)
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer func() { cancel(err) }()

	// SKs: positional and protocol-critical.
	skConns, skNames := conns[:t.cfg.NumSKs], names[:t.cfg.NumSKs]
	skKeys := make(map[string][]byte)
	for i, name := range skNames {
		var reg RegisterMsg
		if err := skConns[i].Expect(kindRegister, &reg); err != nil {
			return nil, fmt.Errorf("privcount ts: registration of SK %s: %w", name, err)
		}
		if len(reg.SealPub) == 0 {
			return nil, fmt.Errorf("privcount ts: SK %q registered without a seal key", name)
		}
		skKeys[name] = reg.SealPub
	}
	for i, c := range skConns {
		cfg := ConfigureMsg{Round: t.cfg.Round, Slots: t.schema.Size(), NumDCs: t.cfg.NumDCs, MinDCs: t.cfg.floor()}
		if err := c.Send(kindConfigure, cfg); err != nil {
			return nil, fmt.Errorf("privcount ts: configure SK %s: %w", skNames[i], err)
		}
	}

	// DC setup: configure, relay shares — sequentially, so each SK
	// stream has a single sender. A failed DC may be restarted once on
	// a replacement messenger while its contribution barrier (the begin
	// signal) has not been passed; the SKs replace its seed with the
	// one the restarted exchange delivers.
	type dcSlot struct {
		idx  int
		name string
		conn wire.Messenger
	}
	var present []dcSlot
	absent := 0
	// lose is the verdict on a DC Recover did not replace: a cancelled
	// round's cause; a failure naming the DC if one more absentee breaks
	// the quorum floor (so a nil Recover and MinDCs 0 fail the round on
	// the first DC error); an absence otherwise.
	lose := func(name string, err error) error {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		if absent == t.cfg.NumDCs-t.cfg.floor() {
			return fmt.Errorf("privcount ts: quorum lost at DC %s (%d of %d DCs absent, floor %d): %w",
				name, absent+1, t.cfg.NumDCs, t.cfg.floor(), err)
		}
		absent++
		return nil
	}
	for idx := t.cfg.NumSKs; idx < len(conns); idx++ {
		d := dcSlot{idx: idx, name: names[idx], conn: conns[idx]}
		err := t.setupDC(d.name, d.conn, skNames, skKeys, skConns)
		if err != nil {
			if repl := t.recoverDC(idx, true); repl != nil {
				d.conn = repl
				if err = t.setupDC(d.name, repl, skNames, skKeys, skConns); err != nil {
					t.recoverDC(idx, false)
				}
			}
		}
		if err == nil {
			present = append(present, d)
		} else if err := lose(d.name, err); err != nil {
			return nil, err
		}
	}

	// Begin, then reports; from here a lost DC cannot restart (its
	// shares are already counted into collection), only be excluded.
	begun := present[:0]
	for _, d := range present {
		if err := d.conn.Send(kindBegin, BeginMsg{Round: t.cfg.Round}); err != nil {
			t.recoverDC(d.idx, false)
			if err := lose(d.name, fmt.Errorf("privcount ts: begin DC %s: %w", d.name, err)); err != nil {
				return nil, err
			}
			continue
		}
		begun = append(begun, d)
	}
	// Reports are collected concurrently — one goroutine per begun DC —
	// each streaming into a spilled per-DC buffer that this goroutine,
	// the sum's one writer, folds into the round's modular sum only once
	// complete. A DC that dies mid-report leaves nothing behind, and the
	// TS holds one schema-sized sum plus O(chunk) per stream instead of
	// one vector per party. The recovery callback stays on this
	// goroutine too. A buffer changes hands only when this loop takes it
	// (the channel is unbuffered); one nobody takes, because Run
	// returned early and cancelled ctx, is closed by its own goroutine.
	sum := make([]uint64, t.schema.Size())
	type reportOutcome struct {
		d   dcSlot
		buf *spill.Store // the whole report; nil on error
		err error
	}
	repOutcomes := make(chan reportOutcome)
	for _, d := range begun {
		go func(d dcSlot) {
			buf, err := t.collectReport(d.name, d.conn)
			select {
			case repOutcomes <- reportOutcome{d: d, buf: buf, err: err}:
			case <-ctx.Done():
				if buf != nil {
					buf.Close()
				}
			}
		}(d)
	}
	var reported []string
	for range begun {
		var o reportOutcome
		select {
		case o = <-repOutcomes:
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
		if o.err != nil {
			t.recoverDC(o.d.idx, false)
			if err := lose(o.d.name, o.err); err != nil {
				return nil, err
			}
			continue
		}
		err := foldReport(sum, o.buf)
		o.buf.Close()
		if err != nil {
			// Part of the report may already be in the sum, so the DC
			// cannot be declared absent: the round fails.
			return nil, fmt.Errorf("privcount ts: report fold for DC %s: %w", o.d.name, err)
		}
		reported = append(reported, o.d.name)
	}
	// Completion order is nondeterministic; the collect request should
	// not be.
	sort.Strings(reported)

	// SK sums over exactly the reported DCs: the telescoping sum must
	// exclude an absent DC's blinding on both sides. Every SK is
	// required, so its chunks fold straight into the sum — a failure
	// aborts the round, partial folds and all.
	if err := t.collectSums(skNames, skConns, reported, sum); err != nil {
		return nil, err
	}
	return AggregateSum(t.schema, sum)
}

// setupDC drives one DC through configuration and share distribution.
func (t *Tally) setupDC(name string, c wire.Messenger, skNames []string, skKeys map[string][]byte, skConns []wire.Messenger) error {
	cfg := ConfigureMsg{
		Round:       t.cfg.Round,
		Shapes:      t.shapes,
		NumDCs:      t.cfg.NumDCs,
		SKNames:     skNames,
		SKKeys:      skKeys,
		NoiseWeight: t.weightFor(),
	}
	if err := c.Send(kindConfigure, cfg); err != nil {
		return fmt.Errorf("privcount ts: configure DC %s: %w", name, err)
	}
	return t.relayShares(name, c, skNames, skConns)
}

// relayShares forwards one DC's sealed seeds, one box to each SK.
func (t *Tally) relayShares(name string, c wire.Messenger, skNames []string, skConns []wire.Messenger) error {
	var shares SharesMsg
	if err := c.Expect(kindShares, &shares); err != nil {
		return fmt.Errorf("privcount ts: shares from DC %s: %w", name, err)
	}
	if shares.N != t.schema.Size() {
		return fmt.Errorf("privcount ts: DC %s sharing %d slots, want %d", name, shares.N, t.schema.Size())
	}
	if len(shares.Boxes) != len(skNames) {
		return fmt.Errorf("privcount ts: DC %s sent %d boxes, want %d", name, len(shares.Boxes), len(skNames))
	}
	for i, sk := range skNames {
		box, ok := shares.Boxes[sk]
		if !ok {
			return fmt.Errorf("privcount ts: DC %s missing box for SK %s", name, sk)
		}
		if err := skConns[i].Send(kindRelay, RelayMsg{From: name, N: shares.N, Box: box}); err != nil {
			return fmt.Errorf("privcount ts: relay to SK %s: %w", sk, err)
		}
	}
	return nil
}

// collectReport streams one DC's report into a spilled buffer and
// returns it only once every chunk has arrived; Run folds it into the
// round's sum. The two phases matter: a DC that dies mid-report must
// contribute nothing, because its blinding will be excluded from the
// SK sums — so partial folds would corrupt the telescoping sum. On
// failure the buffer is closed here.
func (t *Tally) collectReport(name string, c wire.Messenger) (*spill.Store, error) {
	var rep ReportMsg
	if err := c.Expect(kindReport, &rep); err != nil {
		return nil, fmt.Errorf("privcount ts: report from DC %s: %w", name, err)
	}
	if rep.Round != t.cfg.Round {
		return nil, fmt.Errorf("privcount ts: DC %s reported round %d, want %d", name, rep.Round, t.cfg.Round)
	}
	if rep.N != t.schema.Size() {
		return nil, fmt.Errorf("privcount ts: DC %s report has %d slots, want %d", name, rep.N, t.schema.Size())
	}
	buf, err := spill.New(rep.N, 8)
	if err != nil {
		return nil, fmt.Errorf("privcount ts: report spill for DC %s: %w", name, err)
	}
	if err := recvValuesFunc(c, rep.N, buf.WriteAt); err != nil {
		buf.Close()
		return nil, fmt.Errorf("privcount ts: report from DC %s: %w", name, err)
	}
	return buf, nil
}

// foldReport adds a whole buffered report into sum, a chunk at a time.
func foldReport(sum []uint64, buf *spill.Store) error {
	return forEachChunk(len(sum), ChunkSlots, func(off, end int) error {
		raw, err := buf.ReadRange(off, end-off)
		if err != nil {
			return err
		}
		addSlots(sum[off:end], raw)
		return nil
	})
}

// addSlots adds raw — slots as they travel and spill, eight
// little-endian bytes apiece — into dst mod 2⁶⁴, one slot per element
// of dst.
func addSlots(dst []uint64, raw []byte) {
	for i := range dst {
		dst[i] += binary.LittleEndian.Uint64(raw[8*i:])
	}
}

// collectSums asks every SK for its blinding sums over the reported DCs
// and streams them straight into the round's sum. Unlike DC reports, no
// buffer-then-fold staging is needed: every SK is required, so any SK
// failure aborts the whole round and a partially folded sum is never
// observed.
func (t *Tally) collectSums(skNames []string, skConns []wire.Messenger, dcs []string, sum []uint64) error {
	for i, c := range skConns {
		if err := c.Send(kindCollect, CollectMsg{Round: t.cfg.Round, DCs: dcs}); err != nil {
			return fmt.Errorf("privcount ts: collect SK %s: %w", skNames[i], err)
		}
	}
	for i, c := range skConns {
		name := skNames[i]
		var sums SumsMsg
		if err := c.Expect(kindSums, &sums); err != nil {
			return fmt.Errorf("privcount ts: sums from SK %s: %w", name, err)
		}
		if sums.N != t.schema.Size() {
			return fmt.Errorf("privcount ts: SK %s sums have %d slots, want %d", name, sums.N, t.schema.Size())
		}
		err := recvValuesFunc(c, sums.N, func(off int, raw []byte) error {
			addSlots(sum[off:off+len(raw)/8], raw)
			return nil
		})
		if err != nil {
			return fmt.Errorf("privcount ts: sums from SK %s: %w", name, err)
		}
	}
	return nil
}

// weightFor is every DC's share of the noise responsibility. All DCs
// carry the same share, provisioned at the quorum floor, not the DC
// count: an absent DC's noise share
// travels in its never-sent report, so 1/NumDCs shares would leave a
// round degraded to k of n DCs with only k/n of the calibrated
// Gaussian variance — silently eroding (ε,δ). At 1/MinDCs every
// outcome the quorum admits carries at least the full calibrated
// sigma; a full-strength round is over-noised by NumDCs/MinDCs in
// variance, the price of not knowing at configure time which DCs will
// survive to report, and the accountant's nominal per-round charge
// stays an upper bound on the realized epsilon.
func (t *Tally) weightFor() float64 { return 1 / float64(t.cfg.floor()) }

// recoverDC puts the failure of the DC at index idx to cfg.Recover:
// a replacement messenger, or nil — always, without a Recover — for a
// DC that is absent.
func (t *Tally) recoverDC(idx int, canRetry bool) wire.Messenger {
	if t.cfg.Recover == nil {
		return nil
	}
	return t.cfg.Recover(idx, canRetry)
}
