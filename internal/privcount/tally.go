package privcount

import (
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
	// NoiseWeights optionally assigns each DC (by name) its share of
	// the noise responsibility; weights are normalized. Nil means equal
	// shares.
	NoiseWeights map[string]float64
	// MinDCs is the quorum floor for data collectors: when Recover is
	// set, the round completes (with reduced coverage and noise,
	// annotated via Absent) as long as at least MinDCs reports arrive.
	// Zero means every DC is required. SKs have no quorum knob: each
	// holds blinding state the aggregate cannot telescope without.
	MinDCs int
	// Recover, when set, is consulted whenever the exchange with the
	// party at index i of the Run slice fails (the first NumSKs
	// messengers must then be the SKs, the rest the DCs, which is how
	// the engine orders them). canRetry reports that the DC's
	// contribution barrier has not been passed — the begin signal has
	// not gone out — so a replacement messenger can restart its
	// register/configure/shares exchange (the SKs replace that DC's
	// seed with the re-sent one). A nil replacement with absentOK=true
	// declares the DC absent — its blinding shares are excluded from
	// every SK's sum via the collect DC list; absentOK=false fails the
	// round with the original error.
	Recover func(i int, name string, canRetry bool) (replacement wire.Messenger, absentOK bool)
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
	if c.Recover != nil && len(c.NoiseWeights) > 0 {
		// The tolerant flow configures DCs one at a time as they
		// register, so per-name weights cannot be normalized over the
		// round's actual DC set the way the strict flow does; silently
		// under-noising the round would erode (ε,δ).
		return fmt.Errorf("privcount: NoiseWeights are not supported with churn recovery; use equal weights")
	}
	_, err := NewSchema(c.Stats)
	return err
}

// Tally is the tally server for one round.
type Tally struct {
	cfg    TallyConfig
	schema *Schema
	shapes []StatShape // what each DC's configure frame carries
	absent []string
}

// Absent lists the DCs declared absent under the quorum policy after
// Run returns successfully: the aggregate excludes their counts, their
// blinding shares, and their noise contribution.
func (t *Tally) Absent() []string {
	return append([]string(nil), t.absent...)
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
// The protocol phases are strictly sequenced, matching the PrivCount
// deployment: registration, configuration, share distribution (sealed
// seeds relayed through the TS), collection, and aggregation. Without
// cfg.Recover the messenger order is free and any party failure fails
// the round; with it, the slice must be SKs first (see
// TallyConfig.Recover) and DC failures degrade the round down to the
// MinDCs quorum floor, with absent DCs excluded from both the report
// sum and — via the collect DC list — every SK's blinding sum.
func (t *Tally) Run(conns []wire.Messenger) (map[string][]float64, error) {
	if len(conns) != t.cfg.NumDCs+t.cfg.NumSKs {
		return nil, fmt.Errorf("privcount ts: have %d connections, want %d DCs + %d SKs",
			len(conns), t.cfg.NumDCs, t.cfg.NumSKs)
	}
	if t.cfg.Recover != nil {
		return t.runTolerant(conns)
	}

	// Phase 1: registration.
	dcConns := make(map[string]wire.Messenger)
	skConns := make(map[string]wire.Messenger)
	skKeys := make(map[string][]byte)
	var dcNames, skNames []string
	for _, c := range conns {
		var reg RegisterMsg
		if err := c.Expect(kindRegister, &reg); err != nil {
			return nil, fmt.Errorf("privcount ts: registration: %w", err)
		}
		switch reg.Role {
		case RoleDC:
			if _, dup := dcConns[reg.Name]; dup {
				return nil, fmt.Errorf("privcount ts: duplicate DC %q", reg.Name)
			}
			dcConns[reg.Name] = c
			dcNames = append(dcNames, reg.Name)
		case RoleSK:
			if _, dup := skConns[reg.Name]; dup {
				return nil, fmt.Errorf("privcount ts: duplicate SK %q", reg.Name)
			}
			if len(reg.SealPub) == 0 {
				return nil, fmt.Errorf("privcount ts: SK %q registered without a seal key", reg.Name)
			}
			skConns[reg.Name] = c
			skNames = append(skNames, reg.Name)
			skKeys[reg.Name] = reg.SealPub
		default:
			return nil, fmt.Errorf("privcount ts: unknown role %q", reg.Role)
		}
	}
	if len(dcConns) != t.cfg.NumDCs || len(skConns) != t.cfg.NumSKs {
		return nil, fmt.Errorf("privcount ts: registered %d DCs and %d SKs, want %d and %d",
			len(dcConns), len(skConns), t.cfg.NumDCs, t.cfg.NumSKs)
	}

	// Phase 2: configuration. Noise weights normalize to 1 across DCs.
	weights := t.normalizedWeights(dcNames)
	for _, name := range dcNames {
		cfg := ConfigureMsg{
			Round:       t.cfg.Round,
			Shapes:      t.shapes,
			NumDCs:      t.cfg.NumDCs,
			SKNames:     skNames,
			SKKeys:      skKeys,
			NoiseWeight: weights[name],
		}
		if err := dcConns[name].Send(kindConfigure, cfg); err != nil {
			return nil, fmt.Errorf("privcount ts: configure DC %s: %w", name, err)
		}
	}
	for _, name := range skNames {
		cfg := ConfigureMsg{Round: t.cfg.Round, Slots: t.schema.Size(), NumDCs: t.cfg.NumDCs, MinDCs: t.cfg.MinDCs}
		if err := skConns[name].Send(kindConfigure, cfg); err != nil {
			return nil, fmt.Errorf("privcount ts: configure SK %s: %w", name, err)
		}
	}

	// Phase 3: share distribution. The TS relays each DC's sealed seeds;
	// it never holds a key that opens them.
	for _, name := range dcNames {
		if err := t.relayShares(name, dcConns[name], skNames, skConns); err != nil {
			return nil, err
		}
	}

	// Phase 4: begin collection.
	for _, name := range dcNames {
		if err := dcConns[name].Send(kindBegin, BeginMsg{Round: t.cfg.Round}); err != nil {
			return nil, fmt.Errorf("privcount ts: begin DC %s: %w", name, err)
		}
	}

	// Phase 5: gather DC reports (sent whenever each DC finishes),
	// chunked.
	vectors := make([][]uint64, 0, len(conns))
	for _, name := range dcNames {
		vals, err := t.collectReport(name, dcConns[name])
		if err != nil {
			return nil, err
		}
		vectors = append(vectors, vals)
	}

	// Phase 6: collect SK sums, chunked.
	sums, err := t.collectSums(skNames, skConns, nil)
	if err != nil {
		return nil, err
	}
	vectors = append(vectors, sums...)

	// Phase 7: aggregate. Blinding telescopes; what remains is the true
	// totals plus the DCs' combined Gaussian noise.
	return Aggregate(t.schema, vectors...)
}

// runTolerant is the churn-aware flow installed by the engine: SKs
// register positionally (all required — each holds irreplaceable
// blinding state), then each DC's setup runs with the engine's
// recovery callback deciding between a restart on a rejoined session,
// a declared absence, and failing the round. Absent DCs are excluded
// from the aggregate on both sides of the telescoping sum; their noise
// shares are covered by provisioning every DC's weight at the quorum
// floor (see weightFor), so a degraded round never carries less than
// the calibrated sigma.
func (t *Tally) runTolerant(conns []wire.Messenger) (map[string][]float64, error) {
	// SKs: positional and protocol-critical.
	skConns := make(map[string]wire.Messenger)
	skKeys := make(map[string][]byte)
	var skNames []string
	for i := 0; i < t.cfg.NumSKs; i++ {
		var reg RegisterMsg
		if err := conns[i].Expect(kindRegister, &reg); err != nil {
			return nil, fmt.Errorf("privcount ts: registration: %w", err)
		}
		if reg.Role != RoleSK {
			return nil, fmt.Errorf("privcount ts: party %d registered as %q, want %q", i, reg.Role, RoleSK)
		}
		if _, dup := skConns[reg.Name]; dup {
			return nil, fmt.Errorf("privcount ts: duplicate SK %q", reg.Name)
		}
		if len(reg.SealPub) == 0 {
			return nil, fmt.Errorf("privcount ts: SK %q registered without a seal key", reg.Name)
		}
		skConns[reg.Name] = conns[i]
		skNames = append(skNames, reg.Name)
		skKeys[reg.Name] = reg.SealPub
	}
	for _, name := range skNames {
		cfg := ConfigureMsg{Round: t.cfg.Round, Slots: t.schema.Size(), NumDCs: t.cfg.NumDCs, MinDCs: t.cfg.MinDCs}
		if err := skConns[name].Send(kindConfigure, cfg); err != nil {
			return nil, fmt.Errorf("privcount ts: configure SK %s: %w", name, err)
		}
	}

	// DC setup: register, configure, relay shares — sequentially, so
	// each SK stream has a single sender. A failed DC may be restarted
	// once on a replacement messenger while its contribution barrier
	// (the begin signal) has not been passed; the SKs replace its seed
	// with the one the restarted exchange delivers.
	type dcSlot struct {
		idx  int
		name string
		conn wire.Messenger
	}
	var present []dcSlot
	var absent []string
	owner := make(map[string]int)
	for di := 0; di < t.cfg.NumDCs; di++ {
		idx := t.cfg.NumSKs + di
		name, err := t.setupDC(idx, conns[idx], skNames, skKeys, skConns, owner)
		if err == nil {
			present = append(present, dcSlot{idx: idx, name: name, conn: conns[idx]})
			continue
		}
		repl, absentOK := t.cfg.Recover(idx, name, true)
		if repl != nil {
			retryName, retryErr := t.setupDC(idx, repl, skNames, skKeys, skConns, owner)
			if retryName != "" {
				name = retryName
			}
			if retryErr == nil {
				present = append(present, dcSlot{idx: idx, name: name, conn: repl})
				continue
			}
			err = retryErr
			_, absentOK = t.cfg.Recover(idx, name, false)
		}
		if !absentOK {
			return nil, err
		}
		if name == "" {
			name = fmt.Sprintf("dc#%d", di)
		}
		absent = append(absent, name)
	}

	// Begin, then reports; from here a lost DC cannot restart (its
	// shares are already counted into collection), only be excluded.
	begun := present[:0]
	for _, d := range present {
		if err := d.conn.Send(kindBegin, BeginMsg{Round: t.cfg.Round}); err != nil {
			if _, absentOK := t.cfg.Recover(d.idx, d.name, false); !absentOK {
				return nil, fmt.Errorf("privcount ts: begin DC %s: %w", d.name, err)
			}
			absent = append(absent, d.name)
			continue
		}
		begun = append(begun, d)
	}
	// Reports are collected concurrently — one goroutine per begun DC —
	// each streaming into a spilled per-DC buffer that folds into the
	// round's single modular accumulator only once complete, so a DC
	// that dies mid-report leaves nothing behind and the TS holds one
	// schema-sized sum plus O(chunk) per stream instead of one vector
	// per party. The recovery callback stays on this goroutine.
	acc := newSumAccum(t.schema.Size())
	type reportOutcome struct {
		d   dcSlot
		err error
	}
	repOutcomes := make(chan reportOutcome, len(begun))
	for _, d := range begun {
		go func(d dcSlot) {
			repOutcomes <- reportOutcome{d: d, err: t.collectReportInto(d.name, d.conn, acc)}
		}(d)
	}
	var reported []string
	for range begun {
		o := <-repOutcomes
		if o.err != nil {
			if _, absentOK := t.cfg.Recover(o.d.idx, o.d.name, false); !absentOK {
				return nil, o.err
			}
			absent = append(absent, o.d.name)
			continue
		}
		reported = append(reported, o.d.name)
	}
	// Completion order is nondeterministic; the collect request and the
	// absent annotation should not be.
	sort.Strings(reported)

	min := t.cfg.MinDCs
	if min <= 0 {
		min = t.cfg.NumDCs
	}
	if len(reported) < min || len(reported) < 1 {
		return nil, fmt.Errorf("privcount ts: quorum lost: %d of %d DC reports arrived, need %d (absent: %v)",
			len(reported), t.cfg.NumDCs, min, absent)
	}

	// SK sums over exactly the reported DCs: the telescoping sum must
	// exclude an absent DC's blinding on both sides. Every SK is
	// required, so its chunks fold straight into the accumulator — a
	// failure aborts the round, partial folds and all.
	if err := t.collectSumsInto(skNames, skConns, reported, acc); err != nil {
		return nil, err
	}
	sort.Strings(absent)
	t.absent = absent
	return AggregateSum(t.schema, acc.sum)
}

// setupDC drives one DC through registration, configuration, and share
// distribution.
func (t *Tally) setupDC(idx int, c wire.Messenger, skNames []string, skKeys map[string][]byte, skConns map[string]wire.Messenger, owner map[string]int) (string, error) {
	var reg RegisterMsg
	if err := c.Expect(kindRegister, &reg); err != nil {
		return "", fmt.Errorf("privcount ts: registration: %w", err)
	}
	if reg.Role != RoleDC {
		return reg.Name, fmt.Errorf("privcount ts: party %d registered as %q, want %q", idx, reg.Role, RoleDC)
	}
	if prev, dup := owner[reg.Name]; dup && prev != idx {
		return reg.Name, fmt.Errorf("privcount ts: duplicate DC %q", reg.Name)
	}
	owner[reg.Name] = idx
	cfg := ConfigureMsg{
		Round:       t.cfg.Round,
		Shapes:      t.shapes,
		NumDCs:      t.cfg.NumDCs,
		SKNames:     skNames,
		SKKeys:      skKeys,
		NoiseWeight: t.weightFor(reg.Name),
	}
	if err := c.Send(kindConfigure, cfg); err != nil {
		return reg.Name, fmt.Errorf("privcount ts: configure DC %s: %w", reg.Name, err)
	}
	return reg.Name, t.relayShares(reg.Name, c, skNames, skConns)
}

// relayShares forwards one DC's sealed seeds, one box to each SK.
func (t *Tally) relayShares(name string, c wire.Messenger, skNames []string, skConns map[string]wire.Messenger) error {
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
	for _, sk := range skNames {
		box, ok := shares.Boxes[sk]
		if !ok {
			return fmt.Errorf("privcount ts: DC %s missing box for SK %s", name, sk)
		}
		if err := skConns[sk].Send(kindRelay, RelayMsg{From: name, N: shares.N, Box: box}); err != nil {
			return fmt.Errorf("privcount ts: relay to SK %s: %w", sk, err)
		}
	}
	return nil
}

// collectReport gathers one DC's chunked, blinded, noised report.
func (t *Tally) collectReport(name string, c wire.Messenger) ([]uint64, error) {
	var rep ReportMsg
	if err := c.Expect(kindReport, &rep); err != nil {
		return nil, fmt.Errorf("privcount ts: report from DC %s: %w", name, err)
	}
	if rep.Round != t.cfg.Round {
		return nil, fmt.Errorf("privcount ts: DC %s reported round %d, want %d", name, rep.Round, t.cfg.Round)
	}
	vals, err := recvValues(c, rep.N)
	if err != nil {
		return nil, fmt.Errorf("privcount ts: report from DC %s: %w", name, err)
	}
	return vals, nil
}

// collectReportInto streams one DC's report into a spilled buffer and,
// only once every chunk has arrived, folds it into the round
// accumulator. The two phases matter: a DC that dies mid-report must
// contribute nothing, because its blinding will be excluded from the
// SK sums — so partial folds would corrupt the telescoping sum.
func (t *Tally) collectReportInto(name string, c wire.Messenger, acc *sumAccum) error {
	var rep ReportMsg
	if err := c.Expect(kindReport, &rep); err != nil {
		return fmt.Errorf("privcount ts: report from DC %s: %w", name, err)
	}
	if rep.Round != t.cfg.Round {
		return fmt.Errorf("privcount ts: DC %s reported round %d, want %d", name, rep.Round, t.cfg.Round)
	}
	if rep.N != t.schema.Size() {
		return fmt.Errorf("privcount ts: DC %s report has %d slots, want %d", name, rep.N, t.schema.Size())
	}
	buf, err := spill.New(rep.N, 8)
	if err != nil {
		return fmt.Errorf("privcount ts: report spill for DC %s: %w", name, err)
	}
	defer buf.Close()
	if err := recvValuesFunc(c, rep.N, buf.WriteAt); err != nil {
		return fmt.Errorf("privcount ts: report from DC %s: %w", name, err)
	}
	return forEachChunk(rep.N, func(off, end int) error {
		raw, err := buf.ReadRange(off, end-off)
		if err != nil {
			return fmt.Errorf("privcount ts: report fold for DC %s: %w", name, err)
		}
		acc.fold(off, raw)
		return nil
	})
}

// collectSumsInto streams every SK's blinding sums straight into the
// round accumulator. Unlike DC reports, no buffer-then-fold staging is
// needed: every SK is required, so any SK failure aborts the whole
// round and a partially folded sum is never observed.
func (t *Tally) collectSumsInto(skNames []string, skConns map[string]wire.Messenger, dcs []string, acc *sumAccum) error {
	for _, name := range skNames {
		if err := skConns[name].Send(kindCollect, CollectMsg{Round: t.cfg.Round, DCs: dcs}); err != nil {
			return fmt.Errorf("privcount ts: collect SK %s: %w", name, err)
		}
	}
	for _, name := range skNames {
		var sums SumsMsg
		if err := skConns[name].Expect(kindSums, &sums); err != nil {
			return fmt.Errorf("privcount ts: sums from SK %s: %w", name, err)
		}
		if sums.N != t.schema.Size() {
			return fmt.Errorf("privcount ts: SK %s sums have %d slots, want %d", name, sums.N, t.schema.Size())
		}
		err := recvValuesFunc(skConns[name], sums.N, func(off int, raw []byte) error {
			acc.fold(off, raw)
			return nil
		})
		if err != nil {
			return fmt.Errorf("privcount ts: sums from SK %s: %w", name, err)
		}
	}
	return nil
}

// collectSums asks every SK for its blinding sums over the given DC
// list (nil: all completed vectors, the pre-churn behavior).
func (t *Tally) collectSums(skNames []string, skConns map[string]wire.Messenger, dcs []string) ([][]uint64, error) {
	for _, name := range skNames {
		if err := skConns[name].Send(kindCollect, CollectMsg{Round: t.cfg.Round, DCs: dcs}); err != nil {
			return nil, fmt.Errorf("privcount ts: collect SK %s: %w", name, err)
		}
	}
	out := make([][]uint64, 0, len(skNames))
	for _, name := range skNames {
		var sums SumsMsg
		if err := skConns[name].Expect(kindSums, &sums); err != nil {
			return nil, fmt.Errorf("privcount ts: sums from SK %s: %w", name, err)
		}
		vals, err := recvValues(skConns[name], sums.N)
		if err != nil {
			return nil, fmt.Errorf("privcount ts: sums from SK %s: %w", name, err)
		}
		out = append(out, vals)
	}
	return out, nil
}

// weightFor resolves one DC's noise weight in the tolerant flow, where
// DC names are learned incrementally (Validate rejects NoiseWeights
// together with Recover, because per-name weights cannot be normalized
// over a DC set that is still registering). Weights are provisioned at
// the quorum floor, not the DC count: an absent DC's noise share
// travels in its never-sent report, so 1/NumDCs shares would leave a
// round degraded to k of n DCs with only k/n of the calibrated
// Gaussian variance — silently eroding (ε,δ). At 1/MinDCs every
// outcome the quorum admits carries at least the full calibrated
// sigma; a full-strength round is over-noised by NumDCs/MinDCs in
// variance, the price of not knowing at configure time which DCs will
// survive to report, and the accountant's nominal per-round charge
// stays an upper bound on the realized epsilon.
func (t *Tally) weightFor(string) float64 {
	min := t.cfg.MinDCs
	if min <= 0 || min > t.cfg.NumDCs {
		min = t.cfg.NumDCs
	}
	return 1 / float64(min)
}

func (t *Tally) normalizedWeights(dcNames []string) map[string]float64 {
	out := make(map[string]float64, len(dcNames))
	if len(t.cfg.NoiseWeights) == 0 {
		for _, n := range dcNames {
			out[n] = 1 / float64(len(dcNames))
		}
		return out
	}
	total := 0.0
	for _, n := range dcNames {
		w := t.cfg.NoiseWeights[n]
		if w < 0 {
			w = 0
		}
		total += w
	}
	for _, n := range dcNames {
		if total > 0 {
			out[n] = t.cfg.NoiseWeights[n] / total
		} else {
			out[n] = 1 / float64(len(dcNames))
		}
	}
	return out
}
