package psc

import (
	"context"
	"crypto/rand"
	"fmt"
	"sync"

	"repro/internal/elgamal"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/wire"
)

// gatherFeedTestHook, when set by a test, runs on the combined gather
// table just before the mix feeder starts re-streaming it — the
// injection point for spill-failure tests.
var gatherFeedTestHook func(*ctSpill)

// Tally is the PSC tally server, the coordination role the paper added
// to the original design (§3.1: "we slightly modify the original PSC
// design to include a TS to coordinate the actions of the DCs and
// CPs"). It relays and verifies; it holds no decryption capability and
// never sees an unencrypted bin.
//
// Every vector phase is chunked and pipelined: each DC's table is
// buffered on spill storage by its own goroutine and folded into the
// combination by the gather loop, its one writer, only once whole (so a
// DC that fails mid-upload contributes nothing), each
// CP's verified blinded blocks are forwarded to the next CP while the
// upstream CP is still mixing, and decryption shares are verified and
// recovered per chunk from all CPs concurrently. The shuffle itself
// streams block-wise (grid passes with per-block cut-and-choose
// arguments), so no phase of the CP chain holds a whole vector of
// parsed ciphertexts. Whole-vector state lives only as spilled
// encodings: the DC tables and their combination, one row-pass output
// per CP stage of a two-pass shuffle (the column pass's input, spilled
// as it verifies), and the final batch awaiting the pre-decrypt
// verification barrier.
type Tally struct {
	cfg Config
}

// NewTally validates the configuration and returns a tally server.
func NewTally(cfg Config) (*Tally, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tally{cfg: cfg}, nil
}

// vchunk is one in-flight slice of a vector moving through the CP
// pipeline.
type vchunk struct {
	off int
	cts []elgamal.Ciphertext
}

// cpParty is one computation party of a round, as the registration
// phase leaves it for the mixing and decryption tail.
type cpParty struct {
	name string
	m    wire.Messenger
	key  elgamal.Point
}

// Run executes one round over established messengers (one per party —
// dedicated connections or per-round streams of multiplexed sessions).
// Precondition: both slices are positional — the NumCPs CPs first, then
// the NumDCs DCs (the engine orders them) — and names[i] is the pinned
// name of the party behind parties[i], the one its errors carry. The
// CPs mix in that order. Any CP failure fails the round. A DC failure
// is put to cfg.Recover, which may restart the DC on a replacement
// messenger; a DC it does not replace is absent, and the round degrades
// while the absentees leave at least the quorum floor (cfg.MinDCs, or
// every DC) — the absence that breaks it fails the round at once,
// naming that DC. With a nil Recover and MinDCs 0 the first DC error
// fails the round. A DC failure in a cancelled round is the
// cancellation, never an absence.
//
// ctx is the round: cancelling it stops Run, which then returns the
// cancellation cause. Run derives its own cancellable context from it
// and every pipeline stage fails the round by cancelling that context
// with its error — the first cause wins and wakes every other stage.
// Cancellation does not unblock a stage waiting on a messenger; the
// caller resets or closes the messengers once Run has returned (the
// engine resets the round's streams).
func (t *Tally) Run(ctx context.Context, parties []wire.Messenger, names []string) (res Result, err error) {
	if len(parties) != t.cfg.NumDCs+t.cfg.NumCPs || len(names) != len(parties) {
		return Result{}, fmt.Errorf("psc ts: have %d connections and %d names, want %d DCs + %d CPs",
			len(parties), len(names), t.cfg.NumDCs, t.cfg.NumCPs)
	}
	ctx, cancel := context.WithCancelCause(ctx)
	// Whatever Run returns is the round's outcome: a failure return wakes
	// the stages still running (a no-op when one of them already latched
	// the cause), a success return only releases the context.
	defer func() { cancel(err) }()

	// Collect encrypted tables from all DCs concurrently and combine
	// them homomorphically: per-bin ciphertext sums turn into OR in the
	// exponent, and the running combination lives as encoded bytes on
	// spill storage, not parsed group elements on the heap. Each DC's
	// table is buffered (also spilled) by its own goroutine and folded
	// in by the gather loop once complete (see gather).
	sum, cps, joint, err := t.gather(ctx, parties, names)
	if err != nil {
		return Result{}, err
	}

	if h := gatherFeedTestHook; h != nil {
		h(sum)
	}
	// Mixing pipeline: feeder -> CP 1 -> ... -> CP k -> collector, all
	// running at once, chunked end to end. The feeder re-streams the
	// combined table from the gather spill a chunk at a time, so from
	// the first byte of the gather to the last decryption share the TS
	// holds O(chunk) parsed ciphertexts per CP stage.
	feed := make(chan vchunk, 2)
	go restream(ctx, cancel, sum, "gather spill", feed)
	in := feed
	var mixWG sync.WaitGroup
	for i, cp := range cps {
		out := make(chan vchunk, 2)
		nIn := t.cfg.Bins + i*t.cfg.NoisePerCP
		mixWG.Add(1)
		go func(in <-chan vchunk, out chan<- vchunk) {
			defer mixWG.Done()
			t.mixCP(ctx, cancel, cp.name, cp.m, joint, nIn, in, out)
		}(in, out)
		in = out
	}
	// Collect the final blinded vector into a spill, not the heap: the
	// decryption tail re-streams it per chunk to every CP.
	finalN := t.cfg.Bins + t.cfg.NumCPs*t.cfg.NoisePerCP
	dec, err := newSpill(finalN)
	if err != nil {
		return Result{}, fmt.Errorf("psc ts: decrypt spill: %w", err)
	}
	written := 0
	for c := range in {
		if err := dec.write(c.off, c.cts); err != nil {
			cancel(fmt.Errorf("psc ts: decrypt spill: %w", err))
			break
		}
		written += len(c.cts)
	}
	// Decryption must not start until every CP's verification has
	// finished: each blinded block is forwarded as soon as it verifies,
	// before the rest of its stage has, and decrypting a batch whose
	// shuffle later fails to verify would hand out shares the protocol
	// never authorized.
	mixDone := make(chan struct{})
	go func() { mixWG.Wait(); close(mixDone) }()
	select {
	case <-ctx.Done():
	case <-mixDone:
	}
	if ctx.Err() != nil {
		// Checked after the select, not in it: both may be ready at
		// once, and a latched failure must never lose that race.
		dec.Close()
		return Result{}, context.Cause(ctx)
	}
	if written != finalN {
		dec.Close()
		return Result{}, fmt.Errorf("psc ts: mix pipeline produced %d elements, want %d", written, finalN)
	}

	// Joint decryption, streamed: one reader decodes the final vector
	// from the spill chunk by chunk and hands every chunk to each CP's
	// decrypt stream, each CP's share chunks are verified on arrival,
	// and each chunk's plaintexts are recovered and counted the moment
	// all CPs have answered it — the TS never holds more than a chunk of
	// shares per CP.
	feeds := make([]chan<- vchunk, len(cps))
	shareChans := make([]chan decShareChunk, len(cps))
	for i, cp := range cps {
		// Two chunks of slack, like every stage here: the reader decodes
		// chunk k+1 while the CP stream is still sending chunk k.
		f := make(chan vchunk, 2)
		feeds[i] = f
		shareChans[i] = make(chan decShareChunk, 2)
		go t.decryptCP(ctx, cancel, cp.name, cp.m, cp.key, f, finalN, shareChans[i])
	}
	go restream(ctx, cancel, dec, "decrypt spill", feeds...)
	// Each chunk's plaintext recovery is independent once every CP's
	// verified shares for it are in hand, so the combine runs on its own
	// shard: the collection loop stays sequential (it merges per-CP
	// streams in chunk order) and hands each complete chunk to the pool,
	// whose results a concurrent drainer sums — an Ordered pool's
	// submitter must never be its only consumer, or the depth bound
	// wedges the loop.
	rec := parallel.NewOrdered[int](parallel.PoolSize(), 2*parallel.PoolSize(), "psc-combine")
	reported := 0
	recDone := make(chan struct{})
	go func() {
		defer close(recDone)
		for r := range rec.Out() {
			reported += r.V
		}
	}()
	err = forEachChunk(finalN, func(off, end int) error {
		// Every CP's chunk carries the one decoded ciphertext slice its
		// shares were verified against.
		var cts []elgamal.Ciphertext
		shares := make([][]elgamal.DecryptionShare, len(cps))
		for i := range shareChans {
			select {
			case sc, ok := <-shareChans[i]:
				if !ok {
					if ctx.Err() != nil {
						return context.Cause(ctx)
					}
					return fmt.Errorf("psc ts: CP %s share stream ended early", cps[i].name)
				}
				if sc.off != off {
					return fmt.Errorf("psc ts: CP %s shares for offset %d, want %d", cps[i].name, sc.off, off)
				}
				cts, shares[i] = sc.cts, sc.shares
			case <-ctx.Done():
				return context.Cause(ctx)
			}
		}
		rec.Submit(func() (int, error) {
			n := 0
			for _, pt := range elgamal.RecoverBatch(cts, shares) {
				if !pt.IsIdentity() {
					n++
				}
			}
			return n, nil
		})
		return nil
	})
	rec.Close()
	<-recDone
	if err != nil {
		return Result{}, err
	}
	if ctx.Err() != nil {
		return Result{}, context.Cause(ctx)
	}

	return Result{
		Round:       t.cfg.Round,
		Reported:    reported,
		Bins:        t.cfg.Bins,
		NoiseTrials: t.cfg.TotalNoiseTrials(),
	}, nil
}

// gather is the registration/configuration/table phase: CPs register
// their keys positionally (all required), then each DC's
// configure/table exchange runs in its own goroutine, where the
// recovery callback may restart a failed DC on a rejoined session. A
// DC it does not restart is lost, and this loop alone decides what a
// loss means: the round's cancellation cause if the round is
// cancelled, a failed round if the absentees would leave fewer than the
// quorum floor, an absence otherwise — counted, not listed: the engine
// keeps the round's one list of absentees. It returns the round's
// combined table, which the caller then owns, with the CPs and their
// joint key.
//
// The combination has one writer, this loop: a DC goroutine hands over
// only its whole buffered table, the first becomes the combination and
// every later one is folded into it. The hand-off is unbuffered, so a
// table always has exactly one owner — the loop once it has taken it,
// otherwise the DC goroutine, which closes it when the round is over.
func (t *Tally) gather(ctx context.Context, parties []wire.Messenger, names []string) (*ctSpill, []cpParty, elgamal.Point, error) {
	cps := make([]cpParty, t.cfg.NumCPs)
	for i := range cps {
		cp, err := registerCP(names[i], parties[i])
		if err != nil {
			return nil, nil, elgamal.Point{}, err
		}
		cps[i] = cp
	}
	joint, cpCfg, dcCfg, err := t.buildConfigs(cps)
	if err != nil {
		return nil, nil, joint, err
	}
	for _, cp := range cps {
		if err := cp.m.Send(kindConfig, cpCfg); err != nil {
			return nil, nil, joint, fmt.Errorf("psc ts: configure CP %s: %w", cp.name, err)
		}
	}

	type outcome struct {
		name  string
		table *ctSpill // the DC's whole table; nil when it was lost
		err   error    // why the DC was lost
	}
	outcomes := make(chan outcome)
	for idx := t.cfg.NumCPs; idx < len(parties); idx++ {
		go func() {
			o := outcome{name: names[idx]}
			o.table, o.err = t.runDC(idx, o.name, parties[idx], dcCfg)
			select {
			case outcomes <- o:
			case <-ctx.Done():
				// The loop has given up on the round (Run cancels on
				// return), so nobody will take the table.
				if o.table != nil {
					o.table.Close()
				}
			}
		}()
	}
	var sum *ctSpill
	fail := func(err error) (*ctSpill, []cpParty, elgamal.Point, error) {
		if sum != nil {
			sum.Close()
		}
		return nil, nil, joint, err
	}
	absent := 0
	for i := 0; i < t.cfg.NumDCs; i++ {
		var o outcome
		select {
		case o = <-outcomes:
		case <-ctx.Done():
			return fail(context.Cause(ctx))
		}
		switch {
		case o.err != nil && ctx.Err() != nil:
			return fail(context.Cause(ctx))
		case o.err != nil && absent == t.cfg.NumDCs-t.cfg.floor():
			// Fail fast: one more absentee breaks the quorum. The abort
			// resets every stream, so the remaining DC goroutines unwind
			// and close their own tables instead of wedging this loop.
			return fail(fmt.Errorf("psc ts: quorum lost at DC %s (%d of %d DCs absent, floor %d): %w",
				o.name, absent+1, t.cfg.NumDCs, t.cfg.floor(), o.err))
		case o.err != nil:
			absent++
		case sum == nil:
			sum = o.table
		default:
			err := sum.add(o.table)
			o.table.Close()
			if err != nil {
				return fail(fmt.Errorf("psc ts: table merge for DC %s: %w", o.name, err))
			}
		}
	}
	// The floor is at least one DC and every folded table is whole, so
	// the sum covers every bin: a degraded round never decrypts an unset
	// ciphertext.
	return sum, cps, joint, nil
}

// runDC drives one data collector's configure/table exchange, retrying
// once on a replacement messenger when the recovery callback provides
// one. It returns the DC's table only once complete, so a failed upload
// leaves no partial state: every failure before the table's completion
// is retryable, and a lost DC — one returned with its last error —
// contributed nothing.
func (t *Tally) runDC(idx int, name string, m wire.Messenger, dcCfg ConfigureMsg) (*ctSpill, error) {
	attempt := func(m wire.Messenger) (*ctSpill, error) {
		if err := m.Send(kindConfig, dcCfg); err != nil {
			return nil, fmt.Errorf("psc ts: configure DC %s: %w", name, err)
		}
		return t.collectTable(name, m)
	}
	table, err := attempt(m)
	if err != nil && t.cfg.Recover != nil {
		if repl := t.cfg.Recover(idx, true); repl != nil {
			if table, err = attempt(repl); err != nil {
				t.cfg.Recover(idx, false)
			}
		}
	}
	return table, err
}

// registerCP reads and checks one computation party's key
// registration.
func registerCP(name string, m wire.Messenger) (cpParty, error) {
	var reg RegisterMsg
	if err := m.Expect(kindRegister, &reg); err != nil {
		return cpParty{}, fmt.Errorf("psc ts: registration of CP %s: %w", name, err)
	}
	pk, err := parseKey(reg.PubKey)
	if err != nil {
		return cpParty{}, fmt.Errorf("psc ts: CP %q public key: %w", name, err)
	}
	// An unproved key could have been built to cancel the other CPs'.
	if proof, err := elgamal.ParseEqualityProof(reg.KeyProof); err != nil || !elgamal.VerifyPossession(pk, proof) {
		verifyFailure("key-proof")
		return cpParty{}, fmt.Errorf("psc ts: CP %q proof of possession of its public key unverified", name)
	}
	return cpParty{name: name, m: m, key: pk}, nil
}

// buildConfigs combines the CP keys into the round's joint key and
// materializes the configure messages (the DC variant carries the hash
// key, which CPs must not see).
func (t *Tally) buildConfigs(cps []cpParty) (joint elgamal.Point, cpCfg, dcCfg ConfigureMsg, err error) {
	keyList := make([]elgamal.Point, len(cps))
	keyBytes := make([][]byte, len(cps))
	for i, cp := range cps {
		keyList[i], keyBytes[i] = cp.key, cp.key.Bytes()
	}
	joint, err = elgamal.CombineKeys(keyList...)
	if err != nil {
		return joint, cpCfg, dcCfg, fmt.Errorf("psc ts: combine keys: %w", err)
	}
	// The verification passes multiply against the joint key for every
	// element; precompute its fixed-base table once.
	elgamal.Precompute(joint)
	hashKey := make([]byte, 32)
	if _, err := rand.Read(hashKey); err != nil {
		return joint, cpCfg, dcCfg, fmt.Errorf("psc ts: hash key: %w", err)
	}
	cpCfg = ConfigureMsg{
		Round:              t.cfg.Round,
		Bins:               t.cfg.Bins,
		NoisePerCP:         t.cfg.NoisePerCP,
		ShuffleProofRounds: t.cfg.ShuffleProofRounds,
		JointKey:           joint.Bytes(),
		CPKeys:             keyBytes,
	}
	dcCfg = cpCfg
	dcCfg.HashKey = hashKey
	return joint, cpCfg, dcCfg, nil
}

// collectTable streams one DC's table into a private buffer and returns
// it only once complete; the gather loop folds it into the combination.
// Ciphertext sums cannot be unpicked, so a DC the quorum policy later
// declares absent must never have touched the sum: buffering makes the
// round's absent list an exact coverage statement ("none of this DC's
// table is included"). The buffer is itself spilled, so up to NumDCs
// in-flight tables cost encoded bytes on scratch storage, not parsed
// ciphertexts on the heap. On failure the buffer is closed here.
func (t *Tally) collectTable(name string, m wire.Messenger) (*ctSpill, error) {
	var hdr VectorHeader
	if err := m.Expect(kindTable, &hdr); err != nil {
		return nil, fmt.Errorf("psc ts: table from DC %s: %w", name, err)
	}
	if hdr.N != t.cfg.Bins {
		return nil, fmt.Errorf("psc ts: DC %s sent %d bins, want %d", name, hdr.N, t.cfg.Bins)
	}
	buf, err := newSpill(t.cfg.Bins)
	if err != nil {
		return nil, fmt.Errorf("psc ts: table spill for DC %s: %w", name, err)
	}
	// recvVectorFunc requires the chunks to tile [0, Bins) in order, so
	// success means the buffer holds a whole table.
	if err := recvVectorFunc(m, t.cfg.Bins, buf.write); err != nil {
		buf.Close()
		return nil, fmt.Errorf("psc ts: table from DC %s: %w", name, err)
	}
	return buf, nil
}

// restream is the one reader of a spilled vector: it decodes sp a chunk
// at a time, hands each chunk to every one of outs in turn, and closes
// sp and then outs when done. A read failure cancels the round with its
// error instead of wedging the pipeline on a short stream; a cancelled
// round stops it.
func restream(ctx context.Context, cancel context.CancelCauseFunc, sp *ctSpill, what string, outs ...chan<- vchunk) {
	defer func() {
		for _, o := range outs {
			close(o)
		}
	}()
	defer sp.Close()
	err := forEachChunk(sp.st.Slots(), func(off, end int) error {
		cts, err := sp.readRange(off, end-off)
		if err != nil {
			return fmt.Errorf("psc ts: %s: %w", what, err)
		}
		for _, o := range outs {
			select {
			case o <- vchunk{off: off, cts: cts}:
			case <-ctx.Done():
				return context.Cause(ctx)
			}
		}
		return nil
	})
	if err != nil {
		cancel(err)
	}
}

// forwardOrdered runs one CP stage's protocol loop with a verify shard
// to submit its per-chunk checks to, and forwards the shard's results
// to out in submission order. The forwarder owns out: the first job
// error cancels the round with that error, nothing is forwarded once
// the round is cancelled, and out closes when the shard has drained —
// which is also when forwardOrdered returns. stage returns after its
// last submission, or early with the error that fails the round.
func forwardOrdered[T any](ctx context.Context, cancel context.CancelCauseFunc, out chan<- T, stage func(shard *parallel.Ordered[T]) error) {
	shard := parallel.NewOrdered[T](parallel.PoolSize(), 2*parallel.PoolSize(), "psc-verify")
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(out)
		for r := range shard.Out() {
			if r.Err != nil {
				cancel(r.Err)
				continue
			}
			if ctx.Err() != nil {
				continue
			}
			select {
			case out <- r.V:
			case <-ctx.Done():
			}
		}
	}()
	if err := stage(shard); err != nil {
		cancel(err)
	}
	shard.Close()
	<-done
}

// mixCP drives one CP's mixing stage through the streaming block
// shuffle: a feeder goroutine forwards upstream chunks to the CP while
// the stream goroutine verifies, block by block, the CP's noise, every
// block's shuffle argument and the final pass's blinding — forwarding
// each verified blinded block downstream before the next arrives. A
// two-pass vector's row-pass output is spilled as it verifies and read
// back in column-group order as the column pass's input, so neither
// direction ever holds more than O(block) parsed ciphertexts. The block
// shuffle arguments are transcript-sequential and stay on the stream
// goroutine; the independent batch checks (noise bit proofs, blind
// DLEQ RLCs) run on the verify shard. Any failure cancels the round
// with its error; out always closes so downstream stages unwind. mixCP
// returns only once every blind check has drained (see forwardOrdered),
// so the caller's mix WaitGroup means "every CP's verification has
// finished".
func (t *Tally) mixCP(ctx context.Context, cancel context.CancelCauseFunc, name string, m wire.Messenger, joint elgamal.Point, nIn int, in <-chan vchunk, out chan<- vchunk) {
	forwardOrdered(ctx, cancel, out, func(blind *parallel.Ordered[vchunk]) error {
		total := nIn + t.cfg.NoisePerCP
		g := newGrid(total, shuffleBlock)
		passes := g.passes()

		if err := m.Send(kindMix, VectorHeader{Round: t.cfg.Round, N: nIn}); err != nil {
			return fmt.Errorf("psc ts: mix to CP %s: %w", name, err)
		}
		// Feeder: forward upstream chunks to the CP, retaining each chunk
		// on a bounded channel for pass-1 verification. The CP emits block
		// b only after receiving block b's elements and the verifier drains
		// the copies before expecting block b, so the channel never backs
		// up beyond its slack.
		feedCopy := make(chan []elgamal.Ciphertext, 4)
		go func() {
			defer close(feedCopy)
			for c := range in {
				if err := m.Send(kindChunk, chunkOut{off: c.off, cts: c.cts}); err != nil {
					cancel(fmt.Errorf("psc ts: mix chunk to CP %s: %w", name, err))
					return
				}
				select {
				case feedCopy <- c.cts:
				case <-ctx.Done():
					return
				}
			}
		}()

		var hdr VectorHeader
		if err := m.Expect(kindMixed, &hdr); err != nil {
			return fmt.Errorf("psc ts: mixed from CP %s: %w", name, err)
		}
		if hdr.N != total {
			return fmt.Errorf("psc ts: CP %s produced %d elements, want %d", name, hdr.N, total)
		}

		// Noise: the CP sends only its appended elements, bit-verified per
		// chunk; the input prefix is ours by construction, so a CP cannot
		// tamper with it. The noise ciphertexts form the tail of the
		// shuffle input, so chunk order matters — the shard preserves it
		// while the per-chunk decodes and bit-proof batches verify
		// concurrently.
		noise := parallel.NewOrdered[[]elgamal.Ciphertext](parallel.PoolSize(), 2*parallel.PoolSize(), "psc-verify")
		noiseCts := make([]elgamal.Ciphertext, 0, t.cfg.NoisePerCP)
		noiseDone := make(chan struct{})
		go func() {
			// Reassembly drains concurrently with the receive loop so the
			// shard's depth bound throttles the loop instead of wedging it.
			defer close(noiseDone)
			for r := range noise.Out() {
				if r.Err != nil {
					cancel(r.Err)
					continue
				}
				noiseCts = append(noiseCts, r.V...)
			}
		}()
		drainNoise := func() {
			noise.Close()
			<-noiseDone
		}
		for off := 0; off < t.cfg.NoisePerCP; {
			var nc NoiseChunkMsg
			if err := m.Expect(kindNoise, &nc); err != nil {
				drainNoise()
				return fmt.Errorf("psc ts: noise from CP %s: %w", name, err)
			}
			if nc.Off != off || nc.Count <= 0 || nc.Off+nc.Count > t.cfg.NoisePerCP {
				drainNoise()
				return fmt.Errorf("psc ts: CP %s noise chunk [%d,%d) out of order", name, nc.Off, nc.Off+nc.Count)
			}
			noise.Submit(func() ([]elgamal.Ciphertext, error) {
				return t.verifyNoiseChunk(name, joint, nc)
			})
			off += nc.Count
		}
		drainNoise()
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}

		tr := elgamal.NewShuffleTranscript(joint, total, g.block, passes, t.cfg.ShuffleProofRounds)
		proof := &elgamal.BlockShuffleProof{Openings: make([]elgamal.BlockOpening, t.cfg.ShuffleProofRounds)}

		// Row pass: assemble the CP's input blocks from the fed copies plus
		// the verified noise tail, checking each block's argument as its
		// output lands. A single-pass block is final and goes straight to
		// blinding; on a two-pass vector the TS spills its own copy of
		// each verified output block, the column pass's only input.
		src := &blockSource{feed: feedCopy, tail: noiseCts}
		defer src.release()
		var inter *ctSpill
		if passes > 1 {
			var err error
			if inter, err = newSpill(total); err != nil {
				return fmt.Errorf("psc ts: CP %s shuffle spill: %w", name, err)
			}
			defer inter.Close()
		}
		for b := 0; b < g.blocks(1); b++ {
			inB, err := src.next(ctx, g.blockLen(1, b))
			if err != nil {
				return err
			}
			outB, err := t.recvBlock(name, m, tr, joint, 1, b, inB, proof)
			if err != nil {
				return err
			}
			if passes > 1 {
				if err := inter.write(g.outStart(1, b), outB); err != nil {
					return fmt.Errorf("psc ts: CP %s shuffle spill: %w", name, err)
				}
			} else if err := t.recvBlindSubmit(name, m, g.outStart(1, b), outB, blind); err != nil {
				return err
			}
		}
		if passes == 1 {
			return nil
		}

		// Column pass: every input block is read back from the spilled
		// row-pass output in the walk the CP makes over its own spill, so
		// the argument is checked against exactly what the TS verified
		// and nothing crosses the wire twice.
		for b := 0; b < g.blocks(2); b++ {
			inB, err := inter.readColumnGroup(g, b)
			if err != nil {
				return fmt.Errorf("psc ts: CP %s shuffle spill: %w", name, err)
			}
			outB, err := t.recvBlock(name, m, tr, joint, 2, b, inB, proof)
			if err != nil {
				return err
			}
			if err := t.recvBlindSubmit(name, m, g.outStart(2, b), outB, blind); err != nil {
				return err
			}
		}
		return nil
	})
}

// blockSource assembles pass-1 input blocks for the verifier: elements
// come from the upstream feed copies, then from the CP's verified noise
// tail. One window (pending) holds them: a block is sliced off its
// front, and the unconsumed rest moves to the front before more
// arrives, so the window's capacity stays near one block plus one feed
// chunk instead of growing with every append. The window comes from
// windowPool and goes back to it on release, so the next round's source
// starts at the size this one grew to.
type blockSource struct {
	feed    <-chan []elgamal.Ciphertext
	tail    []elgamal.Ciphertext
	pending []elgamal.Ciphertext
	taken   int // the front of pending the last block returned
	drained bool
}

// next returns the next n input elements. The block is valid until the
// next call, which reuses its memory: the caller must be done with it
// (mixCP is — recvBlock has verified it) before asking for another. It
// fails with the round's cancellation cause, or — when the upstream
// pipeline ended early, whose own failure then already cancelled the
// round — with the shortfall.
func (s *blockSource) next(ctx context.Context, n int) ([]elgamal.Ciphertext, error) {
	s.pending = s.pending[:copy(s.pending, s.pending[s.taken:])]
	s.taken = 0
	for len(s.pending) < n {
		if s.drained {
			if len(s.tail) == 0 {
				return nil, fmt.Errorf("psc ts: mix input ended %d elements short of a block", n-len(s.pending))
			}
			k := min(n-len(s.pending), len(s.tail))
			s.push(s.tail[:k])
			s.tail = s.tail[k:]
			continue
		}
		select {
		case cts, ok := <-s.feed:
			if !ok {
				s.drained = true
				continue
			}
			s.push(cts)
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	s.taken = n
	return s.pending[:n:n], nil
}

// windowPool recycles blockSource windows across CPs and rounds: a
// free list of at most eight, about 2.4 MB at full size, enough for
// the CPs of two rounds at once. Unlike a sync.Pool it is not emptied
// by a collection or split per P, so a round reliably starts from the
// window a finished one grew. The ciphertexts a window holds are
// public (they crossed the wire).
var windowPool = make(chan []elgamal.Ciphertext, 8)

// push appends cts to the window, growing it to exactly what it needs:
// append's doubling would overshoot the block-plus-chunk bound. A
// pooled window is taken when it is large enough.
func (s *blockSource) push(cts []elgamal.Ciphertext) {
	if need := len(s.pending) + len(cts); need > cap(s.pending) {
		var w []elgamal.Ciphertext
		select {
		case w = <-windowPool:
		default:
		}
		if cap(w) < need {
			w = make([]elgamal.Ciphertext, 0, need)
		}
		s.pending = append(w[:0], s.pending...)
	}
	s.pending = append(s.pending, cts...)
}

// release returns the window to windowPool, unless the pool is full.
// The last block next returned is invalid from here on.
func (s *blockSource) release() {
	if cap(s.pending) > 0 {
		select {
		case windowPool <- s.pending[:0]:
		default:
		}
	}
	s.pending, s.taken = nil, 0
}

// recvBlock receives and verifies one shuffled block (announcement plus
// one opening per shadow round) against the verifier's own input block.
// proof is the stage's: block after block its openings' index slices
// are refilled and their scalars alias the new opening frames.
func (t *Tally) recvBlock(name string, m wire.Messenger, tr *elgamal.ShuffleTranscript, joint elgamal.Point, p, b int, inB []elgamal.Ciphertext, proof *elgamal.BlockShuffleProof) ([]elgamal.Ciphertext, error) {
	var bo BlockOutMsg
	if err := m.Expect(kindShufBlock, &bo); err != nil {
		return nil, fmt.Errorf("psc ts: block from CP %s: %w", name, err)
	}
	outB, commits, err := parseBlockOut(bo, p, b, len(inB), len(proof.Openings))
	if err != nil {
		return nil, fmt.Errorf("psc ts: CP %s: %w", name, err)
	}
	proof.Commits = commits
	for r, o := range proof.Openings {
		var sm BlockShadowMsg
		if err := m.Expect(kindShufShadow, &sm); err != nil {
			return nil, fmt.Errorf("psc ts: opening from CP %s: %w", name, err)
		}
		if proof.Openings[r], err = parseBlockShadow(sm, p, b, r, len(inB), o.Perm); err != nil {
			return nil, fmt.Errorf("psc ts: CP %s: %w", name, err)
		}
	}
	if err := elgamal.VerifyShuffleBlock(tr, p, b, joint, inB, outB, *proof); err != nil {
		verifyFailure("shuffle")
		return nil, fmt.Errorf("psc ts: CP %s block %d/%d: %w", name, p, b, err)
	}
	return outB, nil
}

// verifyNoiseChunk decodes one noise chunk and verifies its bit proofs
// as a batch — shard work, independent of every other chunk.
func (t *Tally) verifyNoiseChunk(name string, joint elgamal.Point, nc NoiseChunkMsg) ([]elgamal.Ciphertext, error) {
	cts, proofs, err := decodeProved(nc.Data, nc.Proofs, nc.Count, elgamal.BitProofLen, elgamal.ParseBitProof)
	if err != nil {
		return nil, fmt.Errorf("psc ts: CP %s noise chunk at %d: %w", name, nc.Off, err)
	}
	// Every appended noise element must provably encrypt a bit.
	if i, ok := elgamal.VerifyBitsBatch(joint, cts, proofs); !ok {
		verifyFailure("bit-proof")
		return nil, fmt.Errorf("psc ts: CP %s noise element %d is not a valid bit", name, nc.Off+i)
	}
	return cts, nil
}

// recvBlindSubmit receives the exponent-blinded form of one verified
// final-pass block and hands its decode and DLEQ check (a per-block
// RLC) to the verify shard, whose forwarder delivers verified chunks
// downstream in block order. Only frame validation happens here: the
// stream goroutine goes straight back to the next transcript-sequential
// block argument.
func (t *Tally) recvBlindSubmit(name string, m wire.Messenger, off int, outB []elgamal.Ciphertext, blind *parallel.Ordered[vchunk]) error {
	var bc BlindChunkMsg
	if err := m.Expect(kindBlind, &bc); err != nil {
		return fmt.Errorf("psc ts: blinded from CP %s: %w", name, err)
	}
	if bc.Off != off || bc.Count != len(outB) {
		return fmt.Errorf("psc ts: CP %s blind chunk [%d,%d), want [%d,%d)", name, bc.Off, bc.Off+bc.Count, off, off+len(outB))
	}
	blind.Submit(func() (vchunk, error) {
		cts, proofs, err := decodeProved(bc.Data, bc.Proofs, bc.Count, elgamal.EqualityProofLen, elgamal.ParseEqualityProof)
		if err != nil {
			return vchunk{}, fmt.Errorf("psc ts: CP %s blind chunk at %d: %w", name, off, err)
		}
		if i, ok := elgamal.VerifyBlindsBatch(outB, cts, proofs); !ok {
			verifyFailure("blind-proof")
			return vchunk{}, fmt.Errorf("psc ts: CP %s blinding of element %d unverified", name, off+i)
		}
		return vchunk{off: off, cts: cts}, nil
	})
	return nil
}

// verifyFailure counts a failed cryptographic verification in the
// process-wide registry: a non-zero count on a deployed tally means a
// party is misbehaving (or corrupting data), which operators must see
// even though the round itself aborts with a precise error.
func verifyFailure(kind string) {
	metrics.Default().Inc("psc/verify-failures")
	metrics.Default().Inc("psc/verify-failures/" + kind)
}

// decShareChunk is one CP's verified decryption shares for one chunk
// of the final vector, with the ciphertexts they were verified against,
// handed from the per-CP decrypt stream to the recovering combiner.
type decShareChunk struct {
	off    int
	cts    []elgamal.Ciphertext
	shares []elgamal.DecryptionShare
}

// decryptCP streams the final batch to one CP from in, the decrypt
// spill's re-stream, and verifies its share chunks as they return (one
// proof per chunk), pushing each verified chunk to the combiner. Sending
// and receiving overlap: the CP answers chunk k while chunk k+1 is in
// flight; the sender hands each chunk to the verifier over a bounded
// channel. A failure cancels the round with its error; out always
// closes.
func (t *Tally) decryptCP(ctx context.Context, cancel context.CancelCauseFunc, name string, m wire.Messenger, cpKey elgamal.Point, in <-chan vchunk, n int, out chan<- decShareChunk) {
	// Share parsing and the per-chunk proof check run on the verify shard; the
	// forwarder delivers verified chunks in stream order, so the
	// combiner still sees them on the boundaries it expects.
	forwardOrdered(ctx, cancel, out, func(verify *parallel.Ordered[decShareChunk]) error {
		sent := make(chan []elgamal.Ciphertext, 2)
		go func() {
			defer close(sent)
			if err := m.Send(kindDecrypt, VectorHeader{Round: t.cfg.Round, N: n}); err != nil {
				cancel(fmt.Errorf("psc ts: decrypt to CP %s: %w", name, err))
				return
			}
			for c := range in {
				if err := m.Send(kindChunk, chunkOut{off: c.off, cts: c.cts}); err != nil {
					cancel(fmt.Errorf("psc ts: decrypt chunk to CP %s: %w", name, err))
					return
				}
				select {
				case sent <- c.cts:
				case <-ctx.Done():
					return
				}
			}
		}()

		var hdr VectorHeader
		if err := m.Expect(kindShares, &hdr); err != nil {
			return fmt.Errorf("psc ts: shares from CP %s: %w", name, err)
		}
		if hdr.N != n {
			return fmt.Errorf("psc ts: CP %s answering %d elements, want %d", name, hdr.N, n)
		}
		for off := 0; off < n; {
			// Share chunks must mirror the chunks we sent: the combiner
			// recovers plaintexts on the same boundaries, and RecoverBatch
			// requires share and ciphertext vectors of equal length.
			end := min(off+chunkElems, n)
			var sc ShareChunkMsg
			if err := m.Expect(kindShare, &sc); err != nil {
				return fmt.Errorf("psc ts: shares from CP %s: %w", name, err)
			}
			if sc.Off != off || sc.Count != end-off {
				return fmt.Errorf("psc ts: CP %s share chunk [%d,%d), want [%d,%d)", name, sc.Off, sc.Off+sc.Count, off, end)
			}
			// The matching plaintext chunk must be taken off the sender's
			// channel here, in stream order; the verification itself is
			// shard work.
			var cts []elgamal.Ciphertext
			select {
			case c, ok := <-sent:
				if !ok {
					return nil // the sender or the re-stream failed and cancelled the round
				}
				cts = c
			case <-ctx.Done():
				return context.Cause(ctx)
			}
			verify.Submit(func() (decShareChunk, error) {
				return t.verifyShareChunk(name, cpKey, sc, cts)
			})
			off += sc.Count
		}
		return nil
	})
}

// verifyShareChunk parses one CP's share chunk and verifies its one
// proof against the ciphertext chunk the TS sent — shard work. The
// proof covers the whole chunk, so a rejection cannot name a share.
func (t *Tally) verifyShareChunk(name string, cpKey elgamal.Point, sc ShareChunkMsg, cts []elgamal.Ciphertext) (decShareChunk, error) {
	shares, proof, err := parseShareChunk(sc)
	if err != nil {
		return decShareChunk{}, fmt.Errorf("psc ts: CP %s share chunk at %d: %w", name, sc.Off, err)
	}
	if _, ok := elgamal.VerifySharesBatch(cpKey, cts, shares, proof); !ok {
		verifyFailure("share-proof")
		return decShareChunk{}, fmt.Errorf("psc ts: CP %s share chunk [%d,%d) unverified", name, sc.Off, sc.Off+sc.Count)
	}
	return decShareChunk{off: sc.Off, cts: cts, shares: shares}, nil
}
