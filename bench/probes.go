package main

import (
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/elgamal"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/parallel"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/spill"
	"repro/internal/torctl"
	"repro/internal/wire"
)

// Micro-probes time one public function of one layer at the sizes the
// workloads use (1024-element blocks and chunks, 8 proof rounds,
// 131-byte ciphertext slots, 4096-slot PrivCount chunks), from outside
// the program. Each gets the same slice of the run's time and reports
// the median call.

const (
	probeRounds = 8
	ctSlot      = 131 // encoded ciphertext bytes
)

// prober holds the time slice and collects values by metric name.
type prober struct {
	slice time.Duration
	out   map[string]float64
	seed  int64
	dir   string
	// elems is the block and chunk size probed (1024; 64 at smoke
	// scale) and wan the emulated path (wan-tor; 5 ms at smoke scale).
	elems int
	wan   string

	mu   sync.Mutex // probes with concurrent senders report errors
	errs []string
}

// calls runs fn until the slice is spent (3 to 200 calls) and returns
// the median seconds per call.
func (p *prober) calls(fn func()) float64 {
	var d []float64
	start := time.Now()
	for len(d) < 3 || (len(d) < 200 && time.Since(start) < p.slice) {
		t0 := time.Now()
		fn()
		d = append(d, time.Since(t0).Seconds())
	}
	return median(d)
}

func (p *prober) failf(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.errs = append(p.errs, fmt.Sprintf(format, args...))
}

// runProbes runs every probe group; budget is the total time to spend.
func runProbes(budget time.Duration, seed int64, dir string, smoke bool, trace []event.Event) (map[string]float64, []string) {
	const timedSets = 44 // calls() invocations plus timed transfers below
	p := &prober{slice: budget / timedSets, out: make(map[string]float64), seed: seed, dir: dir, elems: 1024, wan: "wan-tor"}
	if smoke {
		p.elems, p.wan = 64, "lat=5ms,bw=5M"
	}
	p.elgamal()
	p.privcount()
	p.wire()
	p.netem()
	p.spill()
	p.parallel()
	p.events(trace)
	p.promScrape()
	return p.out, p.errs
}

func (p *prober) elgamal() {
	n := p.elems
	keys := []*elgamal.PrivateKey{elgamal.GenerateKey(), elgamal.GenerateKey(), elgamal.GenerateKey()}
	pk, err := elgamal.CombineKeys(keys[0].PK, keys[1].PK, keys[2].PK)
	if err != nil {
		p.failf("elgamal: %v", err)
		return
	}
	elgamal.Precompute(pk)
	rng := rand.New(rand.NewSource(p.seed))
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = rng.Intn(2) == 1
	}
	perElem := func(s float64) float64 { return s / float64(n) * 1e6 }

	var cts []elgamal.Ciphertext
	var rs []*big.Int
	p.out["elgamal.encrypt_bits_us"] = perElem(p.calls(func() { cts, rs = elgamal.BatchEncryptBits(pk, bits) }))
	other, _ := elgamal.BatchEncryptBits(pk, bits)
	p.out["elgamal.add_ciphertexts_us"] = perElem(p.calls(func() { elgamal.BatchAddCiphertexts(cts, other) }))

	var bitProofs []elgamal.BitProof
	p.out["elgamal.prove_bits_us"] = perElem(p.calls(func() { bitProofs = elgamal.BatchProveBits(pk, cts, bits, rs) }))
	p.out["elgamal.verify_bits_us"] = perElem(p.calls(func() {
		if _, ok := elgamal.VerifyBitsBatch(pk, cts, bitProofs); !ok {
			p.failf("elgamal: bit proofs rejected")
		}
	}))

	var shuffled []elgamal.Ciphertext
	var wit elgamal.ShuffleWitness
	p.out["elgamal.shuffle_us"] = perElem(p.calls(func() { shuffled, wit = elgamal.Shuffle(pk, cts) }))
	var blockProof elgamal.BlockShuffleProof
	p.out["elgamal.prove_shuffle_block_us"] = perElem(p.calls(func() {
		tr := elgamal.NewShuffleTranscript(pk, n, n, 1, probeRounds)
		if blockProof, err = elgamal.ProveShuffleBlock(tr, 1, 0, pk, cts, shuffled, wit, probeRounds); err != nil {
			p.failf("elgamal: prove block: %v", err)
		}
	}))
	p.out["elgamal.verify_shuffle_block_us"] = perElem(p.calls(func() {
		tr := elgamal.NewShuffleTranscript(pk, n, n, 1, probeRounds)
		if err := elgamal.VerifyShuffleBlock(tr, 1, 0, pk, cts, shuffled, blockProof); err != nil {
			p.failf("elgamal: verify block: %v", err)
		}
	}))

	var blinded []elgamal.Ciphertext
	var blindProofs []elgamal.EqualityProof
	p.out["elgamal.exp_blind_prove_us"] = perElem(p.calls(func() {
		var ss []*big.Int
		blinded, ss = elgamal.BatchExpBlind(cts)
		blindProofs = elgamal.BatchProveBlinds(cts, blinded, ss)
	}))
	p.out["elgamal.verify_blinds_us"] = perElem(p.calls(func() {
		if _, ok := elgamal.VerifyBlindsBatch(cts, blinded, blindProofs); !ok {
			p.failf("elgamal: blind proofs rejected")
		}
	}))

	shares := make([][]elgamal.DecryptionShare, len(keys))
	for i, k := range keys {
		shares[i] = k.BatchPartialDecrypt(blinded)
	}
	shareProofs := keys[0].BatchProveShares(blinded, shares[0])
	p.out["elgamal.verify_shares_us"] = perElem(p.calls(func() {
		if _, ok := elgamal.VerifySharesBatch(keys[0].PK, blinded, shares[0], shareProofs); !ok {
			p.failf("elgamal: share proofs rejected")
		}
	}))
	p.out["elgamal.recover_us"] = perElem(p.calls(func() { elgamal.RecoverBatch(blinded, shares) }))

	packed := packCiphertexts(cts)
	p.out["elgamal.parse_ciphertext_us"] = perElem(p.calls(func() {
		for b := packed; len(b) > 0; {
			_, used, err := elgamal.ParseCiphertext(b)
			if err != nil {
				p.failf("elgamal: parse: %v", err)
				return
			}
			b = b[used:]
		}
	}))

	// The wire codec cost of the chunk those ciphertexts travel in.
	msg := psc.ChunkMsg{Off: 0, Count: n, Data: packed}
	p.out["wire.gob_chunk_us"] = p.calls(func() {
		b, err := wire.EncodePayload(msg)
		if err == nil {
			var back psc.ChunkMsg
			err = wire.DecodePayload(b, &back)
		}
		if err != nil {
			p.failf("wire: gob chunk: %v", err)
		}
	}) * 1e6
}

func packCiphertexts(cts []elgamal.Ciphertext) []byte {
	b := make([]byte, 0, len(cts)*ctSlot)
	for _, c := range cts {
		b = c.AppendTo(b)
	}
	return b
}

func (p *prober) privcount() {
	stats := make([]privcount.StatConfig, 100)
	for i := range stats {
		stats[i] = privcount.StatConfig{Name: fmt.Sprintf("stat-%03d", i), Bins: []string{"a", "b", "c", "d"}, Sigma: 1}
	}
	schema, err := privcount.NewSchema(stats)
	if err != nil {
		p.failf("privcount: %v", err)
		return
	}
	counters := privcount.NewCounters(schema)
	const incs = 20000
	p.out["privcount.increment_ns"] = p.calls(func() {
		for i := 0; i < incs; i++ {
			_ = counters.Increment(stats[i%len(stats)].Name, i&3, 1) // coordinates are in range
		}
	}) / incs * 1e9

	const slots = privcount.ChunkSlots
	var shares []uint64
	p.out["privcount.random_shares_ns"] = p.calls(func() { shares = privcount.RandomShares(slots) }) / slots * 1e9

	pubs := make([][]byte, 3)
	plains := make([][]byte, 3)
	for i := range pubs {
		k, err := privcount.NewSealKey()
		if err != nil {
			p.failf("privcount: %v", err)
			return
		}
		pubs[i] = k.Public()
		if plains[i], err = wire.EncodePayload(shares); err != nil {
			p.failf("privcount: %v", err)
			return
		}
	}
	p.out["privcount.seal_batch_us"] = p.calls(func() {
		if _, err := privcount.SealBatch(pubs, plains); err != nil {
			p.failf("privcount: seal: %v", err)
		}
	}) * 1e6

	sum := privcount.RandomShares(schema.Size())
	p.out["privcount.aggregate_sum_ns"] = p.calls(func() {
		if _, err := privcount.AggregateSum(schema, sum); err != nil {
			p.failf("privcount: aggregate: %v", err)
		}
	}) / float64(schema.Size()) * 1e9
}

// probeDeadline bounds every stream probe: past it both sessions are
// closed, so a wedged stream fails its probe instead of hanging the run.
const probeDeadline = 30 * time.Second

// streamPair opens one mux stream between two connected sessions and
// returns it oriented the way the protocols' bulk data flows: from the
// accepting party (DC tables, CP outputs) to the opener (the tally).
// That direction is also the one a stream can safely fill from its
// first frame; see "Known limits" in README.md for what happens the
// other way round.
func streamPair(opener, acceptor *wire.Session) (send, recv *wire.Stream, closeBoth func(), err error) {
	guard := time.AfterFunc(probeDeadline, func() { opener.Close(); acceptor.Close() })
	closeBoth = func() { guard.Stop(); opener.Close(); acceptor.Close() }
	if recv, err = opener.Open(1, "probe"); err == nil {
		send, err = acceptor.Accept()
	}
	if err != nil {
		closeBoth()
	}
	return send, recv, closeBoth, err
}

func pipeSessions(opts ...wire.Option) (*wire.Session, *wire.Session) {
	a, b := wire.Pipe(opts...)
	return wire.NewSession(a, true), wire.NewSession(b, false)
}

// tlsSessions returns a session pair over loopback TCP with pinned
// TLS. The accepted side starts its session at once: the server's half
// of the TLS handshake runs on its first read.
func tlsSessions(opts ...wire.Option) (*wire.Session, *wire.Session, error) {
	id, err := wire.GenerateIdentity("probe", time.Hour)
	if err != nil {
		return nil, nil, err
	}
	ln, err := wire.Listen("127.0.0.1:0", id.ServerTLS(), opts...)
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	accepted := make(chan *wire.Session, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- wire.NewSession(c, false)
	}()
	a, err := wire.Dial(ln.Addr().String(), wire.ClientTLS(id.SPKI()), 10*time.Second, opts...)
	if err != nil {
		return nil, nil, err
	}
	b := <-accepted
	if b == nil {
		a.Close()
		return nil, nil, fmt.Errorf("accept failed")
	}
	return wire.NewSession(a, true), b, nil
}

const probeFrame = 32 << 10

// pump sends 32 KiB frames on send for d (or exactly total bytes when
// total > 0), then an end marker; drain counts payload bytes on recv
// until the marker. It returns the MB/s seen by the receiver.
func pump(send, recv *wire.Stream, d time.Duration, total int) (float64, error) {
	buf := make([]byte, probeFrame)
	errc := make(chan error, 1)
	start := time.Now()
	go func() {
		sent := 0
		for (total > 0 && sent < total) || (total == 0 && time.Since(start) < d) {
			if err := send.SendFrame(wire.Frame{Kind: "probe/data", Payload: buf}); err != nil {
				errc <- err
				return
			}
			sent += len(buf)
		}
		errc <- send.SendFrame(wire.Frame{Kind: "probe/end"})
	}()
	got := 0
	for {
		f, err := recv.Recv()
		if err != nil {
			return 0, err
		}
		if f.Kind == "probe/end" {
			break
		}
		got += len(f.Payload)
	}
	el := time.Since(start).Seconds()
	return float64(got) / 1e6 / el, <-errc
}

// pingPong returns the median round trip of a 64-byte frame.
func pingPong(a, b *wire.Stream, n int) (time.Duration, error) {
	payload := make([]byte, 64)
	go func() {
		for i := 0; i < n; i++ {
			f, err := b.Recv()
			if err != nil || b.SendFrame(f) != nil {
				return
			}
		}
	}()
	var rtts []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := a.SendFrame(wire.Frame{Kind: "probe/ping", Payload: payload}); err != nil {
			return 0, err
		}
		if _, err := a.Recv(); err != nil {
			return 0, err
		}
		rtts = append(rtts, time.Since(t0).Seconds())
	}
	return time.Duration(median(rtts) * float64(time.Second)), nil
}

func (p *prober) wire() {
	adaptive := wire.WithAdaptiveWindow(0)
	pa, pb := pipeSessions(adaptive)
	if send, recv, closeBoth, err := streamPair(pa, pb); err != nil {
		p.failf("wire: pipe stream: %v", err)
	} else {
		if p.out["wire.pipe_stream_mb_s"], err = pump(send, recv, p.slice, 0); err != nil {
			p.failf("wire: pipe stream: %v", err)
		}
		closeBoth()
	}

	ta, tb, err := tlsSessions(adaptive)
	if err != nil {
		p.failf("wire: tls: %v", err)
	} else if send, recv, closeBoth, err := streamPair(ta, tb); err != nil {
		p.failf("wire: tls stream: %v", err)
	} else {
		if p.out["wire.tls_stream_mb_s"], err = pump(send, recv, p.slice, 0); err != nil {
			p.failf("wire: tls stream: %v", err)
		}
		rtt, err := pingPong(send, recv, 200)
		if err != nil {
			p.failf("wire: ping-pong: %v", err)
		}
		p.out["wire.small_frame_rtt_us"] = float64(rtt.Nanoseconds()) / 1e3
		closeBoth()
	}

	// Fan-in: 16 sessions stream into one process-wide receiver plane.
	const fan = 16
	var got atomic.Int64
	var wg sync.WaitGroup
	var closers []func()
	start := time.Now()
	for i := 0; i < fan; i++ {
		a, b := pipeSessions(adaptive)
		send, recv, closeBoth, err := streamPair(a, b)
		if err != nil {
			p.failf("wire: fan-in: %v", err)
			continue
		}
		closers = append(closers, closeBoth)
		wg.Add(1)
		go func() {
			defer wg.Done()
			mbs, err := pump(send, recv, p.slice, 0)
			if err != nil {
				p.failf("wire: fan-in: %v", err)
				return
			}
			got.Add(int64(mbs * time.Since(start).Seconds() * 1e6))
		}()
	}
	wg.Wait()
	p.out["wire.fanin_16_mb_s"] = float64(got.Load()) / 1e6 / time.Since(start).Seconds()
	for _, c := range closers {
		c()
	}
}

// netemStream opens one adaptive-window stream over an in-memory pipe
// shaped by the given profile spec in both directions.
func netemStream(spec string) (send, recv *wire.Stream, closeBoth func(), err error) {
	prof, err := netem.ParseProfile(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	na, nb := netem.Pipe(*prof)
	return streamPair(
		wire.NewSession(wire.NewConn(na, wire.WithAdaptiveWindow(0)), true),
		wire.NewSession(wire.NewConn(nb, wire.WithAdaptiveWindow(0)), false))
}

func (p *prober) netem() {
	// The emulator-honesty check: with jitter off, a small frame must
	// take one emulated round trip, 2 × 300 ms.
	if a, b, closeBoth, err := netemStream(fmt.Sprintf("%s,jitter=0,loss=0,seed=%d", p.wan, p.seed)); err != nil {
		p.failf("netem: %v", err)
	} else {
		rtt, err := pingPong(a, b, 3)
		if err != nil {
			p.failf("netem: ping-pong: %v", err)
		}
		p.out["netem.wan_tor_rtt_ms"] = float64(rtt.Microseconds()) / 1e3
		closeBoth()
	}
	// Bulk transfer over the full profile with the adaptive window,
	// sized to the time slice at the profile's 5 MB/s (at least 2 MiB).
	send, recv, closeBoth, err := netemStream(fmt.Sprintf("%s,seed=%d", p.wan, p.seed))
	if err != nil {
		p.failf("netem: %v", err)
		return
	}
	defer closeBoth()
	total := max(int(5e6*p.slice.Seconds())*3, p.elems*2<<10)
	if p.out["netem.wan_tor_bulk_mb_s"], err = pump(send, recv, 0, total); err != nil {
		p.failf("netem: bulk: %v", err)
	}
}

func (p *prober) spill() {
	const slots = 1 << 18
	st, err := spill.New(slots, ctSlot)
	if err != nil {
		p.failf("spill: %v", err)
		return
	}
	defer st.Close()
	block := make([]byte, p.elems*ctSlot)
	mb := float64(slots*ctSlot) / 1e6
	sweep := func(fn func(off int) error) func() {
		return func() {
			for off := 0; off < slots; off += p.elems {
				if err := fn(off); err != nil {
					p.failf("spill: %v", err)
					return
				}
			}
		}
	}
	p.out["spill.write_mb_s"] = mb / p.calls(sweep(func(off int) error { return st.WriteAt(off, block) }))
	p.out["spill.read_mb_s"] = mb / p.calls(sweep(func(off int) error { _, err := st.ReadRange(off, p.elems); return err }))
	rng := rand.New(rand.NewSource(p.seed))
	slot := make([]byte, ctSlot)
	const reads = 2000
	p.out["spill.read_slot_us"] = p.calls(func() {
		for i := 0; i < reads; i++ {
			if err := st.ReadSlot(rng.Intn(slots), slot); err != nil {
				p.failf("spill: %v", err)
				return
			}
		}
	}) / reads * 1e6

	// The PrivCount shape: 8-byte sums in 4096-slot chunks.
	s8, err := spill.New(slots, 8)
	if err != nil {
		p.failf("spill: %v", err)
		return
	}
	defer s8.Close()
	chunk := make([]byte, privcount.ChunkSlots*8)
	p.out["spill.write8_mb_s"] = float64(slots*8) / 1e6 / p.calls(func() {
		for off := 0; off < slots; off += privcount.ChunkSlots {
			if err := s8.WriteAt(off, chunk); err != nil {
				p.failf("spill: %v", err)
				return
			}
		}
	})
}

func (p *prober) parallel() {
	const jobs = 2000
	p.out["parallel.ordered_job_us"] = p.calls(func() {
		o := parallel.NewOrdered[int](parallel.PoolSize(), 2*parallel.PoolSize(), "")
		go func() {
			for i := 0; i < jobs; i++ {
				o.Submit(func() (int, error) { return 0, nil })
			}
			o.Close()
		}()
		if err := o.Drain(); err != nil {
			p.failf("parallel: %v", err)
		}
	}) / jobs * 1e6

	// Core scaling of the batch plane: the same BatchMul at the run's
	// GOMAXPROCS and at 1.
	base := elgamal.GenerateKey().PK
	elgamal.Precompute(base)
	ks := elgamal.RandomScalars(4 * p.elems)
	wide := p.calls(func() { elgamal.BatchMul(base, ks) })
	procs := runtime.GOMAXPROCS(1)
	narrow := p.calls(func() { elgamal.BatchMul(base, ks) })
	runtime.GOMAXPROCS(procs)
	p.out["parallel.for_speedup"] = narrow / wide
}

// shardSkew is max/mean of the per-shard job counters of the busiest
// ordered pool, from the process-wide registry (0: no pool ran).
func shardSkew(snap map[string]float64) float64 {
	type agg struct{ sum, max, n float64 }
	pools := make(map[string]*agg)
	for name, v := range snap {
		// parallel/<pool>/shard-<i>/jobs
		parts := strings.Split(name, "/")
		if len(parts) != 4 || parts[0] != "parallel" || !strings.HasPrefix(parts[2], "shard-") {
			continue
		}
		dir := parts[1]
		a := pools[dir]
		if a == nil {
			a = &agg{}
			pools[dir] = a
		}
		a.sum, a.n = a.sum+v, a.n+1
		a.max = max(a.max, v)
	}
	skew := 0.0
	for _, a := range pools {
		if a.sum > 0 {
			skew = max(skew, a.max/(a.sum/a.n))
		}
	}
	return skew
}

func (p *prober) events(trace []event.Event) {
	if len(trace) == 0 {
		var err error
		if trace, err = torTrace(2500, uint64(p.seed), 20000); err != nil {
			p.failf("events: %v", err)
			return
		}
	}
	if len(trace) > 20000 {
		trace = trace[:20000]
	}
	n := float64(len(trace))
	const epoch = 1514764800 * int64(1e9)
	lines := make([]string, len(trace))
	p.out["torctl.format_line_ns"] = p.calls(func() {
		for i, ev := range trace {
			lines[i], _ = torctl.FormatEvent(ev, epoch) // every trace event has a line form
		}
	}) / n * 1e9
	parser := torctl.LineParser{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	parses := 0
	p.out["torctl.parse_line_ns"] = p.calls(func() {
		for _, l := range lines {
			if _, err := parser.Parse(l); err != nil {
				p.failf("torctl: parse %q: %v", l, err)
				return
			}
		}
		parses += len(lines)
	}) / n * 1e9
	runtime.ReadMemStats(&m1)
	p.out["torctl.parse_line_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(max(parses, 1))

	var bufs [][]byte
	p.out["event.marshal_ns"] = p.calls(func() {
		bufs = bufs[:0]
		for _, ev := range trace {
			bufs = append(bufs, event.Marshal(nil, ev))
		}
	}) / n * 1e9
	p.out["event.unmarshal_ns"] = p.calls(func() {
		for _, b := range bufs {
			if _, err := event.Unmarshal(b); err != nil {
				p.failf("event: unmarshal: %v", err)
				return
			}
		}
	}) / n * 1e9

	// Control-port drain with no dispatch: the consumer's ceiling.
	cookie, err := torctl.GenerateCookie()
	if err != nil {
		p.failf("torctl: %v", err)
		return
	}
	cookiePath := filepath.Join(p.dir, "probe_auth_cookie")
	if err := os.WriteFile(cookiePath, cookie, 0o600); err != nil {
		p.failf("torctl: %v", err)
		return
	}
	var handshakes []float64
	p.out["torctl.source_drain_events_per_s"] = n / p.calls(func() {
		relay, err := torctl.NewMockRelay(torctl.MockConfig{Cookie: cookie, CookiePath: cookiePath})
		if err != nil {
			p.failf("torctl: %v", err)
			return
		}
		defer relay.Close()
		for _, ev := range trace {
			relay.Feed(ev)
		}
		relay.End()
		addr, err := relay.Listen("127.0.0.1:0")
		if err != nil {
			p.failf("torctl: %v", err)
			return
		}
		t0 := time.Now()
		src, err := torctl.DialSource(torctl.Config{Addr: addr.String(), CookiePath: cookiePath, MaxDialFailures: 1}, torctl.LineParser{})
		if err != nil {
			p.failf("torctl: %v", err)
			return
		}
		handshakes = append(handshakes, time.Since(t0).Seconds()*1e3)
		for range src.Events() {
		}
		src.Close()
	})
	p.out["torctl.handshake_ms"] = median(handshakes)
}

func (p *prober) promScrape() {
	addr, closeSrv, err := metrics.Serve("127.0.0.1:0", metrics.Default())
	if err != nil {
		p.failf("metrics: %v", err)
		return
	}
	defer closeSrv()
	p.out["metrics.prom_scrape_ms"] = p.calls(func() {
		resp, err := http.Get("http://" + addr + "/metrics?format=prom")
		if err != nil {
			p.failf("metrics: %v", err)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body) // body length is not the measurement
		resp.Body.Close()
	}) * 1e3
}
