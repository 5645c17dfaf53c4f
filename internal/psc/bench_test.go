package psc

// BenchmarkPSCRound runs one complete PSC round — DC table encryption,
// homomorphic combination, the full CP mixing pipeline (noise, shuffle,
// blind, with and without proofs), joint verified decryption — over
// in-memory pipes and over TCP loopback. The pipe variants are the
// end-to-end canary for the group-core batching; the tcp variants add
// real sockets so transport-layer regressions (framing, chunking, flow
// control) show up in `make bench-smoke` too.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/wire"
)

// connPair hands out connected (tally-side, party-side) messengers.
type connPair func() (wire.Messenger, wire.Messenger)

// pipePair builds in-memory pairs.
func pipePair(b *testing.B) (connPair, func()) {
	return func() (wire.Messenger, wire.Messenger) {
		ts, party := wire.Pipe()
		return ts, party
	}, func() {}
}

// tcpPair builds loopback TCP pairs through one listener.
func tcpPair(b *testing.B) (connPair, func()) {
	ln, err := wire.Listen("127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	accepted := make(chan *wire.Conn, 16)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	return func() (wire.Messenger, wire.Messenger) {
		party, err := wire.Dial(ln.Addr().String(), nil, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		return <-accepted, party
	}, func() { ln.Close() }
}

// recordingConn wraps a tally-side messenger and reports every frame
// crossing it, in either direction, to record. The round is a star
// around the TS, so recording every tally-side messenger sees every
// byte the round moves.
type recordingConn struct {
	wire.Messenger
	record func(kind string, payload []byte)
}

func (rc *recordingConn) Send(kind string, v any) error {
	payload, err := wire.EncodePayload(v)
	if err != nil {
		return err
	}
	return rc.SendFrame(wire.Frame{Kind: kind, Payload: payload})
}

func (rc *recordingConn) SendFrame(f wire.Frame) error {
	rc.record(f.Kind, f.Payload)
	return rc.Messenger.SendFrame(f)
}

func (rc *recordingConn) Recv() (wire.Frame, error) {
	f, err := rc.Messenger.Recv()
	if err == nil {
		rc.record(f.Kind, f.Payload)
	}
	return f, err
}

func (rc *recordingConn) Expect(kind string, out any) error { return expectOn(rc.Recv, kind, out) }

// expectOn is wire.Conn.Expect over a wrapping messenger's own Recv, so
// the frames the wrapper saw (or altered) are the ones decoded.
func expectOn(recv func() (wire.Frame, error), kind string, out any) error {
	f, err := recv()
	if err != nil {
		return err
	}
	if f.Kind != kind {
		return fmt.Errorf("expected %q frame, got %q", kind, f.Kind)
	}
	if out == nil {
		return nil
	}
	return wire.DecodePayload(f.Payload, out)
}

// recordingPair wraps the tally side of every pair mk hands out.
// record is called from the round's goroutines concurrently.
func recordingPair(mk connPair, record func(kind string, payload []byte)) connPair {
	return func() (wire.Messenger, wire.Messenger) {
		ts, party := mk()
		return &recordingConn{Messenger: ts, record: record}, party
	}
}

// samplePeakHeap polls the live heap until stop closes and reports the
// peak as a benchmark metric — the residency measurement the streaming
// shuffle exists for (total B/op says how much was allocated; this says
// how much had to be resident at once, across all in-process parties).
func samplePeakHeap(b *testing.B) (stop func()) {
	done := make(chan struct{})
	var peak int64
	go func() {
		var ms runtime.MemStats
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if h := int64(ms.HeapAlloc); h > atomic.LoadInt64(&peak) {
					atomic.StoreInt64(&peak, h)
				}
			}
		}
	}()
	return func() {
		close(done)
		b.ReportMetric(float64(atomic.LoadInt64(&peak))/(1<<20), "peak-heap-MB")
	}
}

func runBenchRound(b testing.TB, cfg Config, items int, mk connPair) {
	tally, err := NewTally(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var tsConns []wire.Messenger
	var dcs []*DC
	var wg sync.WaitGroup
	for i := 0; i < cfg.NumCPs; i++ {
		ts, side := mk()
		tsConns = append(tsConns, ts)
		cp := NewCP(fmt.Sprintf("cp%d", i), side, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cp.Serve(); err != nil {
				b.Error(err)
			}
		}()
	}
	var setup sync.WaitGroup
	for i := 0; i < cfg.NumDCs; i++ {
		ts, side := mk()
		tsConns = append(tsConns, ts)
		dc := NewDC(fmt.Sprintf("dc%d", i), side)
		dcs = append(dcs, dc)
		setup.Add(1)
		go func() {
			defer setup.Done()
			if err := dc.Setup(); err != nil {
				b.Error(err)
			}
		}()
	}
	done := make(chan error, 1)
	var res Result
	go func() {
		r, err := tally.Run(context.Background(), tsConns, roundNames(cfg.NumCPs, cfg.NumDCs))
		res = r
		done <- err
	}()
	setup.Wait()
	for d, dc := range dcs {
		for k := 0; k < items; k++ {
			if err := dc.Observe(fmt.Sprintf("item-%d-%d", d, k)); err != nil {
				b.Fatal(err)
			}
		}
		if err := dc.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	wg.Wait()
	for _, m := range tsConns {
		m.Close()
	}
	if res.Bins != cfg.Bins {
		b.Fatalf("unexpected result: %+v", res)
	}
}

// benchWANStream pushes total bytes through one muxed stream whose
// connection is shaped at both ends by the netem profile p — the bulk
// table-upload phase of a WAN round, isolated from crypto cost so the
// flow-control window is the only variable. Goodput is reported as
// xput-MB/s; as the window grows toward the bandwidth-delay product it
// should approach the emulated link rate.
func benchWANStream(b *testing.B, p netem.Profile, total int) {
	const chunk = 32 << 10
	payload := make([]byte, chunk)
	var secs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca, cb := netem.Pipe(p)
		party := wire.NewSession(wire.NewConn(ca), true)
		ts := wire.NewSession(wire.NewConn(cb), false)
		st, err := party.Open(uint64(i)+1, "table-upload")
		if err != nil {
			b.Fatal(err)
		}
		recvErr := make(chan error, 1)
		start := time.Now()
		go func() {
			tst, err := ts.Accept()
			if err != nil {
				recvErr <- err
				return
			}
			for got := 0; got < total; {
				f, err := tst.Recv()
				if err != nil {
					recvErr <- err
					return
				}
				got += len(f.Payload)
			}
			recvErr <- nil
		}()
		for sent := 0; sent < total; sent += chunk {
			if err := st.SendFrame(wire.Frame{Kind: "table", Payload: payload}); err != nil {
				b.Fatal(err)
			}
		}
		if err := <-recvErr; err != nil {
			b.Fatal(err)
		}
		secs += time.Since(start).Seconds()
		party.Close()
		ts.Close()
	}
	b.SetBytes(int64(total))
	b.ReportMetric(float64(total)*float64(b.N)/(1<<20)/secs, "xput-MB/s")
}

func benchRound(b *testing.B, bins, noisePerCP, proofRounds, items int,
	transport func(*testing.B) (connPair, func())) {
	cfg := Config{
		Round:              1,
		Bins:               bins,
		NoisePerCP:         noisePerCP,
		ShuffleProofRounds: proofRounds,
		NumDCs:             2,
		NumCPs:             2,
	}
	mk, cleanup := transport(b)
	defer cleanup()
	// Wire bytes per element of the mixed vector: the canary for
	// proof-byte regressions, which time alone does not show.
	var wireBytes atomic.Int64
	mk = recordingPair(mk, func(_ string, payload []byte) { wireBytes.Add(int64(len(payload))) })
	stop := samplePeakHeap(b)
	defer stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBenchRound(b, cfg, items, mk)
	}
	elems := cfg.Bins + cfg.NumCPs*cfg.NoisePerCP
	b.ReportMetric(float64(wireBytes.Load())/float64(b.N)/float64(elems), "wire-B/elem")
}

// BenchmarkObserve hashes client addresses into a configured DC's
// table, the per-event work of a PSC round; allocs/op must read 0.
func BenchmarkObserve(b *testing.B) {
	dc := configuredDC(b, "dc", []byte("round key"), 1<<16)
	items := make([]string, 1024)
	for i := range items {
		items[i] = fmt.Sprintf("10.%d.%d.%d", i>>16&255, i>>8&255, i&255)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dc.Observe(items[i%len(items)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPSCRound(b *testing.B) {
	b.Run("verified/bins-512", func(b *testing.B) {
		benchRound(b, 512, 64, 1, 200, pipePair)
	})
	b.Run("verified/bins-2048", func(b *testing.B) {
		benchRound(b, 2048, 128, 1, 800, pipePair)
	})
	b.Run("tcp/bins-512", func(b *testing.B) {
		benchRound(b, 512, 64, 1, 200, tcpPair)
	})
	b.Run("tcp/bins-2048", func(b *testing.B) {
		benchRound(b, 2048, 128, 1, 800, tcpPair)
	})
	// The table size the whole-vector shuffle could not reach: 2¹⁶
	// bins, verified, streaming block-wise. Gated on -short so quick
	// local smoke runs can skip the multi-minute variant; CI's
	// bench-smoke runs it.
	b.Run("stream/bins-65536", func(b *testing.B) {
		if testing.Short() {
			b.Skip("skipping 2^16-bin round in -short mode")
		}
		benchRound(b, 65536, 128, 1, 4000, pipePair)
	})
	// WAN arms: a 2^18-bin table of ciphertexts (~32 MB) uploaded over
	// the wan-tor profile (300 ms one-way, 5 MB/s, 0.1% loss — the
	// tor-relay-grade path). A window held at its initial 1 MiB would be
	// RTT-bound at ~1.7 MB/s on this path; the stream window must grow
	// to the bandwidth-delay product to beat that. Gated on -short (tens
	// of seconds of emulated wall clock each); EXPERIMENTS.md §8 has the
	// command.
	b.Run("wan-tor/adaptive", func(b *testing.B) {
		if testing.Short() {
			b.Skip("skipping WAN-emulated arm in -short mode")
		}
		wanTor, _ := netem.Lookup("wan-tor")
		benchWANStream(b, wanTor, 32<<20)
	})
	// The clean-continental path: higher bandwidth, modest latency; its
	// BDP is ~4 MB, so the window has to grow well past 1 MiB here too.
	b.Run("wan-good/adaptive", func(b *testing.B) {
		if testing.Short() {
			b.Skip("skipping WAN-emulated arm in -short mode")
		}
		wanGood, _ := netem.Lookup("wan-good")
		benchWANStream(b, wanGood, 64<<20)
	})
	// The million-bin regime this PR targets: 2¹⁸ bins, verified,
	// gather table and per-DC buffers on spill storage, verify/combine
	// sharded across the worker plane. peak-heap-MB is the acceptance
	// metric — the TS must stay O(chunk) resident while the table is
	// ~70 MB of ciphertexts per party.
	b.Run("verified/stream/bins-262144", func(b *testing.B) {
		if testing.Short() {
			b.Skip("skipping 2^18-bin round in -short mode")
		}
		benchRound(b, 262144, 128, 1, 8000, pipePair)
	})
}
