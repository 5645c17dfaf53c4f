package psc

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dp"
	"repro/internal/elgamal"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/wire"
)

type seededReader struct{ r interface{ Uint64() uint64 } }

func (s seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.r.Uint64())
	}
	return len(p), nil
}

// runRound drives a complete PSC round over pipes: the feed callback
// lets the test observe items on each DC between setup and finish.
func runRound(t *testing.T, cfg Config, feed func(dcs []*DC)) Result {
	t.Helper()
	tally, err := NewTally(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var tsConns []wire.Messenger
	var dcs []*DC
	var cpWG, setupWG sync.WaitGroup

	for i := 0; i < cfg.NumCPs; i++ {
		tsSide, cpSide := wire.Pipe()
		tsConns = append(tsConns, tsSide)
		noise := dp.NewNoiseSource(seededReader{simtime.Rand(uint64(i), "psc-test")})
		cp := NewCP(fmt.Sprintf("cp-%d", i), cpSide, noise)
		cpWG.Add(1)
		go func() {
			defer cpWG.Done()
			if err := cp.Serve(); err != nil {
				t.Errorf("cp: %v", err)
			}
		}()
	}
	for i := 0; i < cfg.NumDCs; i++ {
		tsSide, dcSide := wire.Pipe()
		tsConns = append(tsConns, tsSide)
		dc := NewDC(fmt.Sprintf("dc-%d", i), dcSide)
		dcs = append(dcs, dc)
		setupWG.Add(1)
		go func() {
			defer setupWG.Done()
			if err := dc.Setup(); err != nil {
				t.Errorf("dc setup: %v", err)
			}
		}()
	}

	resCh := make(chan Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := tally.Run(context.Background(), tsConns, roundNames(cfg.NumCPs, cfg.NumDCs))
		if err != nil {
			errCh <- err
			return
		}
		resCh <- res
	}()

	setupWG.Wait()
	feed(dcs)
	for _, dc := range dcs {
		if err := dc.Finish(); err != nil {
			t.Fatalf("dc finish: %v", err)
		}
	}
	cpWG.Wait()
	select {
	case res := <-resCh:
		return res
	case err := <-errCh:
		t.Fatalf("tally: %v", err)
		return Result{}
	}
}

func TestRoundExactWithoutNoise(t *testing.T) {
	// 2048 bins keep the collision probability for 5 items below 0.5%;
	// the round hash key is random, so a tight table would flake.
	cfg := Config{Round: 1, Bins: 2048, NoisePerCP: 0, ShuffleProofRounds: 6, NumDCs: 3, NumCPs: 2}
	res := runRound(t, cfg, func(dcs []*DC) {
		// 5 distinct items spread across DCs with overlap.
		dcs[0].Observe("10.0.0.1")
		dcs[0].Observe("10.0.0.2")
		dcs[1].Observe("10.0.0.2") // duplicate across DCs
		dcs[1].Observe("10.0.0.3")
		dcs[2].Observe("10.0.0.4")
		dcs[2].Observe("10.0.0.5")
		dcs[2].Observe("10.0.0.5") // duplicate within a DC
	})
	if res.Reported != 5 {
		t.Fatalf("reported %d non-empty bins, want 5 (union size)", res.Reported)
	}
	if res.Bins != 2048 || res.NoiseTrials != 0 {
		t.Fatalf("result metadata: %+v", res)
	}
}

func TestRoundWithNoiseRecoversCount(t *testing.T) {
	cfg := Config{Round: 2, Bins: 512, NoisePerCP: 40, ShuffleProofRounds: 4, NumDCs: 2, NumCPs: 3}
	const distinct = 60
	res := runRound(t, cfg, func(dcs []*DC) {
		for i := 0; i < distinct; i++ {
			dcs[i%2].Observe(fmt.Sprintf("item-%d", i))
		}
	})
	if res.NoiseTrials != 120 {
		t.Fatalf("noise trials: %d", res.NoiseTrials)
	}
	iv, err := stats.UnionCardinalityCI(stats.PSCObservation{
		Reported: res.Reported, Bins: res.Bins, NoiseTrials: res.NoiseTrials,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(distinct) {
		t.Fatalf("estimator CI %+v must contain true count %d (reported %d)", iv, distinct, res.Reported)
	}
}

func TestRoundEmptySets(t *testing.T) {
	cfg := Config{Round: 3, Bins: 32, NoisePerCP: 0, ShuffleProofRounds: 2, NumDCs: 2, NumCPs: 2}
	res := runRound(t, cfg, func([]*DC) {})
	if res.Reported != 0 {
		t.Fatalf("empty sets reported %d", res.Reported)
	}
}

// configuredDC returns a DC set up for a round of the given table size
// and hash key, configured by a stand-in tally over a pipe.
func configuredDC(t testing.TB, name string, key []byte, bins int) *DC {
	t.Helper()
	tsSide, dcSide := wire.Pipe()
	t.Cleanup(func() { tsSide.Close() })
	dc := NewDC(name, dcSide)
	errc := make(chan error, 1)
	go func() { errc <- dc.Setup() }()
	cfg := ConfigureMsg{Round: 1, Bins: bins, HashKey: key, JointKey: elgamal.GenerateKey().PK.Bytes()}
	if err := tsSide.Send(kindConfig, cfg); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	return dc
}

// refBins returns, ascending, the bins items must occupy: the first 8
// bytes of HMAC-SHA256(key, item), little-endian, mod the table size.
func refBins(key []byte, items []string, bins int) []int {
	set := map[int]bool{}
	for _, item := range items {
		mac := hmac.New(sha256.New, key)
		mac.Write([]byte(item))
		set[int(binary.LittleEndian.Uint64(mac.Sum(nil)[:8])%uint64(bins))] = true
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// observeAll feeds items to dc and returns its occupied bins, ascending.
func observeAll(t *testing.T, dc *DC, items []string) []int {
	t.Helper()
	for _, item := range items {
		if err := dc.Observe(item); err != nil {
			t.Fatal(err)
		}
	}
	var set []int
	for i, b := range dc.bins {
		if b {
			set = append(set, i)
		}
	}
	return set
}

func TestSameItemSameBinAcrossDCs(t *testing.T) {
	const bins = 1 << 20
	key := []byte("k")
	// Items of several lengths, so the reused item buffer both grows and
	// shrinks between calls.
	items := []string{"x", "10.1.2.3", "example.onion", "", strings.Repeat("y", 200), "z"}
	want := fmt.Sprint(refBins(key, items, bins))
	for _, name := range []string{"dc-a", "dc-b"} {
		if got := fmt.Sprint(observeAll(t, configuredDC(t, name, key, bins), items)); got != want {
			t.Fatalf("%s: set bins %s, want %s", name, got, want)
		}
	}

	// Different keys give (almost surely) different placements for some
	// item set — the per-round key prevents offline dictionary tests.
	items = items[:0]
	for i := 0; i < 32; i++ {
		items = append(items, fmt.Sprintf("item-%d", i))
	}
	got1 := fmt.Sprint(observeAll(t, configuredDC(t, "dc-k1", []byte("k1"), bins), items))
	got2 := fmt.Sprint(observeAll(t, configuredDC(t, "dc-k2", []byte("k2"), bins), items))
	if want := fmt.Sprint(refBins([]byte("k1"), items, bins)); got1 != want {
		t.Fatalf("key k1: set bins %s, want %s", got1, want)
	}
	if got1 == got2 {
		t.Fatal("key must affect placement")
	}
}

// TestObserveDoesNotAllocate: a DC round observes every client IP,
// domain or onion address its relay sees, so Observe must reuse the
// round's keyed hash instead of building one per item.
func TestObserveDoesNotAllocate(t *testing.T) {
	dc := configuredDC(t, "dc", []byte("round key"), 1<<16)
	items := []string{"10.1.2.3", "example.onion", "x"}
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := dc.Observe(items[k%len(items)]); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f times per call, want 0", allocs)
	}
}

func TestConfigValidation(t *testing.T) {
	// Each row breaks exactly one rule of an otherwise valid config.
	base := Config{Bins: 8, ShuffleProofRounds: 1, NumDCs: 1, NumCPs: 1}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Bins = 0 },
		func(c *Config) { c.NoisePerCP = -1 },
		func(c *Config) { c.ShuffleProofRounds = -1 },
		func(c *Config) { c.ShuffleProofRounds = 0 },
		func(c *Config) { c.ShuffleProofRounds = 129 },
		func(c *Config) { c.NumDCs = 0 },
		func(c *Config) { c.NumCPs = 0 },
		// Column length over the frame budget: one element past 2048
		// rows of shuffleBlock.
		func(c *Config) { c.Bins = maxBlockElems*shuffleBlock + 1 },
		// 4·2⁶² wraps to 0: the noise bound must not form the product.
		func(c *Config) { c.Bins, c.NoisePerCP, c.NumCPs = 1024, 1<<62, 4 },
	}
	for i, breakIt := range bad {
		cfg := base
		breakIt(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// The unverified mode is gone, and the error says which field.
	err := Config{Bins: 8, NumDCs: 1, NumCPs: 1}.Validate()
	if err == nil || !strings.Contains(err.Error(), "ShuffleProofRounds") {
		t.Fatalf("zero proof rounds: got %v, want an error naming ShuffleProofRounds", err)
	}
	if _, err := NewTally(Config{}); err == nil {
		t.Fatal("NewTally must validate")
	}
}

func TestObserveBeforeSetupFails(t *testing.T) {
	_, dcSide := wire.Pipe()
	dc := NewDC("dc", dcSide)
	if err := dc.Observe("x"); err == nil {
		t.Fatal("observe before setup must fail")
	}
	if err := dc.Finish(); err == nil {
		t.Fatal("finish before setup must fail")
	}
}

func TestTallyRejectsWrongConnCount(t *testing.T) {
	tally, err := NewTally(Config{Round: 1, Bins: 8, ShuffleProofRounds: 1, NumDCs: 1, NumCPs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tally.Run(context.Background(), nil, nil); err == nil {
		t.Fatal("no connections must fail")
	}
}

// tamperConn wraps a TS-side messenger and rewrites one frame arriving
// from the CP: the (skip+1)th of the given kind goes through alter. The
// CP behind it is honest, so this models a CP (or a relay between the
// two) that cheats in exactly one place.
type tamperConn struct {
	wire.Messenger
	kind  string
	skip  int
	alter func(tc *tamperConn, payload []byte) (any, error)

	joint     elgamal.Point
	lastBlock []elgamal.Ciphertext // the most recent shuffled block: what the next blind frame blinds
	tampered  bool
}

func (tc *tamperConn) Send(kind string, v any) error {
	if kind == kindConfig {
		if cc, ok := v.(ConfigureMsg); ok {
			tc.joint, _, _ = elgamal.ParsePoint(cc.JointKey)
		}
	}
	return tc.Messenger.Send(kind, v)
}

func (tc *tamperConn) Recv() (wire.Frame, error) {
	f, err := tc.Messenger.Recv()
	if err != nil {
		return f, err
	}
	if f.Kind == kindShufBlock {
		var bo BlockOutMsg
		if wire.DecodePayload(f.Payload, &bo) == nil {
			tc.lastBlock, _ = decodeVector(bo.Data, bo.Count)
		}
	}
	if f.Kind != tc.kind || tc.tampered {
		return f, nil
	}
	if tc.skip > 0 {
		tc.skip--
		return f, nil
	}
	msg, err := tc.alter(tc, f.Payload)
	if err != nil {
		return f, fmt.Errorf("tamperConn: %w", err)
	}
	if f.Payload, err = wire.EncodePayload(msg); err != nil {
		return f, err
	}
	tc.tampered = true
	return f, nil
}

func (tc *tamperConn) Expect(kind string, out any) error { return expectOn(tc.Recv, kind, out) }

// substituteCiphertext replaces one output ciphertext of a shuffled
// block with a fresh, perfectly valid encryption. The block's shadow
// commitments and openings still describe the CP's honest output.
func substituteCiphertext(tc *tamperConn, payload []byte) (any, error) {
	var bo BlockOutMsg
	if err := wire.DecodePayload(payload, &bo); err != nil {
		return nil, err
	}
	cts, err := decodeVector(bo.Data, bo.Count)
	if err != nil {
		return nil, err
	}
	cts[0] = elgamal.Encrypt(tc.joint, elgamal.Generator())
	bo.Data = encodeVector(cts)
	return bo, nil
}

// wrongShare alters exactly one decryption share of a share chunk — to
// another valid group element — and leaves the chunk's proof alone.
func wrongShare(_ *tamperConn, payload []byte) (any, error) {
	var sc ShareChunkMsg
	if err := wire.DecodePayload(payload, &sc); err != nil {
		return nil, err
	}
	shares, _, err := parseShareChunk(sc)
	if err != nil {
		return nil, err
	}
	at := len(shares) / 2
	shares[at].Share = shares[at].Share.Add(elgamal.Generator())
	sc.Shares = nil
	for _, sh := range shares {
		sc.Shares = sh.Share.AppendBytes(sc.Shares)
	}
	return sc, nil
}

// zeroBlind "blinds" exactly one element of a blind chunk with s = 0 —
// the element becomes (O, O), an encryption of nothing that would drop
// out of the count — and attaches the honest DLEQ proof for it, whose
// equations do hold.
func zeroBlind(tc *tamperConn, payload []byte) (any, error) {
	var bc BlindChunkMsg
	if err := wire.DecodePayload(payload, &bc); err != nil {
		return nil, err
	}
	cts, proofs, err := decodeBlind(bc)
	if err != nil {
		return nil, err
	}
	if len(tc.lastBlock) != len(cts) {
		return nil, fmt.Errorf("blind chunk of %d elements follows a block of %d", len(cts), len(tc.lastBlock))
	}
	at := len(cts) / 2
	cts[at] = elgamal.Ciphertext{C1: elgamal.Identity(), C2: elgamal.Identity()}
	proofs[at] = elgamal.ProveBlind(tc.lastBlock[at], cts[at], new(big.Int))
	bc.Data, bc.Proofs = encodeVector(cts), packProofs(proofs, elgamal.EqualityProofLen)
	return bc, nil
}

// goroutineBaseline returns the goroutine count to hold a finished
// round to. The process-wide worker pool is started first: its workers
// are never reaped and would otherwise read as a leak in whichever test
// happens to use it first.
func goroutineBaseline() int {
	parallel.For(parallel.PoolSize(), 1, func(int, int) {})
	return runtime.NumGoroutine()
}

// waitGoroutines fails the test unless the goroutine count returns to
// baseline within 30 s.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the round:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestMaliciousCPRejected puts an otherwise honest CP behind a wire
// that cheats in exactly one place and requires the TS to abort the
// round with an error naming that CP and the failed check, and to leave
// no goroutine behind. A substituted ciphertext in a single-pass
// shuffle is caught by the block's cut-and-choose argument or, at the
// latest, by the blind DLEQ check against the tampered block. In the
// two-pass shape a tampered row-pass block is caught by the block
// arguments alone: the TS spills the tampered block as the column
// pass's input while the CP spills its own, and the two transcripts
// diverge at that block. A proof round passes the tampered block only
// when the TS draws challenge bit 0 and the CP, answering its own
// transcript, drew 0 too: with TS bit 1 the TS rebuilds the shadow
// from the tampered output, which no commitment of the CP's matches,
// and with TS bit 0 against CP bit 1 it reads an opening of the other
// side. The two transcripts' bits are independent, so the block escapes
// with probability at most 4^-rounds: 2^-40 at the row's 20 proof
// rounds. One wrong share anywhere in a chunk fails that chunk's one
// proof. A zero blind carries a DLEQ that verifies, and is refused for
// what it is.
func TestMaliciousCPRejected(t *testing.T) {
	single := Config{Round: 9, Bins: 16, NoisePerCP: 2, ShuffleProofRounds: 8, NumDCs: 1, NumCPs: 2}
	// Just over one block: two blocks per pass, two share chunks per CP.
	multi := Config{Round: 10, Bins: 1100, NoisePerCP: 2, ShuffleProofRounds: 1, NumDCs: 1, NumCPs: 2}
	multiProved := multi
	multiProved.ShuffleProofRounds = 20
	cases := []struct {
		name    string
		cfg     Config
		kind    string
		skip    int
		alter   func(*tamperConn, []byte) (any, error)
		want    string // the check the error must name ("" for whichever of several catches it)
		counter string
	}{
		// Single pass (vector fits one block): tamper the only block.
		{"single-pass", single, kindShufBlock, 0, substituteCiphertext, "", ""},
		// Two-pass grid: tamper row block 1/1; only the block arguments
		// stand between it and the column pass.
		{"multi-pass", multiProved, kindShufBlock, 1, substituteCiphertext, "", ""},
		{"one-wrong-share", multi, kindShare, 1, wrongShare, "share chunk [1024,1104) unverified", "share-proof"},
		{"zero-blind", multi, kindBlind, 1, zeroBlind, "blinding of element", "blind-proof"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := goroutineBaseline()
			failures := metrics.Default().Get("psc/verify-failures/" + tc.counter)
			tally, err := NewTally(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var tsConns []wire.Messenger

			// Honest CP.
			tsSide1, cpSide1 := wire.Pipe()
			tsConns = append(tsConns, tsSide1)
			honest := NewCP("cp-a", cpSide1, nil)
			go honest.Serve() // errors when the round aborts; ignored

			// Honest CP behind a tampering wire.
			tsSide2, cpSide2 := wire.Pipe()
			cheat := &tamperConn{Messenger: tsSide2, kind: tc.kind, skip: tc.skip, alter: tc.alter}
			tsConns = append(tsConns, cheat)
			victim := NewCP("cp-b", cpSide2, nil)
			go victim.Serve()

			// DC.
			tsSide3, dcSide := wire.Pipe()
			tsConns = append(tsConns, tsSide3)
			dc := NewDC("dc-0", dcSide)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := dc.Setup(); err != nil {
					return
				}
				dc.Observe("victim")
				dc.Finish()
			}()

			_, err = tally.Run(context.Background(), tsConns, []string{"cp-a", "cp-b", "dc-0"})
			if err == nil {
				t.Fatal("tally must reject the tampered round")
			}
			if !cheat.tampered {
				t.Fatalf("round failed before the tamper point: %v", err)
			}
			if !strings.Contains(err.Error(), "CP cp-b") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name CP cp-b and %q", err, tc.want)
			}
			if tc.counter != "" && metrics.Default().Get("psc/verify-failures/"+tc.counter) != failures+1 {
				t.Errorf("psc/verify-failures/%s did not count the rejection", tc.counter)
			}
			for _, m := range tsConns {
				m.Close()
			}
			wg.Wait()
			waitGoroutines(t, baseline)
		})
	}
}

// rogueCP plays a CP that registers the given key material, waits to
// be configured and hangs up: a round that wrongly accepts the key then
// fails on the closed pipe instead of waiting for a mix forever.
func rogueCP(conn wire.Messenger, pub, proof []byte) {
	defer conn.Close()
	conn.Send(kindRegister, RegisterMsg{PubKey: pub, KeyProof: proof})
	var cc ConfigureMsg
	conn.Expect(kindConfig, &cc)
}

// TestRogueCPKeyRejected: a CP key the joint key cannot safely include
// fails the round at registration, before any DC is configured under
// it — the identity, a key registered with no proof of possession or
// with someone else's, and the keys built from the honest CPs' to steer
// the sum (pk₃ = x·G − pk₁ − pk₂ makes the joint key x·G, the rogue's
// own; x = 0 cancels it outright), which their maker cannot prove
// knowledge of, and a valid key with bytes after its encoding. Every
// error names the CP and the check.
func TestRogueCPKeyRejected(t *testing.T) {
	honest := []*elgamal.PrivateKey{elgamal.GenerateKey(), elgamal.GenerateKey()}
	pop := func(k *elgamal.PrivateKey) []byte { return k.ProvePossession().AppendTo(nil) }
	cancelling := honest[0].PK.Add(honest[1].PK).Neg()
	mine := elgamal.GenerateKey()
	steering := mine.PK.Add(cancelling)
	zero := &elgamal.PrivateKey{X: new(big.Int), PK: elgamal.Identity()}
	trailing := elgamal.GenerateKey()
	cases := []struct {
		name       string
		pub, proof []byte
		want       string
	}{
		{"identity key", zero.PK.Bytes(), pop(zero), "identity"},
		{"no proof", elgamal.GenerateKey().PK.Bytes(), nil, "proof of possession"},
		{"borrowed proof", elgamal.GenerateKey().PK.Bytes(), pop(honest[0]), "proof of possession"},
		{"garbage proof", elgamal.GenerateKey().PK.Bytes(), make([]byte, elgamal.EqualityProofLen), "proof of possession"},
		{"cancelling key", cancelling.Bytes(), pop(honest[1]), "proof of possession"},
		{"steering key", steering.Bytes(), pop(mine), "proof of possession"},
		{"trailing bytes", append(trailing.PK.Bytes(), 0xFF), pop(trailing), "trailing bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := goroutineBaseline()
			tally, err := NewTally(Config{Round: 12, Bins: 16, NoisePerCP: 2, ShuffleProofRounds: 2, NumDCs: 1, NumCPs: 3})
			if err != nil {
				t.Fatal(err)
			}
			var tsConns []wire.Messenger
			for _, k := range honest {
				ts, side := wire.Pipe()
				tsConns = append(tsConns, ts)
				go rogueCP(side, k.PK.Bytes(), pop(k))
			}
			ts, side := wire.Pipe()
			tsConns = append(tsConns, ts)
			go rogueCP(side, tc.pub, tc.proof)
			ts, dcSide := wire.Pipe()
			tsConns = append(tsConns, ts)
			go func() {
				NewDC("dc-0", dcSide).Setup() // never configured; errors when its pipe closes
				dcSide.Close()
			}()

			_, err = tally.Run(context.Background(), tsConns, []string{"cp-0", "cp-1", "cp-rogue", "dc-0"})
			if err == nil || !strings.Contains(err.Error(), `CP "cp-rogue"`) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run returned %v, want an error naming CP \"cp-rogue\" and %q", err, tc.want)
			}
			for _, m := range tsConns {
				m.Close()
			}
			waitGoroutines(t, baseline)
		})
	}
}

// TestShuffleFramesCarryNoShadow is the tier-1 guard on the shuffle
// argument's wire cost: on a proved two-pass round no frame carries
// shadow ciphertexts. An opening frame holds an index and a scalar per
// element (34 B, against 66 B for a ciphertext), and everything the
// shuffle phase moves beyond the blocks themselves — commitments,
// openings, frame headers — stays within 40 B per element per proof
// round (166 B when every round shipped its shadow).
func TestShuffleFramesCarryNoShadow(t *testing.T) {
	cfg := Config{Round: 3, Bins: 1100, NoisePerCP: 8, ShuffleProofRounds: 2, NumDCs: 1, NumCPs: 2}
	const maxPerElem = 40

	var mu sync.Mutex
	var proofBytes, opened int
	record := func(kind string, payload []byte) {
		if !strings.HasPrefix(kind, "psc/shuffle-") {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		proofBytes += len(payload)
		switch kind {
		case kindShufBlock:
			var m BlockOutMsg
			if err := wire.DecodePayload(payload, &m); err != nil {
				t.Error(err)
			}
			proofBytes -= len(m.Data) // the shuffled block is the output, not the proof
		case kindShufShadow:
			var m BlockShadowMsg
			if err := wire.DecodePayload(payload, &m); err != nil {
				t.Error(err)
			}
			opened += m.Count
			if len(payload) > maxPerElem*m.Count {
				t.Errorf("opening %d/%d/%d is %d bytes for %d elements, over %d B per element",
					m.Pass, m.Block, m.Round, len(payload), m.Count, maxPerElem)
			}
		default:
			t.Errorf("unaccounted shuffle-phase frame kind %q", kind)
		}
	}
	runBenchRound(t, cfg, 20, recordingPair(func() (wire.Messenger, wire.Messenger) {
		ts, party := wire.Pipe()
		return ts, party
	}, record))

	// CP i mixes the table plus the noise of CPs 1..i, every pass opens
	// every element once per proof round.
	want := 0
	for i := 1; i <= cfg.NumCPs; i++ {
		want += (cfg.Bins + i*cfg.NoisePerCP) * shufflePasses * cfg.ShuffleProofRounds
	}
	if opened != want {
		t.Fatalf("openings covered %d elements, want %d: the proved shuffle path did not run as configured", opened, want)
	}
	per := float64(proofBytes) / float64(opened)
	t.Logf("shuffle argument: %.1f B per element per proof round", per)
	if per > maxPerElem {
		t.Fatalf("shuffle argument costs %.1f B per element per proof round, want <= %d", per, maxPerElem)
	}
}

// TestShareFramesCarryOneProof is the tier-1 guard on the decrypt
// phase's wire cost: on a verified round every psc/share-chunk frame is
// its shares (33 B each, compressed) plus a fixed overhead — header
// fields and the chunk's one 98-byte proof — never a proof per element
// (which read ≈ 131 B per element at this encoding).
func TestShareFramesCarryOneProof(t *testing.T) {
	cfg := Config{Round: 4, Bins: 1100, NoisePerCP: 6, ShuffleProofRounds: 1, NumDCs: 1, NumCPs: 2}
	const perElem, perFrame = 33, 136

	var mu sync.Mutex
	var frames, elems int
	record := func(kind string, payload []byte) {
		if kind != kindShare {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		var m ShareChunkMsg
		if err := wire.DecodePayload(payload, &m); err != nil {
			t.Error(err)
			return
		}
		frames++
		elems += m.Count
		if len(payload) > perElem*m.Count+perFrame {
			t.Errorf("share chunk at %d is %d bytes for %d shares, over %d B per share + %d B",
				m.Off, len(payload), m.Count, perElem, perFrame)
		}
	}
	runBenchRound(t, cfg, 20, recordingPair(func() (wire.Messenger, wire.Messenger) {
		ts, party := wire.Pipe()
		return ts, party
	}, record))

	finalN := cfg.Bins + cfg.NumCPs*cfg.NoisePerCP
	if want := cfg.NumCPs * finalN; elems != want {
		t.Fatalf("share chunks covered %d elements, want %d", elems, want)
	}
	if want := cfg.NumCPs * ((finalN + chunkElems - 1) / chunkElems); frames != want {
		t.Fatalf("%d share-chunk frames, want %d", frames, want)
	}
}

func BenchmarkRound256Bins(b *testing.B) {
	cfg := Config{Round: 1, Bins: 256, NoisePerCP: 16, ShuffleProofRounds: 2, NumDCs: 2, NumCPs: 2}
	for i := 0; i < b.N; i++ {
		tally, _ := NewTally(cfg)
		var tsConns []wire.Messenger
		var dcs []*DC
		var cpWG, setupWG sync.WaitGroup
		for j := 0; j < cfg.NumCPs; j++ {
			tsSide, cpSide := wire.Pipe()
			tsConns = append(tsConns, tsSide)
			cp := NewCP(fmt.Sprintf("cp-%d", j), cpSide, nil)
			cpWG.Add(1)
			go func() { defer cpWG.Done(); cp.Serve() }()
		}
		for j := 0; j < cfg.NumDCs; j++ {
			tsSide, dcSide := wire.Pipe()
			tsConns = append(tsConns, tsSide)
			dc := NewDC(fmt.Sprintf("dc-%d", j), dcSide)
			dcs = append(dcs, dc)
			setupWG.Add(1)
			go func() { defer setupWG.Done(); dc.Setup() }()
		}
		done := make(chan struct{})
		go func() {
			if _, err := tally.Run(context.Background(), tsConns, roundNames(cfg.NumCPs, cfg.NumDCs)); err != nil {
				b.Error(err)
			}
			close(done)
		}()
		setupWG.Wait()
		for k := 0; k < 50; k++ {
			dcs[k%2].Observe(fmt.Sprintf("item-%d", k))
		}
		for _, dc := range dcs {
			dc.Finish()
		}
		<-done
		cpWG.Wait()
	}
}

// dyingDC plays a DC that takes its configuration, announces a full
// table, uploads one chunk with every bin set, and then drops its
// connection mid-upload.
func dyingDC(conn wire.Messenger) {
	defer conn.Close()
	var cc ConfigureMsg
	if conn.Expect(kindConfig, &cc) != nil {
		return
	}
	joint, _, err := elgamal.ParsePoint(cc.JointKey)
	if err != nil {
		return
	}
	bits := make([]bool, chunkElems)
	for i := range bits {
		bits[i] = true
	}
	cts, _ := elgamal.BatchEncryptBits(joint, bits)
	conn.Send(kindTable, VectorHeader{Round: cc.Round, N: cc.Bins})
	conn.Send(kindChunk, ChunkMsg{Off: 0, Count: len(cts), Data: encodeVector(cts)})
}

// TestTolerantAbsentDCContributesNothing: a DC that dies after uploading part
// of its table must be declared absent with none of its chunks in the
// aggregate. Each table is buffered and merged only once complete, so
// the round's absent list is an exact coverage statement — here the
// dying DC marks 1024 bins in its aborted upload and the result must
// still count only the survivor's one item.
func TestTolerantAbsentDCContributesNothing(t *testing.T) {
	names := []string{"cp-0", "dc-good", "dc-dying"}
	recover, absent := recordAbsent(names)
	cfg := Config{
		Round: 7, Bins: 2048, NoisePerCP: 0, ShuffleProofRounds: 1,
		NumDCs: 2, NumCPs: 1, MinDCs: 1, Recover: recover,
	}
	tally, err := NewTally(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var tsConns []wire.Messenger

	// CP first: parties register positionally.
	tsSide0, cpSide := wire.Pipe()
	tsConns = append(tsConns, tsSide0)
	cp := NewCP("cp-0", cpSide, nil)
	go cp.Serve()

	// Surviving DC.
	tsSide1, goodSide := wire.Pipe()
	tsConns = append(tsConns, tsSide1)
	good := NewDC("dc-good", goodSide)

	tsSide2, dyingSide := wire.Pipe()
	tsConns = append(tsConns, tsSide2)
	dying := make(chan struct{})
	go func() {
		defer close(dying)
		dyingDC(dyingSide)
	}()

	resCh := make(chan Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := tally.Run(context.Background(), tsConns, names)
		if err != nil {
			errCh <- err
			return
		}
		resCh <- res
	}()

	if err := good.Setup(); err != nil {
		t.Fatalf("surviving dc setup: %v", err)
	}
	good.Observe("only-item")
	if err := good.Finish(); err != nil {
		t.Fatalf("surviving dc finish: %v", err)
	}
	<-dying
	select {
	case res := <-resCh:
		if got := absent(); !slices.Equal(got, []string{"dc-dying"}) {
			t.Fatalf("absent %v, want [dc-dying]", got)
		}
		if res.Reported != 1 {
			t.Fatalf("reported %d bins, want 1: the absent DC's partial upload leaked into the aggregate", res.Reported)
		}
	case err := <-errCh:
		t.Fatalf("tally: %v", err)
	}
}

// TestNilRecoverFailsRoundOnDCLoss: with no Recover callback there is
// no replacement and no absence, so a DC that drops its connection
// mid-table fails the round with an error naming it — even though the
// other DC uploads a whole table — and every party unwinds once the
// caller closes the round's connections.
func TestNilRecoverFailsRoundOnDCLoss(t *testing.T) {
	cfg := Config{Round: 8, Bins: 2048, ShuffleProofRounds: 1, NumDCs: 2, NumCPs: 1}
	tally, err := NewTally(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tsConns []wire.Messenger
	var wg sync.WaitGroup

	tsSide0, cpSide := wire.Pipe()
	tsConns = append(tsConns, tsSide0)
	cp := NewCP("cp-0", cpSide, nil)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cp.Serve() // errors when the round aborts; ignored
	}()

	tsSide1, goodSide := wire.Pipe()
	tsConns = append(tsConns, tsSide1)
	good := NewDC("dc-good", goodSide)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if good.Setup() != nil {
			return
		}
		good.Observe("only-item")
		good.Finish()
	}()

	tsSide2, dyingSide := wire.Pipe()
	tsConns = append(tsConns, tsSide2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		dyingDC(dyingSide)
	}()

	res, err := tally.Run(context.Background(), tsConns, []string{"cp-0", "dc-good", "dc-dying"})
	if err == nil {
		t.Fatalf("round completed without dc-dying's table: %+v", res)
	}
	if !strings.Contains(err.Error(), "dc-dying") {
		t.Fatalf("error %q does not name the lost DC", err)
	}
	if res != (Result{}) {
		t.Fatalf("failed round returned a result: %+v", res)
	}
	for _, m := range tsConns {
		m.Close()
	}
	wg.Wait()
}

// TestQuorumTable pins the tally's one degradation rule: a lost DC —
// one Recover did not replace, or any failed DC without a Recover — is
// absent while the absentees leave at least the quorum floor (MinDCs,
// or every DC at 0), and the loss that breaks the floor fails the round
// at once, naming that DC. Failing DCs hang up unconfigured; the DCs
// run concurrently, so a round that fails on its second loss may name
// either failing DC. The absentees are read from the Recover callback's
// nil returns, as the engine records them; a nil Recover records none,
// so its rows check only the verdict.
func TestQuorumTable(t *testing.T) {
	for _, tc := range []struct {
		name           string
		numDCs, minDCs int
		fail           []int // DC positions that hang up unconfigured
		recovers       bool  // a Recover that declares every lost DC absent; false: none
		fails          bool  // the round must fail at one of the failing DCs
		wantAbsent     []string
	}{
		{"all-required-nil-recover", 2, 0, []int{1}, false, true, nil},
		{"all-required-absent", 2, 0, []int{1}, true, true, nil},
		{"floor-equals-fleet-absent", 2, 2, []int{0}, true, true, nil},
		{"1-of-2-nil-recover", 2, 1, []int{1}, false, false, nil},
		{"1-of-3-absent", 3, 1, []int{0, 2}, true, false, []string{"dc-0", "dc-2"}},
		{"2-of-3-second-loss-fails", 3, 2, []int{0, 2}, true, true, nil},
		{"2-of-3-full-strength", 3, 2, nil, true, false, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			names := roundNames(1, tc.numDCs)
			recover, absent := recordAbsent(names)
			if !tc.recovers {
				recover = nil
			}
			tally, err := NewTally(Config{
				Round: 12, Bins: 64, ShuffleProofRounds: 1, NumCPs: 1,
				NumDCs: tc.numDCs, MinDCs: tc.minDCs, Recover: recover,
			})
			if err != nil {
				t.Fatal(err)
			}
			tsConns := make([]wire.Messenger, 1+tc.numDCs)
			conns := make([]*wire.Conn, len(tsConns))
			for i := range tsConns {
				tsConns[i], conns[i] = wire.Pipe()
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				NewCP("cp-0", conns[0], nil).Serve() // errors when a failed round hangs up; ignored
			}()
			failing := map[int]bool{}
			var failNames []string
			for _, di := range tc.fail {
				failing[di] = true
				failNames = append(failNames, fmt.Sprintf("dc-%d", di))
			}
			for di := 0; di < tc.numDCs; di++ {
				c := conns[1+di]
				wg.Add(1)
				go func() {
					defer wg.Done()
					if failing[di] {
						c.Close()
						return
					}
					dc := NewDC(names[1+di], c)
					if dc.Setup() != nil {
						return
					}
					dc.Observe("item") // every DC sees the same one item
					dc.Finish()
				}()
			}
			res, err := tally.Run(context.Background(), tsConns, names)
			for _, m := range tsConns {
				m.Close()
			}
			wg.Wait()

			if tc.fails {
				if err == nil {
					t.Fatalf("round completed: %+v", res)
				}
				for _, name := range failNames {
					if strings.Contains(err.Error(), "quorum lost at DC "+name) {
						return
					}
				}
				t.Fatalf("got %v, want the round failed at one of %v", err, failNames)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := absent(); !slices.Equal(got, tc.wantAbsent) {
				t.Fatalf("absent %v, want %v", got, tc.wantAbsent)
			}
			if res.Reported != 1 {
				t.Fatalf("reported %d bins, want the one item", res.Reported)
			}
		})
	}
}

// TestRunCancelledContextFailsRound runs a round over bare pipes whose
// DCs configure and then never upload: Run sits in the gather, every
// party goroutine blocked on a pipe nobody will close. Cancelling the
// caller's context must by itself make Run return that cancellation's
// cause — no connection is closed first — and once the test does close
// the pipes, every goroutine the round started must be gone.
func TestRunCancelledContextFailsRound(t *testing.T) {
	baseline := goroutineBaseline()
	cfg := Config{Round: 31, Bins: 32, NoisePerCP: 2, ShuffleProofRounds: 2, NumDCs: 2, NumCPs: 2}
	tally, err := NewTally(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tsConns []wire.Messenger
	var setupWG sync.WaitGroup
	for i := 0; i < cfg.NumCPs; i++ {
		tsSide, cpSide := wire.Pipe()
		tsConns = append(tsConns, tsSide)
		go NewCP(fmt.Sprintf("cp-%d", i), cpSide, nil).Serve() // errors when its pipe closes; ignored
	}
	for i := 0; i < cfg.NumDCs; i++ {
		tsSide, dcSide := wire.Pipe()
		tsConns = append(tsConns, tsSide)
		dc := NewDC(fmt.Sprintf("dc-%d", i), dcSide)
		setupWG.Add(1)
		go func() {
			defer setupWG.Done()
			if err := dc.Setup(); err != nil {
				t.Errorf("dc setup: %v", err)
			}
		}()
	}

	ctx, cancel := context.WithCancelCause(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := tally.Run(ctx, tsConns, roundNames(cfg.NumCPs, cfg.NumDCs))
		errCh <- err
	}()
	setupWG.Wait() // every DC is configured; Run now waits for tables that never come

	cause := errors.New("operator gave up on the round")
	cancel(cause)
	select {
	case err := <-errCh:
		if !errors.Is(err, cause) {
			t.Fatalf("Run returned %v, want the cancellation cause %q", err, cause)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run still blocked 30 s after its context was cancelled")
	}

	for _, m := range tsConns {
		m.Close()
	}
	waitGoroutines(t, baseline)
}

// TestCPRejectsHostileConfigure plays a TS that sends a CP round
// parameters Config.Validate would never let a real tally hold. The
// configure and mix frames are outside input to the CP daemon, so each
// must end that round's ServeRound with an error — not size an
// allocation or a grid, which used to panic the whole process.
func TestCPRejectsHostileConfigure(t *testing.T) {
	joint := elgamal.GenerateKey().PK.Bytes()
	cases := []struct {
		name string
		cfg  ConfigureMsg
		mixN int
	}{
		{"negative noise", ConfigureMsg{NoisePerCP: -1, ShuffleProofRounds: 1}, 8},
		{"zero-length mix", ConfigureMsg{ShuffleProofRounds: 1}, 0},
		{"zero rounds", ConfigureMsg{NoisePerCP: 2}, 8},
		{"129 rounds", ConfigureMsg{NoisePerCP: 2, ShuffleProofRounds: 129}, 8},
		{"column overflow", ConfigureMsg{ShuffleProofRounds: 1}, maxBlockElems*shuffleBlock + 1},
		{"unbounded noise", ConfigureMsg{NoisePerCP: 1 << 40, ShuffleProofRounds: 1}, 8},
		{"identity joint key", ConfigureMsg{NoisePerCP: 2, ShuffleProofRounds: 1, JointKey: elgamal.Identity().Bytes()}, 8},
		{"trailing bytes", ConfigureMsg{NoisePerCP: 2, ShuffleProofRounds: 1, JointKey: append(bytes.Clone(joint), 0xFF)}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tsSide, cpSide := wire.Pipe()
			defer tsSide.Close()
			errCh := make(chan error, 1)
			go func() {
				err := NewCP("cp", nil, nil).ServeRound(cpSide)
				cpSide.Close() // a CP that refused the configure reads no mix frame
				errCh <- err
			}()

			var reg RegisterMsg
			if err := tsSide.Expect(kindRegister, &reg); err != nil {
				t.Fatal(err)
			}
			if tc.cfg.JointKey == nil {
				tc.cfg.JointKey = joint
			}
			if err := tsSide.Send(kindConfig, tc.cfg); err != nil {
				t.Fatal(err)
			}
			tsSide.Send(kindMix, VectorHeader{N: tc.mixN})
			select {
			case err := <-errCh:
				if err == nil {
					t.Fatal("CP served a hostile configure to completion")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("CP still serving 10 s after a hostile configure")
			}
		})
	}
}

// TestDCRejectsHostileConfigure plays a TS that sends a DC a configure
// frame no valid round produces. The frame is outside input to the
// datacollector daemon, so Setup must refuse it with an error: a table
// sized from it unchecked panicked the whole process, and an identity
// joint key would have encrypted the table in the clear.
func TestDCRejectsHostileConfigure(t *testing.T) {
	joint := elgamal.GenerateKey().PK.Bytes()
	key := []byte("round hash key")
	cases := []struct {
		name string
		cfg  ConfigureMsg
	}{
		{"zero bins", ConfigureMsg{Bins: 0, HashKey: key, JointKey: joint}},
		{"2^50 bins", ConfigureMsg{Bins: 1 << 50, HashKey: key, JointKey: joint}},
		{"one bin over budget", ConfigureMsg{Bins: maxBlockElems*shuffleBlock + 1, HashKey: key, JointKey: joint}},
		{"identity joint key", ConfigureMsg{Bins: 8, HashKey: key, JointKey: elgamal.Identity().Bytes()}},
		{"trailing bytes", ConfigureMsg{Bins: 8, HashKey: key, JointKey: append(bytes.Clone(joint), 0xFF)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tsSide, dcSide := wire.Pipe()
			defer tsSide.Close()
			errCh := make(chan error, 1)
			go func() { errCh <- NewDC("dc", dcSide).Setup() }()
			if err := tsSide.Send(kindConfig, tc.cfg); err != nil {
				t.Fatal(err)
			}
			if err := <-errCh; err == nil {
				t.Fatal("DC accepted a hostile configure")
			}
		})
	}
}

// roundNames names a round's parties as the engine's pinned hellos
// would, in Run's positional order: "cp-0".. then "dc-0"...
func roundNames(numCPs, numDCs int) []string {
	var names []string
	for i := 0; i < numCPs; i++ {
		names = append(names, fmt.Sprintf("cp-%d", i))
	}
	for i := 0; i < numDCs; i++ {
		names = append(names, fmt.Sprintf("dc-%d", i))
	}
	return names
}

// recordAbsent returns a Recover that declares every lost DC absent and
// a function listing, sorted, the names of the DCs it was called for:
// the list the engine's Round.Absent keeps for the same round.
func recordAbsent(names []string) (recover func(int, bool) wire.Messenger, absent func() []string) {
	var mu sync.Mutex
	var lost []string
	recover = func(i int, _ bool) wire.Messenger {
		mu.Lock()
		defer mu.Unlock()
		lost = append(lost, names[i])
		return nil
	}
	absent = func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Sorted(slices.Values(lost))
	}
	return recover, absent
}
