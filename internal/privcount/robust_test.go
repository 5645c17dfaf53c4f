package privcount

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/spill"
	"repro/internal/wire"
)

// Failure-injection tests: the tally server must reject malformed or
// misbehaving parties with a clear error instead of producing a bogus
// aggregate.

// tallyWith runs a tally over pipes and hands the party ends to
// parties, in Run's positional order: SKs first, then DCs. It returns
// Run's error after closing every connection, so party goroutines the
// test left running unwind.
func tallyWith(t *testing.T, cfg TallyConfig, parties func(conns []*wire.Conn)) error {
	t.Helper()
	tally, err := NewTally(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tsConns := make([]wire.Messenger, cfg.NumDCs+cfg.NumSKs)
	partyConns := make([]*wire.Conn, len(tsConns))
	for i := range tsConns {
		tsConns[i], partyConns[i] = wire.Pipe()
	}
	done := make(chan error, 1)
	go func() {
		_, err := tally.Run(context.Background(), tsConns, roundNames(cfg.NumSKs, cfg.NumDCs))
		done <- err
	}()
	parties(partyConns)
	err = <-done
	for _, c := range tsConns {
		c.Close()
	}
	return err
}

// serveSK runs a real share keeper on c; it errors out when the round
// aborts, which the rejection tests ignore.
func serveSK(c *wire.Conn) {
	sk, _ := NewSK("sk", c)
	go sk.Serve()
}

// shareAs plays a DC's setup by hand: take the configuration and send
// one valid sealed seed per SK. It returns the slot count the round was
// configured for, or false if the tally hung up first.
func shareAs(c *wire.Conn) (slots int, ok bool) {
	var cfg ConfigureMsg
	if c.Expect(kindConfigure, &cfg) != nil {
		return 0, false
	}
	schema, _ := newSchema(cfg.Shapes)
	boxes := map[string][]byte{}
	for _, skName := range cfg.SKNames {
		box, _ := Seal(cfg.SKKeys[skName], newSeed())
		boxes[skName] = box
	}
	c.Send(kindShares, SharesMsg{N: schema.Size(), Boxes: boxes})
	return schema.Size(), true
}

var oneStat = []StatConfig{{Name: "s", Bins: []string{""}, Sigma: 0}}

func TestTallyRejectsSKWithoutKey(t *testing.T) {
	err := tallyWith(t, TallyConfig{Round: 1, Stats: oneStat, NumDCs: 1, NumSKs: 1},
		func(conns []*wire.Conn) {
			conns[0].Send(kindRegister, RegisterMsg{})
		})
	if err == nil || !strings.Contains(err.Error(), "seal key") {
		t.Fatalf("want missing-seal-key error, got %v", err)
	}
}

func TestTallyRejectsWrongRoundReport(t *testing.T) {
	err := tallyWith(t, TallyConfig{Round: 5, Stats: oneStat, NumDCs: 1, NumSKs: 1},
		func(conns []*wire.Conn) {
			serveSK(conns[0])
			// A DC that reports the wrong round.
			c := conns[1]
			slots, ok := shareAs(c)
			if !ok {
				return
			}
			var begin BeginMsg
			c.Expect(kindBegin, &begin)
			c.Send(kindReport, ReportMsg{Round: 99, N: slots})
		})
	if err == nil || !strings.Contains(err.Error(), "round") {
		t.Fatalf("want round-mismatch error, got %v", err)
	}
}

func TestTallyRejectsMissingBox(t *testing.T) {
	err := tallyWith(t, TallyConfig{Round: 1, Stats: oneStat, NumDCs: 1, NumSKs: 1},
		func(conns []*wire.Conn) {
			serveSK(conns[0])
			c := conns[1]
			var cfg ConfigureMsg
			if c.Expect(kindConfigure, &cfg) != nil {
				return
			}
			// Claim shares but include no boxes.
			schema, _ := newSchema(cfg.Shapes)
			c.Send(kindShares, SharesMsg{N: schema.Size(), Boxes: map[string][]byte{}})
		})
	if err == nil || !strings.Contains(err.Error(), "boxes") {
		t.Fatalf("want missing-boxes error, got %v", err)
	}
}

// TestNilRecoverFailsRoundOnDCLoss: with no Recover callback there is
// no replacement and no absence, so a DC that drops its connection
// mid-report fails the round with an error naming it — even though the
// other DC reports in full — and no result is returned.
func TestNilRecoverFailsRoundOnDCLoss(t *testing.T) {
	stats := []StatConfig{{Name: "s", Bins: make([]string, ChunkSlots+8), Sigma: 0}}
	tally, err := NewTally(TallyConfig{Round: 3, Stats: stats, NumDCs: 2, NumSKs: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsConns := make([]wire.Messenger, 3)
	conns := make([]*wire.Conn, 3)
	for i := range tsConns {
		tsConns[i], conns[i] = wire.Pipe()
	}
	sk, _ := NewSK("sk", conns[0])
	good := NewDC("dc-good", conns[1], nil)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		sk.Serve() // errors when the round aborts; ignored
	}()
	go func() {
		defer wg.Done()
		if good.Setup() != nil {
			return
		}
		good.Increment("s", 0, 1)
		good.Finish()
	}()
	go func() {
		// The dying DC announces a two-chunk report, sends the first
		// chunk, and hangs up.
		defer wg.Done()
		c := conns[2]
		defer c.Close()
		slots, ok := shareAs(c)
		if !ok {
			return
		}
		var begin BeginMsg
		if c.Expect(kindBegin, &begin) != nil {
			return
		}
		c.Send(kindReport, ReportMsg{Round: 3, N: slots})
		c.Send(kindChunk, ValueChunkMsg{Off: 0, Raw: make([]byte, 8*ChunkSlots)})
	}()

	res, err := tally.Run(context.Background(), tsConns, []string{"sk", "dc-good", "dc-dying"})
	if err == nil || !strings.Contains(err.Error(), "dc-dying") {
		t.Fatalf("want an error naming the lost DC, got %v", err)
	}
	if res != nil {
		t.Fatalf("failed round returned a result: %v", res)
	}
	for _, c := range tsConns {
		c.Close()
	}
	wg.Wait()
}

// TestFailedCollectClosesEveryReport: a round that fails while reports
// are in flight still owns every report it buffered. Here dc-dying
// fails the round (no Recover) before dc-good reports, so Run never
// takes dc-good's whole report and the goroutine that buffered it must
// close it.
func TestFailedCollectClosesEveryReport(t *testing.T) {
	dir := t.TempDir()
	spill.SetDir(dir)
	defer spill.SetDir("")

	tally, err := NewTally(TallyConfig{Round: 4, Stats: oneStat, NumDCs: 2, NumSKs: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsConns := make([]wire.Messenger, 3)
	conns := make([]*wire.Conn, 3)
	for i := range tsConns {
		tsConns[i], conns[i] = wire.Pipe()
	}
	sk, _ := NewSK("sk", conns[0])
	good := NewDC("dc-good", conns[1], nil)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sk.Serve() // errors when the round aborts; ignored
	}()
	go func() {
		// The dying DC announces its report and hangs up.
		defer wg.Done()
		c := conns[2]
		defer c.Close()
		slots, ok := shareAs(c)
		if !ok {
			return
		}
		var begin BeginMsg
		if c.Expect(kindBegin, &begin) != nil {
			return
		}
		c.Send(kindReport, ReportMsg{Round: 4, N: slots})
	}()
	errCh := make(chan error, 1)
	go func() {
		_, err := tally.Run(context.Background(), tsConns, []string{"sk", "dc-good", "dc-dying"})
		errCh <- err
	}()

	if err := good.Setup(); err != nil {
		t.Fatalf("dc-good setup: %v", err)
	}
	if err := <-errCh; err == nil || !strings.Contains(err.Error(), "dc-dying") {
		t.Fatalf("want the round to fail on dc-dying, got %v", err)
	}
	// The pipe is synchronous: once Finish returns, the tally has read
	// the whole report into a spill buffer nobody will take.
	if err := good.Finish(); err != nil {
		t.Fatalf("dc-good finish: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); openSpills(t, dir) > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d report buffers still open under %s", openSpills(t, dir), dir)
		}
	}
	for _, c := range tsConns {
		c.Close()
	}
	wg.Wait()
}

// TestQuorumTable pins the tally's one degradation rule: a lost DC —
// one Recover did not replace, or any failed DC without a Recover — is
// absent while the absentees leave at least the quorum floor (MinDCs,
// or every DC at 0), and the loss that breaks the floor fails the round
// at once, naming that DC. Failing DCs hang up unconfigured; DC setup
// is sequential, so the order of losses is the slice order. The
// absentees are read from the Recover callback's nil returns, as the
// engine records them; a nil Recover records none, so its rows check
// only the verdict.
func TestQuorumTable(t *testing.T) {
	for _, tc := range []struct {
		name           string
		numDCs, minDCs int
		fail           []int  // DC positions that hang up unconfigured
		recovers       bool   // a Recover that declares every lost DC absent; false: none
		wantErr        string // the DC a failed round names; "" for a completed round
		wantAbsent     []string
	}{
		{"all-required-nil-recover", 2, 0, []int{1}, false, "dc-1", nil},
		{"all-required-absent", 2, 0, []int{1}, true, "dc-1", nil},
		{"floor-equals-fleet-absent", 2, 2, []int{0}, true, "dc-0", nil},
		{"1-of-2-nil-recover", 2, 1, []int{1}, false, "", nil},
		{"1-of-3-absent", 3, 1, []int{0, 2}, true, "", []string{"dc-0", "dc-2"}},
		{"2-of-3-second-loss-fails", 3, 2, []int{0, 2}, true, "dc-2", nil},
		{"2-of-3-full-strength", 3, 2, nil, true, "", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			names := []string{"sk"}
			for di := 0; di < tc.numDCs; di++ {
				names = append(names, fmt.Sprintf("dc-%d", di))
			}
			var absent []string // Run calls Recover from its own goroutine only
			recover := func(i int, _ bool) wire.Messenger {
				absent = append(absent, names[i])
				return nil
			}
			if !tc.recovers {
				recover = nil
			}
			tally, err := NewTally(TallyConfig{
				Round: 1, Stats: oneStat, NumDCs: tc.numDCs, NumSKs: 1,
				MinDCs: tc.minDCs, Recover: recover,
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
			sk, _ := NewSK("sk", conns[0])
			wg.Add(1)
			go func() {
				defer wg.Done()
				sk.Serve() // errors when a failed round hangs up; ignored
			}()
			failing := map[int]bool{}
			for _, di := range tc.fail {
				failing[di] = true
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
					dc := NewDC(names[1+di], c, nil)
					if dc.Setup() != nil {
						return
					}
					dc.Increment("s", 0, 1)
					dc.Finish()
				}()
			}
			res, err := tally.Run(context.Background(), tsConns, names)
			for _, c := range tsConns {
				c.Close()
			}
			wg.Wait()

			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), "quorum lost at DC "+tc.wantErr) {
					t.Fatalf("got %v, want the round failed at %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if slices.Sort(absent); !slices.Equal(absent, tc.wantAbsent) {
				t.Fatalf("absent %v, want %v", absent, tc.wantAbsent)
			}
			if want := float64(tc.numDCs - len(tc.fail)); res["s"][0] != want {
				t.Fatalf("aggregate %v, want one count from each of the %v reporting DCs", res["s"][0], want)
			}
		})
	}
}

// TestRunCancelledContextFailsRound begins every DC and has none
// finish its report: dc-0 sends nothing, dc-1 the first chunk of two,
// so one report buffer is open when the round is cancelled. Cancelling
// the caller's context must by itself make Run return the
// cancellation's cause — no connection is closed first — and once the
// test closes the pipes, every goroutine the round started must be gone
// and no report buffer left open.
func TestRunCancelledContextFailsRound(t *testing.T) {
	dir := t.TempDir()
	spill.SetDir(dir)
	defer spill.SetDir("")
	baseline := runtime.NumGoroutine()

	stats := []StatConfig{{Name: "s", Bins: make([]string, ChunkSlots+8), Sigma: 0}}
	tally, err := NewTally(TallyConfig{Round: 6, Stats: stats, NumDCs: 2, NumSKs: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsConns := make([]wire.Messenger, 3)
	conns := make([]*wire.Conn, 3)
	for i := range tsConns {
		tsConns[i], conns[i] = wire.Pipe()
	}
	sk, _ := NewSK("sk", conns[0])
	go sk.Serve() // errors when its pipe closes; ignored
	go NewDC("dc-0", conns[1], nil).Setup()
	go func() {
		c := conns[2]
		slots, ok := shareAs(c)
		if !ok {
			return
		}
		var begin BeginMsg
		if c.Expect(kindBegin, &begin) != nil {
			return
		}
		c.Send(kindReport, ReportMsg{Round: 6, N: slots})
		c.Send(kindChunk, ValueChunkMsg{Off: 0, Raw: make([]byte, 8*ChunkSlots)})
	}()

	ctx, cancel := context.WithCancelCause(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := tally.Run(ctx, tsConns, []string{"sk", "dc-0", "dc-1"})
		errCh <- err
	}()
	for deadline := time.Now().Add(30 * time.Second); openSpills(t, dir) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("dc-1's report buffer never opened")
		}
	}

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

	for _, c := range tsConns {
		c.Close()
	}
	for deadline := time.Now().Add(30 * time.Second); runtime.NumGoroutine() > baseline || openSpills(t, dir) > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines (%d before the round), %d report buffers open:\n%s",
				runtime.NumGoroutine(), baseline, openSpills(t, dir), buf[:runtime.Stack(buf, true)])
		}
	}
}

// openSpills counts this process's open files under dir — the spill
// stores still open there, since a store's file is unlinked but held
// until Close. It skips the test where /proc/self/fd is unavailable.
func openSpills(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open files: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// TestSKRefusesCollectWithoutDCList: the collect DC list is never
// implicit. A TS that relays a single DC's seed and then collects with
// no list (nil and empty are the same frame) must be refused like any
// other list below the quorum floor, and no sums frame may follow —
// otherwise it receives that one DC's negated blinding and can unblind
// its report alone.
func TestSKRefusesCollectWithoutDCList(t *testing.T) {
	for _, dcs := range [][]string{nil, {}} {
		tsSide, pub, done := skHarness(t, ConfigureMsg{Round: 1, Slots: 1, NumDCs: 2})
		box, _ := Seal(pub, newSeed())
		tsSide.Send(kindRelay, RelayMsg{From: "dc-0", N: 1, Box: box})
		tsSide.Send(kindCollect, CollectMsg{Round: 1, DCs: dcs})
		answered := make(chan error, 1)
		go func() {
			var sums SumsMsg
			answered <- tsSide.Expect(kindSums, &sums)
		}()
		select {
		case err := <-answered:
			t.Fatalf("collect with DC list %#v was answered (sums frame error: %v)", dcs, err)
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "quorum floor") {
				t.Fatalf("collect with DC list %#v: want quorum-floor refusal, got %v", dcs, err)
			}
		}
		tsSide.Close()
	}
}

// TestSKRefusesCollectBelowQuorumFloor: a TS naming fewer DCs in its
// collect request than the quorum floor it declared at configure time
// must be refused — otherwise it could isolate one DC's counters with
// only that DC's fraction of the calibrated noise.
func TestSKRefusesCollectBelowQuorumFloor(t *testing.T) {
	tsSide, pub, done := skHarness(t, ConfigureMsg{Round: 1, Slots: 1, NumDCs: 2, MinDCs: 2})
	for _, dc := range []string{"dc-0", "dc-1"} {
		box, _ := Seal(pub, newSeed())
		tsSide.Send(kindRelay, RelayMsg{From: dc, N: 1, Box: box})
	}
	tsSide.Send(kindCollect, CollectMsg{Round: 1, DCs: []string{"dc-0"}})
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "quorum floor") {
		t.Fatalf("want quorum-floor refusal, got %v", err)
	}
}

// skHarness starts an SK on a pipe, takes its registration, and
// configures it; the test then plays the tally server by hand.
func skHarness(t *testing.T, cfg ConfigureMsg) (ts *wire.Conn, sealPub []byte, done <-chan error) {
	t.Helper()
	tsSide, skSide := wire.Pipe()
	sk, err := NewSK("sk", skSide)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- sk.Serve() }()
	var reg RegisterMsg
	if err := tsSide.Expect(kindRegister, &reg); err != nil {
		t.Fatal(err)
	}
	tsSide.Send(kindConfigure, cfg)
	return tsSide, reg.SealPub, errCh
}

// TestSKRejectsShortShareVector: a relayed seed announcing a
// wrong-length share vector must be caught by the SK.
func TestSKRejectsShortShareVector(t *testing.T) {
	tsSide, pub, done := skHarness(t, ConfigureMsg{Round: 1, Slots: 3, NumDCs: 1})
	// The round has 3 slots; the DC's seed claims to expand to 1.
	box, _ := Seal(pub, newSeed())
	tsSide.Send(kindRelay, RelayMsg{From: "dc", N: 1, Box: box})
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "slots") {
		t.Fatalf("want share-length error, got %v", err)
	}
}

// TestSKRejectsBadSeedLength: a box that opens to anything but a
// seedSize-byte seed must be refused, not truncated or padded into a
// key.
func TestSKRejectsBadSeedLength(t *testing.T) {
	for _, n := range []int{0, 16, seedSize - 1, seedSize + 1, 64} {
		tsSide, pub, done := skHarness(t, ConfigureMsg{Round: 1, Slots: 1, NumDCs: 1})
		box, _ := Seal(pub, make([]byte, n))
		tsSide.Send(kindRelay, RelayMsg{From: "dc", N: 1, Box: box})
		err := <-done
		if err == nil || !strings.Contains(err.Error(), "seed") {
			t.Fatalf("%d-byte seed: want seed-length error, got %v", n, err)
		}
	}
}

// TestSKRejectsBadSlotCount: the SK allocates what its configuration
// names, so a non-positive or absurd slot count is refused up front.
func TestSKRejectsBadSlotCount(t *testing.T) {
	for _, n := range []int{0, -1, maxSlots + 1} {
		_, _, done := skHarness(t, ConfigureMsg{Round: 1, Slots: n, NumDCs: 1})
		err := <-done
		if err == nil || !strings.Contains(err.Error(), "slots") {
			t.Fatalf("%d slots: want slot-count error, got %v", n, err)
		}
	}
}

// TestSKRefusesRepeatedCollectName: a collect list cannot reach the
// quorum floor by naming one DC twice — which would also hand the TS
// twice that DC's blinding, i.e. the blinding itself.
func TestSKRefusesRepeatedCollectName(t *testing.T) {
	tsSide, pub, done := skHarness(t, ConfigureMsg{Round: 1, Slots: 1, NumDCs: 2, MinDCs: 2})
	for _, dc := range []string{"dc-0", "dc-1"} {
		box, _ := Seal(pub, newSeed())
		tsSide.Send(kindRelay, RelayMsg{From: dc, N: 1, Box: box})
	}
	tsSide.Send(kindCollect, CollectMsg{Round: 1, DCs: []string{"dc-0", "dc-0"}})
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "shared no seed") {
		t.Fatalf("want refusal of the repeated name, got %v", err)
	}
}

// TestSKSeedReplacedOnDCRestart: a second box from one DC replaces the
// first — the restarted DC blinded with the second seed only — and the
// SK's answer cancels exactly that blinding.
func TestSKSeedReplacedOnDCRestart(t *testing.T) {
	const slots = ChunkSlots + 5
	tsSide, pub, done := skHarness(t, ConfigureMsg{Round: 1, Slots: slots, NumDCs: 1})
	stale, fresh := newSeed(), newSeed()
	want := expandAll(t, fresh, slots)
	for _, seed := range [][]byte{stale, fresh} {
		box, _ := Seal(pub, seed)
		tsSide.Send(kindRelay, RelayMsg{From: "dc", N: slots, Box: box})
	}
	tsSide.Send(kindCollect, CollectMsg{Round: 1, DCs: []string{"dc"}})
	var sums SumsMsg
	if err := tsSide.Expect(kindSums, &sums); err != nil {
		t.Fatal(err)
	}
	got, err := recvAll(tsSide, sums.N)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i]+want[i] != 0 {
			t.Fatalf("slot %d: SK sum %#x does not cancel the restarted DC's share %#x", i, got[i], want[i])
		}
	}
}

// TestTolerantNoiseWeightProvisionsQuorumFloor: the tally must hand
// every DC 1/MinDCs of the noise responsibility, not
// 1/NumDCs — an absent DC's noise share travels in its never-sent
// report, so quorum-floor weights are what keep a round degraded to
// MinDCs reporting DCs at (or above) the calibrated Gaussian sigma.
func TestTolerantNoiseWeightProvisionsQuorumFloor(t *testing.T) {
	recover := func(int, bool) wire.Messenger { return nil }
	for _, tc := range []struct {
		numDCs, minDCs int
		want           float64
	}{
		{4, 2, 0.5},     // k-of-n quorum: provision at the floor
		{4, 0, 0.25},    // no floor set: all DCs required, equal shares
		{3, 3, 1.0 / 3}, // floor equals the fleet: equal shares
		{2, 1, 1.0},     // dcs=1 quorum: every DC carries full sigma
	} {
		tally, err := NewTally(TallyConfig{
			Round: 1, Stats: oneStat, NumDCs: tc.numDCs, NumSKs: 1,
			MinDCs: tc.minDCs, Recover: recover,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := tally.weightFor(); got != tc.want {
			t.Errorf("weightFor with %d DCs, quorum floor %d = %v, want %v",
				tc.numDCs, tc.minDCs, got, tc.want)
		}
	}
}
