package psc

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/spill"
	"repro/internal/wire"
)

// TestGatherSpillReadErrorAbortsRound injures the combined gather
// table just before the mix feeder starts re-streaming it, so the
// feeder's first read fails. The round must abort with the spill error
// — the cause the round context is cancelled with, so every stage unwinds — rather
// than wedge the pipeline on a silently closed feed.
func TestGatherSpillReadErrorAbortsRound(t *testing.T) {
	gatherFeedTestHook = func(sum *ctSpill) {
		// Close the backing store out from under the feeder: every
		// subsequent readRange returns an error, the mid-re-stream
		// read-failure shape (ENOSPC, a reaped tmpfile, a bad disk).
		sum.Close()
	}
	defer func() { gatherFeedTestHook = nil }()

	cfg := Config{Round: 21, Bins: 32, NoisePerCP: 2, ShuffleProofRounds: 2, NumDCs: 1, NumCPs: 2}
	tally, err := NewTally(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tsConns []wire.Messenger
	for i := 0; i < cfg.NumCPs; i++ {
		tsSide, cpSide := wire.Pipe()
		tsConns = append(tsConns, tsSide)
		cp := NewCP(fmt.Sprintf("cp-%d", i), cpSide, nil)
		go cp.Serve() // errors when the round aborts; ignored
	}
	tsSide, dcSide := wire.Pipe()
	tsConns = append(tsConns, tsSide)
	dc := NewDC("dc-0", dcSide)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := dc.Setup(); err != nil {
			return
		}
		dc.Observe("doomed")
		dc.Finish()
	}()

	_, err = tally.Run(context.Background(), tsConns, roundNames(cfg.NumCPs, cfg.NumDCs))
	if err == nil {
		t.Fatal("round must fail when the gather spill dies mid-re-stream")
	}
	if !strings.Contains(err.Error(), "gather spill") {
		t.Fatalf("error %q does not name the gather spill", err)
	}
	for _, m := range tsConns {
		m.Close()
	}
	wg.Wait()
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

// waitSpillsClosed fails the test unless every spill store under dir is
// closed within 10 s.
func waitSpillsClosed(t *testing.T, dir string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); openSpills(t, dir) > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d spill stores still open under %s", openSpills(t, dir), dir)
		}
	}
}

// TestFailedGatherClosesEveryTable: a round that fails in the gather
// still owns every DC table it buffered. Here dc-dying fails the round
// (no Recover) before dc-good uploads, so the gather loop never takes
// dc-good's whole table and the goroutine that buffered it must close
// it; a table the loop did take is closed by the loop's failure path.
func TestFailedGatherClosesEveryTable(t *testing.T) {
	dir := t.TempDir()
	spill.SetDir(dir)
	defer spill.SetDir("")

	cfg := Config{Round: 24, Bins: 2048, ShuffleProofRounds: 1, NumDCs: 2, NumCPs: 1}
	tally, err := NewTally(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tsConns []wire.Messenger
	var wg sync.WaitGroup
	tsSide, cpSide := wire.Pipe()
	tsConns = append(tsConns, tsSide)
	wg.Add(1)
	go func() {
		defer wg.Done()
		NewCP("cp-0", cpSide, nil).Serve() // errors when the round aborts; ignored
	}()
	tsSide, goodSide := wire.Pipe()
	tsConns = append(tsConns, tsSide)
	good := NewDC("dc-good", goodSide)
	tsSide, dyingSide := wire.Pipe()
	tsConns = append(tsConns, tsSide)
	wg.Add(1)
	go func() {
		defer wg.Done()
		dyingDC(dyingSide)
	}()
	errCh := make(chan error, 1)
	go func() {
		_, err := tally.Run(context.Background(), tsConns, []string{"cp-0", "dc-good", "dc-dying"})
		errCh <- err
	}()

	if err := good.Setup(); err != nil {
		t.Fatalf("dc-good setup: %v", err)
	}
	if err := <-errCh; err == nil || !strings.Contains(err.Error(), "dc-dying") {
		t.Fatalf("want the round to fail on dc-dying, got %v", err)
	}
	// The pipe is synchronous: once Finish returns, the tally has read
	// the whole table into a spill buffer nobody will take.
	good.Observe("late-item")
	if err := good.Finish(); err != nil {
		t.Fatalf("dc-good finish: %v", err)
	}
	waitSpillsClosed(t, dir)
	for _, m := range tsConns {
		m.Close()
	}
	wg.Wait()
}

// TestFailedMixClosesIntermediate: on a two-pass vector the TS spills
// each CP's verified row-pass output as that CP's column-pass input, and
// the CP spills its own. Here cp-b's first column-pass block is tampered
// on the wire, so the round fails naming cp-b while both spills are
// open, and every store must still be closed once the round unwinds.
func TestFailedMixClosesIntermediate(t *testing.T) {
	dir := t.TempDir()
	spill.SetDir(dir)
	defer spill.SetDir("")
	// A store nobody closed is still closed by its file's finalizer once
	// a collection runs; with the collector off only Close releases it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// 1104 mixed elements at cp-b: two row blocks, then two column groups.
	cfg := Config{Round: 25, Bins: 1100, NoisePerCP: 2, ShuffleProofRounds: 2, NumDCs: 1, NumCPs: 2}
	tally, err := NewTally(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tsConns []wire.Messenger
	var wg sync.WaitGroup
	serve := func(cp *CP) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cp.Serve() // errors when the round aborts; ignored
		}()
	}
	tsSide, cpSide := wire.Pipe()
	tsConns = append(tsConns, tsSide)
	serve(NewCP("cp-a", cpSide, nil))
	tsSide, cpSide = wire.Pipe()
	cheat := &tamperConn{Messenger: tsSide, kind: kindShufBlock, skip: 2, alter: substituteCiphertext}
	tsConns = append(tsConns, cheat)
	serve(NewCP("cp-b", cpSide, nil))
	tsSide, dcSide := wire.Pipe()
	tsConns = append(tsConns, tsSide)
	dc := NewDC("dc-0", dcSide)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := dc.Setup(); err != nil {
			return
		}
		dc.Observe("mixed")
		dc.Finish()
	}()

	_, err = tally.Run(context.Background(), tsConns, []string{"cp-a", "cp-b", "dc-0"})
	if err == nil || !strings.Contains(err.Error(), "CP cp-b") {
		t.Fatalf("want the round to fail on cp-b, got %v", err)
	}
	if !cheat.tampered {
		t.Fatalf("round failed before the column pass: %v", err)
	}
	for _, m := range tsConns {
		m.Close()
	}
	wg.Wait()
	waitSpillsClosed(t, dir)
}

// TestRoundUsesConfiguredSpillDir runs a verified round with -spill-dir
// pointed at a writable directory and requires the gather table to be
// file-backed with no memory fallback recorded, and every spill store
// the round opened to be closed once it ends.
func TestRoundUsesConfiguredSpillDir(t *testing.T) {
	dir := t.TempDir()
	spill.SetDir(dir)
	defer spill.SetDir("")
	before := metrics.Default().Get("spill/mem-fallbacks")

	var inMemory *bool
	gatherFeedTestHook = func(sum *ctSpill) {
		v := sum.st.InMemory()
		inMemory = &v
	}
	defer func() { gatherFeedTestHook = nil }()

	cfg := Config{Round: 22, Bins: 64, NoisePerCP: 2, ShuffleProofRounds: 2, NumDCs: 2, NumCPs: 2}
	res := runRound(t, cfg, func(dcs []*DC) {
		dcs[0].Observe("a")
		dcs[1].Observe("b")
	})
	if res.Reported > 2+2*cfg.NumCPs*cfg.NoisePerCP {
		t.Fatalf("reported %d bins", res.Reported)
	}
	if inMemory == nil || *inMemory {
		t.Fatal("gather table must be file-backed under a writable spill dir")
	}
	if after := metrics.Default().Get("spill/mem-fallbacks"); after != before {
		t.Fatalf("mem-fallbacks moved %g -> %g with a writable dir", before, after)
	}
	waitSpillsClosed(t, dir)
}

// TestRoundSpillDirUnwritableFallsBack points -spill-dir at a path that
// cannot exist: every store falls back to memory, the fallback counter
// records it, and the round still completes correctly.
func TestRoundSpillDirUnwritableFallsBack(t *testing.T) {
	spill.SetDir("/proc/definitely/not/writable")
	defer spill.SetDir("")
	before := metrics.Default().Get("spill/mem-fallbacks")

	var inMemory *bool
	gatherFeedTestHook = func(sum *ctSpill) {
		v := sum.st.InMemory()
		inMemory = &v
	}
	defer func() { gatherFeedTestHook = nil }()

	cfg := Config{Round: 23, Bins: 64, NoisePerCP: 0, ShuffleProofRounds: 2, NumDCs: 1, NumCPs: 2}
	res := runRound(t, cfg, func(dcs []*DC) {
		dcs[0].Observe("x")
		dcs[0].Observe("y")
	})
	if res.Reported != 2 {
		t.Fatalf("reported %d bins, want 2", res.Reported)
	}
	if inMemory == nil || !*inMemory {
		t.Fatal("gather table must fall back to memory under an unwritable spill dir")
	}
	if after := metrics.Default().Get("spill/mem-fallbacks"); after <= before {
		t.Fatalf("mem-fallbacks did not move: %g -> %g", before, after)
	}
}
