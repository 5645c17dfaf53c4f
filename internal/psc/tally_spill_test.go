package psc

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/spill"
	"repro/internal/wire"
)

// TestGatherSpillReadErrorAbortsRound injures the completed gather
// store just before the mix feeder starts re-streaming it, so the
// feeder's first read fails. The round must abort with the spill error
// — the cause the round context is cancelled with, so every stage unwinds — rather
// than wedge the pipeline on a silently closed feed.
func TestGatherSpillReadErrorAbortsRound(t *testing.T) {
	gatherFeedTestHook = func(gs *gatherStore) {
		// Close the backing store out from under the feeder: every
		// subsequent readRange returns an error, the mid-re-stream
		// read-failure shape (ENOSPC, a reaped tmpfile, a bad disk).
		gs.sp.Close()
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

	_, err = tally.Run(context.Background(), tsConns)
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

// TestRoundUsesConfiguredSpillDir runs a verified round with -spill-dir
// pointed at a writable directory and requires the gather table to be
// file-backed with no memory fallback recorded.
func TestRoundUsesConfiguredSpillDir(t *testing.T) {
	spill.SetDir(t.TempDir())
	defer spill.SetDir("")
	before := metrics.Default().Get("spill/mem-fallbacks")

	var inMemory *bool
	gatherFeedTestHook = func(gs *gatherStore) {
		v := gs.sp.st.InMemory()
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
}

// TestRoundSpillDirUnwritableFallsBack points -spill-dir at a path that
// cannot exist: every store falls back to memory, the fallback counter
// records it, and the round still completes correctly.
func TestRoundSpillDirUnwritableFallsBack(t *testing.T) {
	spill.SetDir("/proc/definitely/not/writable")
	defer spill.SetDir("")
	before := metrics.Default().Get("spill/mem-fallbacks")

	var inMemory *bool
	gatherFeedTestHook = func(gs *gatherStore) {
		v := gs.sp.st.InMemory()
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
