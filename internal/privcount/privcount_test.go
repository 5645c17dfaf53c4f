package privcount

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/dp"
	"repro/internal/simtime"
	"repro/internal/wire"
)

func TestFixedPointRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 1234.5, -0.25, 1e12, -1e12} {
		got := fromFixed(toFixed(v))
		if math.Abs(got-v) > 1.0/fpScale {
			t.Errorf("fixed point %v -> %v", v, got)
		}
	}
}

func TestFixedPointSurvivesBlinding(t *testing.T) {
	// value + blind - blind == value in Z_2^64 regardless of wraparound.
	v := toFixed(-12345.678)
	blind := RandomShares(1)[0]
	if got := fromFixed(v + blind - blind); math.Abs(got-(-12345.678)) > 1.0/fpScale {
		t.Fatalf("blinding broke fixed point: %v", got)
	}
}

func TestSchemaValidation(t *testing.T) {
	good := []StatConfig{
		{Name: "streams", Bins: []string{""}, Sigma: 10},
		{Name: "countries", Bins: []string{"US", "RU", "DE"}, Sigma: 5},
	}
	s, err := NewSchema(good)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 4 {
		t.Fatalf("size: %d", s.Size())
	}
	off, err := s.Offset("countries", 2)
	if err != nil || off != 3 {
		t.Fatalf("offset: %d %v", off, err)
	}
	if _, err := s.Offset("nope", 0); err == nil {
		t.Fatal("unknown stat must fail")
	}
	if _, err := s.Offset("countries", 3); err == nil {
		t.Fatal("bin out of range must fail")
	}

	bad := [][]StatConfig{
		{},
		{{Name: "", Bins: []string{""}}},
		{{Name: "x", Bins: nil}},
		{{Name: "x", Bins: []string{""}, Sigma: -1}},
		{{Name: "x", Bins: []string{""}}, {Name: "x", Bins: []string{""}}},
	}
	for i, stats := range bad {
		if _, err := NewSchema(stats); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestSealRoundTrip(t *testing.T) {
	k, err := NewSealKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("blinding shares")
	box, err := Seal(k.Public(), msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Open(box)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatal("seal round trip")
	}
}

func TestSealRejectsTamperingAndWrongKey(t *testing.T) {
	k1, _ := NewSealKey()
	k2, _ := NewSealKey()
	box, err := Seal(k1.Public(), []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k2.Open(box); err == nil {
		t.Fatal("wrong key must fail")
	}
	box[len(box)-1] ^= 0xFF
	if _, err := k1.Open(box); err == nil {
		t.Fatal("tampered box must fail")
	}
	if _, err := k1.Open([]byte{1, 2}); err == nil {
		t.Fatal("short box must fail")
	}
	if _, err := Seal([]byte{1, 2, 3}, []byte("x")); err == nil {
		t.Fatal("bad recipient key must fail")
	}
}

// runRound wires up a full deployment over in-memory pipes: one TS,
// numDCs DCs, numSKs SKs. The feed callback makes increments on the
// DCs after setup. It returns the aggregated noisy values.
func runRound(t *testing.T, stats []StatConfig, numDCs, numSKs int,
	feed func(dcs []*DC)) map[string][]float64 {
	t.Helper()
	return runRoundOver(t, stats, numDCs, numSKs, func(m wire.Messenger) wire.Messenger { return m }, feed)
}

// runRoundOver is runRound with the TS's end of every DC connection
// passed through wrap first, for tests that watch what a DC is sent.
func runRoundOver(t *testing.T, stats []StatConfig, numDCs, numSKs int,
	wrap func(wire.Messenger) wire.Messenger, feed func(dcs []*DC)) map[string][]float64 {
	t.Helper()

	tally, err := NewTally(TallyConfig{Round: 1, Stats: stats, NumDCs: numDCs, NumSKs: numSKs})
	if err != nil {
		t.Fatal(err)
	}

	var tsConns []wire.Messenger
	var dcs []*DC
	var setupWG, skWG sync.WaitGroup

	for i := 0; i < numSKs; i++ {
		tsSide, skSide := wire.Pipe()
		tsConns = append(tsConns, tsSide)
		sk, err := NewSK(skName(i), skSide)
		if err != nil {
			t.Fatal(err)
		}
		skWG.Add(1)
		go func() {
			defer skWG.Done()
			if err := sk.Serve(); err != nil {
				t.Errorf("sk: %v", err)
			}
		}()
	}
	for i := 0; i < numDCs; i++ {
		tsSide, dcSide := wire.Pipe()
		tsConns = append(tsConns, wrap(tsSide))
		noise := dp.NewNoiseSource(seededReader{simtime.Rand(uint64(i), "pc-test")})
		dc := NewDC(dcName(i), dcSide, noise)
		dcs = append(dcs, dc)
		setupWG.Add(1)
		go func() {
			defer setupWG.Done()
			if err := dc.Setup(); err != nil {
				t.Errorf("dc setup: %v", err)
			}
		}()
	}

	resultCh := make(chan map[string][]float64, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := tally.Run(context.Background(), tsConns)
		if err != nil {
			errCh <- err
			return
		}
		resultCh <- res
	}()

	setupWG.Wait()
	feed(dcs)
	for _, dc := range dcs {
		if err := dc.Finish(); err != nil {
			t.Fatalf("dc finish: %v", err)
		}
	}
	skWG.Wait()

	select {
	case res := <-resultCh:
		return res
	case err := <-errCh:
		t.Fatalf("tally: %v", err)
		return nil
	}
}

type seededReader struct{ r interface{ Uint64() uint64 } }

func (s seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.r.Uint64())
	}
	return len(p), nil
}

func dcName(i int) string { return string(rune('a'+i)) + "-dc" }
func skName(i int) string { return string(rune('a'+i)) + "-sk" }

// TestRoundLargeSchemaCrossesChunks runs a schema wider than one chunk
// so the share distribution, report, and sums paths all exercise
// multi-chunk transfer end to end.
func TestRoundLargeSchemaCrossesChunks(t *testing.T) {
	bins := make([]string, ChunkSlots+37)
	for i := range bins {
		bins[i] = fmt.Sprintf("b%d", i)
	}
	stats := []StatConfig{{Name: "wide", Bins: bins, Sigma: 0}}
	last := len(bins) - 1
	res := runRound(t, stats, 2, 2, func(dcs []*DC) {
		for _, dc := range dcs {
			if err := dc.Increment("wide", 0, 3); err != nil {
				t.Fatal(err)
			}
			if err := dc.Increment("wide", last, 5); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got := res["wide"][0]; math.Abs(got-6) > 1e-9 {
		t.Fatalf("first bin: %v", got)
	}
	if got := res["wide"][last]; math.Abs(got-10) > 1e-9 {
		t.Fatalf("last bin: %v", got)
	}
	for _, mid := range []int{1, ChunkSlots - 1, ChunkSlots} {
		if got := res["wide"][mid]; math.Abs(got) > 1e-9 {
			t.Fatalf("bin %d should be zero: %v", mid, got)
		}
	}
}

func TestFullRoundExactWithoutNoise(t *testing.T) {
	stats := []StatConfig{
		{Name: "streams", Bins: []string{""}, Sigma: 0},
		{Name: "bins", Bins: []string{"x", "y"}, Sigma: 0},
	}
	res := runRound(t, stats, 3, 2, func(dcs []*DC) {
		for i, dc := range dcs {
			for j := 0; j <= i; j++ {
				if err := dc.Increment("streams", 0, 10); err != nil {
					t.Fatal(err)
				}
			}
			if err := dc.Increment("bins", 1, 2.5); err != nil {
				t.Fatal(err)
			}
		}
	})
	// streams: 10 + 20 + 30 = 60; bins: x=0, y=3*2.5=7.5.
	if got := res["streams"][0]; math.Abs(got-60) > 1e-9 {
		t.Fatalf("streams: %v", got)
	}
	if got := res["bins"][0]; math.Abs(got) > 1e-9 {
		t.Fatalf("bin x: %v", got)
	}
	if got := res["bins"][1]; math.Abs(got-7.5) > 1e-9 {
		t.Fatalf("bin y: %v", got)
	}
}

func TestFullRoundNoiseMagnitude(t *testing.T) {
	// With sigma=1000 and zero true counts, repeated aggregation should
	// produce noise with roughly that deviation. One round gives one
	// sample per bin; use many bins to estimate.
	bins := make([]string, 64)
	for i := range bins {
		bins[i] = string(rune('A' + i%26))
		bins[i] += string(rune('0' + i/26))
	}
	stats := []StatConfig{{Name: "noise", Bins: bins, Sigma: 1000}}
	res := runRound(t, stats, 4, 2, func([]*DC) {})
	var sumSq float64
	for _, v := range res["noise"] {
		sumSq += v * v
	}
	sd := math.Sqrt(sumSq / float64(len(bins)))
	if sd < 500 || sd > 2000 {
		t.Fatalf("noise sd %v, want ~1000", sd)
	}
}

func TestDCReportIsBlinded(t *testing.T) {
	// Capture a DC's report and confirm it does not reveal the true
	// count: the blinded fixed-point value must differ wildly from the
	// true value. We drive a minimal handshake by hand.
	stats := []StatConfig{{Name: "s", Bins: []string{""}, Sigma: 0}}
	tsSide, dcSide := wire.Pipe()
	dc := NewDC("dc-0", dcSide, dp.NewNoiseSource(seededReader{simtime.Rand(1, "b")}))

	skKey, _ := NewSealKey()
	go func() {
		var reg RegisterMsg
		tsSide.Expect(kindRegister, &reg)
		tsSide.Send(kindConfigure, ConfigureMsg{
			Round: 1, Shapes: shapesOf(stats), NumDCs: 1,
			SKNames: []string{"sk-0"},
			SKKeys:  map[string][]byte{"sk-0": skKey.Public()},
		})
		var shares SharesMsg
		if tsSide.Expect(kindShares, &shares) != nil {
			return
		}
		tsSide.Send(kindBegin, BeginMsg{Round: 1})
	}()
	if err := dc.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := dc.Increment("s", 0, 42); err != nil {
		t.Fatal(err)
	}
	done := make(chan []uint64, 1)
	go func() {
		var rep ReportMsg
		tsSide.Expect(kindReport, &rep)
		vals, _ := recvAll(tsSide, rep.N)
		done <- vals
	}()
	if err := dc.Finish(); err != nil {
		t.Fatal(err)
	}
	vals := <-done
	if got := fromFixed(vals[0]); math.Abs(got-42) < 1e6 {
		t.Fatalf("report leaked a value near the true count: %v", got)
	}
}

// TestMissingSKSumsBreaksUnblinding verifies the share-keeper role is
// load-bearing: aggregating DC reports with only a subset of SK sums
// yields garbage, i.e. the TS alone cannot unblind.
func TestMissingSKSumsBreaksUnblinding(t *testing.T) {
	stats := []StatConfig{{Name: "s", Bins: []string{""}, Sigma: 0}}
	schema, _ := NewSchema(stats)

	c := NewCounters(schema)
	if err := c.Increment("s", 0, 1000); err != nil {
		t.Fatal(err)
	}
	sharesA := RandomShares(1)
	sharesB := RandomShares(1)
	c.AddBlindingAt(0, sharesA)
	c.AddBlindingAt(0, sharesB)

	// With both SK sums, exact recovery.
	full, err := AggregateSum(schema, sumMod(c.vals, negate(sharesA), negate(sharesB)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full["s"][0]-1000) > 1e-9 {
		t.Fatalf("full unblinding failed: %v", full["s"][0])
	}
	// Missing one SK leaves a uniformly random residue.
	partial, err := AggregateSum(schema, sumMod(c.vals, negate(sharesA)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(partial["s"][0]-1000) < 1e6 {
		t.Fatalf("partial unblinding recovered the count: %v", partial["s"][0])
	}
}

// sumMod adds equal-length vectors slot-wise mod 2⁶⁴ — the telescoping
// sum the tally's accumulator computes chunk by chunk.
func sumMod(vectors ...[]uint64) []uint64 {
	sum := make([]uint64, len(vectors[0]))
	for _, v := range vectors {
		for i, x := range v {
			sum[i] += x
		}
	}
	return sum
}

// recvAll collects a whole chunked vector of n slots.
func recvAll(m wire.Messenger, n int) ([]uint64, error) {
	out := make([]uint64, n)
	err := recvValuesFunc(m, n, func(off int, raw []byte) error {
		for i := range len(raw) / 8 {
			out[off+i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		return nil
	})
	return out, err
}

func negate(v []uint64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = -x
	}
	return out
}

func TestTallyConfigValidation(t *testing.T) {
	stats := []StatConfig{{Name: "s", Bins: []string{""}}}
	if _, err := NewTally(TallyConfig{Stats: stats, NumDCs: 0, NumSKs: 1}); err == nil {
		t.Fatal("zero DCs must fail")
	}
	if _, err := NewTally(TallyConfig{Stats: stats, NumDCs: 1, NumSKs: 0}); err == nil {
		t.Fatal("zero SKs must fail")
	}
	if _, err := NewTally(TallyConfig{Stats: nil, NumDCs: 1, NumSKs: 1}); err == nil {
		t.Fatal("empty schema must fail")
	}
}

func TestTallyRejectsWrongConnectionCount(t *testing.T) {
	stats := []StatConfig{{Name: "s", Bins: []string{""}}}
	tally, err := NewTally(TallyConfig{Round: 1, Stats: stats, NumDCs: 2, NumSKs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tally.Run(context.Background(), nil); err == nil {
		t.Fatal("no connections must fail")
	}
}

func TestIncrementBeforeSetupFails(t *testing.T) {
	_, dcSide := wire.Pipe()
	dc := NewDC("dc", dcSide, nil)
	if err := dc.Increment("s", 0, 1); err == nil {
		t.Fatal("increment before setup must fail")
	}
	if err := dc.Finish(); err == nil {
		t.Fatal("finish before setup must fail")
	}
}

func TestAggregateLengthMismatch(t *testing.T) {
	schema, _ := NewSchema([]StatConfig{{Name: "s", Bins: []string{""}}})
	if _, err := AggregateSum(schema, []uint64{1, 2}); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func BenchmarkIncrement(b *testing.B) {
	schema, _ := NewSchema([]StatConfig{{Name: "s", Bins: make([]string, 16), Sigma: 1}})
	c := NewCounters(schema)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.vals[i%16] += toFixed(1)
	}
}

func BenchmarkFullRound8DCs(b *testing.B) {
	stats := []StatConfig{{Name: "s", Bins: []string{"a", "b", "c", "d"}, Sigma: 100}}
	for i := 0; i < b.N; i++ {
		tally, _ := NewTally(TallyConfig{Round: 1, Stats: stats, NumDCs: 8, NumSKs: 3})
		var tsConns []wire.Messenger
		var dcs []*DC
		var wg sync.WaitGroup
		for j := 0; j < 3; j++ {
			tsSide, skSide := wire.Pipe()
			tsConns = append(tsConns, tsSide)
			sk, _ := NewSK(skName(j), skSide)
			wg.Add(1)
			go func() { defer wg.Done(); sk.Serve() }()
		}
		var setup sync.WaitGroup
		for j := 0; j < 8; j++ {
			tsSide, dcSide := wire.Pipe()
			tsConns = append(tsConns, tsSide)
			dc := NewDC(dcName(j), dcSide, nil)
			dcs = append(dcs, dc)
			setup.Add(1)
			go func() { defer setup.Done(); dc.Setup() }()
		}
		resCh := make(chan map[string][]float64, 1)
		go func() {
			res, err := tally.Run(context.Background(), tsConns)
			if err != nil {
				b.Error(err)
			}
			resCh <- res
		}()
		setup.Wait()
		for _, dc := range dcs {
			dc.Increment("s", 0, 1)
			dc.Finish()
		}
		<-resCh
		wg.Wait()
	}
}
