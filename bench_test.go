// Package repro's benchmark harness regenerates every table and figure
// of the paper's evaluation. Each Benchmark<ID> runs the corresponding
// experiment end to end — simulated network, real protocol rounds,
// statistical inference — and logs the rendered report next to the
// paper's published values. Run with:
//
//	go test -bench=. -benchmem
//
// Scale note: benchmarks simulate 1/1000th of Tor by default (override
// with REPRO_SCALE); values are scaled back to paper magnitude in the
// reports. The shape comparisons in EXPERIMENTS.md were produced from
// this harness.
package repro

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/elgamal"
	"repro/internal/privcount"
	"repro/internal/stats"
	"repro/internal/wire"
)

// benchEnv returns the shared benchmark environment. Experiments are
// independent, but the Alexa list and databases are cached inside.
var (
	benchEnvOnce sync.Once
	benchEnvVal  *core.Env
)

func benchEnv() *core.Env {
	benchEnvOnce.Do(func() {
		scale := 1000.0
		if s := os.Getenv("REPRO_SCALE"); s != "" {
			if v, err := strconv.ParseFloat(s, 64); err == nil && v >= 1 {
				scale = v
			}
		}
		benchEnvVal = &core.Env{Scale: scale, Seed: 2018, AlexaN: 200_000, ProofRounds: 1}
	})
	return benchEnvVal
}

// runExperimentBench executes one registered experiment per iteration
// and logs the report once.
func runExperimentBench(b *testing.B, id string) {
	env := benchEnv()
	logged := false
	for i := 0; i < b.N; i++ {
		rep, err := core.Run(id, env)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if !logged {
			b.Logf("\n%s", rep)
			logged = true
			if len(rep.Rows) > 0 {
				b.ReportMetric(rep.Rows[0].Value.Value, "row0")
			}
		}
	}
}

// --- One benchmark per paper table and figure (DESIGN.md §3) ---

func BenchmarkTable1ActionBounds(b *testing.B)      { runExperimentBench(b, "table1") }
func BenchmarkFig1ExitStreams(b *testing.B)         { runExperimentBench(b, "fig1") }
func BenchmarkFig2AlexaSets(b *testing.B)           { runExperimentBench(b, "fig2") }
func BenchmarkFig3TLD(b *testing.B)                 { runExperimentBench(b, "fig3") }
func BenchmarkTable2UniqueSLD(b *testing.B)         { runExperimentBench(b, "table2") }
func BenchmarkTable3GuardModel(b *testing.B)        { runExperimentBench(b, "table3") }
func BenchmarkTable4ClientUsage(b *testing.B)       { runExperimentBench(b, "table4") }
func BenchmarkTable5UniqueClients(b *testing.B)     { runExperimentBench(b, "table5") }
func BenchmarkFig4Countries(b *testing.B)           { runExperimentBench(b, "fig4") }
func BenchmarkTable6OnionAddresses(b *testing.B)    { runExperimentBench(b, "table6") }
func BenchmarkTable7DescriptorFetches(b *testing.B) { runExperimentBench(b, "table7") }
func BenchmarkTable8Rendezvous(b *testing.B)        { runExperimentBench(b, "table8") }
func BenchmarkBaselineMetrics(b *testing.B)         { runExperimentBench(b, "baseline") }
func BenchmarkScheduleBudget(b *testing.B)          { runExperimentBench(b, "schedule") }
func BenchmarkCategories(b *testing.B)              { runExperimentBench(b, "categories") }
func BenchmarkSummary(b *testing.B)                 { runExperimentBench(b, "summary") }

// --- Ablation benchmarks for the design choices in DESIGN.md §4 ---

// BenchmarkAblationTransport compares a PrivCount round over in-memory
// pipes against TCP loopback: the cost of real sockets in the
// deployment path.
func BenchmarkAblationTransport(b *testing.B) {
	statsCfg := []privcount.StatConfig{{Name: "s", Bins: make([]string, 32), Sigma: 10}}
	for i := range statsCfg[0].Bins {
		statsCfg[0].Bins[i] = fmt.Sprintf("b%d", i)
	}

	runRound := func(mkConn func() (*wire.Conn, *wire.Conn, func())) error {
		tally, err := privcount.NewTally(privcount.TallyConfig{
			Round: 1, Stats: statsCfg, NumDCs: 4, NumSKs: 2,
		})
		if err != nil {
			return err
		}
		var tsConns []wire.Messenger
		var cleanup []func()
		var wg, setup sync.WaitGroup
		var dcs []*privcount.DC
		for j := 0; j < 2; j++ {
			ts, side, cl := mkConn()
			tsConns = append(tsConns, ts)
			cleanup = append(cleanup, cl)
			sk, err := privcount.NewSK(fmt.Sprintf("sk%d", j), side)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func() { defer wg.Done(); sk.Serve() }()
		}
		for j := 0; j < 4; j++ {
			ts, side, cl := mkConn()
			tsConns = append(tsConns, ts)
			cleanup = append(cleanup, cl)
			dc := privcount.NewDC(fmt.Sprintf("dc%d", j), side, nil)
			dcs = append(dcs, dc)
			setup.Add(1)
			go func() { defer setup.Done(); dc.Setup() }()
		}
		done := make(chan error, 1)
		go func() {
			_, err := tally.Run(context.Background(), tsConns)
			done <- err
		}()
		setup.Wait()
		for _, dc := range dcs {
			for k := 0; k < 1000; k++ {
				dc.Increment("s", k%32, 1)
			}
			dc.Finish()
		}
		err = <-done
		wg.Wait()
		for _, cl := range cleanup {
			cl()
		}
		return err
	}

	b.Run("pipe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := runRound(func() (*wire.Conn, *wire.Conn, func()) {
				a, c := wire.Pipe()
				return a, c, func() { a.Close(); c.Close() }
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ln, err := wire.Listen("127.0.0.1:0", nil)
			if err != nil {
				b.Fatal(err)
			}
			accepted := make(chan *wire.Conn, 8)
			go func() {
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					accepted <- c
				}
			}()
			err = runRound(func() (*wire.Conn, *wire.Conn, func()) {
				side, err := wire.Dial(ln.Addr().String(), nil, 0)
				if err != nil {
					b.Fatal(err)
				}
				ts := <-accepted
				return ts, side, func() { ts.Close(); side.Close() }
			})
			ln.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPSCTableSize sweeps the PSC hash-table size and
// reports the collision bias the estimator must correct: the
// bandwidth/accuracy trade-off of DESIGN.md §4.3.
func BenchmarkAblationPSCTableSize(b *testing.B) {
	const items = 4000
	for _, bins := range []int{1 << 12, 1 << 13, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("bins-%d", bins), func(b *testing.B) {
			var bias float64
			for i := 0; i < b.N; i++ {
				bias = stats.CollisionBias(bins, items)
				mean, _ := stats.OccupancyMoments(bins, items)
				est := stats.InvertOccupancy(bins, mean)
				if math.Abs(est-items) > items/100 {
					b.Fatalf("estimator off: %v", est)
				}
			}
			b.ReportMetric(bias, "collision-bias")
			b.ReportMetric(bias/items*100, "bias-%")
		})
	}
}

// BenchmarkAblationShuffleRounds sweeps the cut-and-choose soundness
// parameter over one block spanning the vector: proof cost grows
// linearly while cheating probability halves per round (DESIGN.md
// §4.4).
func BenchmarkAblationShuffleRounds(b *testing.B) {
	key := elgamal.GenerateKey()
	in := make([]elgamal.Ciphertext, 32)
	for i := range in {
		in[i] = elgamal.EncryptBit(key.PK, i%2 == 0)
	}
	out, w := elgamal.Shuffle(key.PK, in)
	for _, rounds := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("rounds-%d", rounds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prover := elgamal.NewShuffleTranscript(key.PK, len(in), len(in), 1, rounds)
				proof, err := elgamal.ProveShuffleBlock(prover, 1, 0, key.PK, in, out, w, rounds)
				if err != nil {
					b.Fatal(err)
				}
				verifier := elgamal.NewShuffleTranscript(key.PK, len(in), len(in), 1, rounds)
				if err := elgamal.VerifyShuffleBlock(verifier, 1, 0, key.PK, in, out, proof); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(math.Pow(2, -float64(rounds)), "soundness-err")
		})
	}
}

// BenchmarkAblationNoiseAllocation compares equal vs PrivCount-optimal
// budget allocation: the worst-case relative error across statistics of
// very different magnitudes (DESIGN.md §4.5 — why per-country bins
// drown in noise).
func BenchmarkAblationNoiseAllocation(b *testing.B) {
	specs := []dp.Statistic{
		{Name: "big", Sensitivity: 651, Expected: 1.2e7},
		{Name: "mid", Sensitivity: 651, Expected: 4e5},
		{Name: "small", Sensitivity: 651, Expected: 9e3},
	}
	for _, mode := range []struct {
		name string
		m    dp.AllocationMode
	}{{"equal", dp.AllocateEqual}, {"optimal", dp.AllocateOptimal}} {
		b.Run(mode.name, func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				alloc, err := dp.Allocate(dp.StudyParams(), specs, mode.m)
				if err != nil {
					b.Fatal(err)
				}
				worst = 0
				for _, s := range specs {
					rel := alloc.Sigmas[s.Name] / s.Expected
					if rel > worst {
						worst = rel
					}
				}
			}
			b.ReportMetric(worst*100, "worst-rel-noise-%")
		})
	}
}

// BenchmarkAblationFixedPoint quantifies the quantization error of the
// counter fixed-point width against narrower alternatives (DESIGN.md
// §4.2).
func BenchmarkAblationFixedPoint(b *testing.B) {
	quantize := func(v float64, bits uint) float64 {
		scale := float64(uint64(1) << bits)
		return math.Round(v*scale) / scale
	}
	noise := []float64{0.318, -1234.567891, 3.25e9 + 0.4303, -0.000071}
	for _, bits := range []uint{8, 16, 24} {
		b.Run(fmt.Sprintf("frac-bits-%d", bits), func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				worst = 0
				for _, v := range noise {
					if e := math.Abs(quantize(v, bits) - v); e > worst {
						worst = e
					}
				}
			}
			b.ReportMetric(worst, "max-abs-error")
		})
	}
}
