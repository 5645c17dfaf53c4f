// Command bench is the repository's one benchmark: it assembles the
// real PSC / PrivCount fleet in one process through the public API,
// drives four named workloads, checks every result against a plaintext
// oracle, and prints every metric by name with its unit. See README.md.
//
//	bash bench/run.sh --workload psc-lan --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -seed 1                 # all workloads, both passes, tables
//	bash bench/run.sh -compare a.json b.json  # two result sets of one commit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/spill"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the outcome of one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "run one workload (psc-lan, psc-wan, privcount-wide, ingest-replay); empty: all, both passes")
	seed := flag.Int64("seed", 1, "input seed: item sets, increments, event trace, netem schedule")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	traced := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	out := flag.String("out", "bench/out", "scratch directory: trace files, result sets, spill files, auth cookie")
	smoke := flag.Bool("smoke", false, "tiny sizes (what bench_test.go runs)")
	runs := flag.Int("runs", 1, "all-workloads mode: repeat each untraced run this many times (seed, seed+1, ...) into the result set")
	set := flag.String("set", "", "all-workloads mode: write the result set here (default <out>/set-<seed>.json)")
	compare := flag.Bool("compare", false, "compare two result sets given as arguments and exit")
	decl := flag.String("benchmark", "BENCHMARK.json", "with -compare: the file declaring the end-to-end metrics and their bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: -compare a.json b.json")
		}
		os.Exit(compareSets(os.Stdout, *decl, flag.Arg(0), flag.Arg(1)))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	// Spill files stay inside the scratch directory, not the system
	// temp dir.
	spill.SetDir(*out)

	ws := workloads(*smoke)
	d := time.Duration(*seconds * float64(time.Second))
	if *name == "" {
		if *set == "" {
			*set = filepath.Join(*out, fmt.Sprintf("set-%d.json", *seed))
		}
		os.Exit(runAll(ws, *seed, d, *runs, *smoke, *out, *set))
	}
	w := findWorkload(ws, *name)
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	rep, err := runWorkload(w, *seed, d, *traced == 1, *smoke, *out)
	if err != nil {
		fatalf("%s: %v", w.Name, err)
	}
	rep.print(os.Stdout)
	if err := rep.emit(os.Stdout); err != nil {
		fatalf("%v", err)
	}
	if !rep.orc.correct() {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// report is everything one run of one workload produced.
type report struct {
	workload *workload
	seed     int64
	traced   bool
	env      environment
	setups   []float64
	sec      section
	orc      *oracle
	metrics  map[string]metric
	layers   *layerReport // traced runs only

	// Fleet-level observations, kept after the fleet is closed.
	helloMs    []float64
	windowPeak int64
	decreases  int64
	leaked     int
}

// environment is recorded with every run so numbers from different
// machines are not compared by accident.
type environment struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func readEnvironment() environment {
	return environment{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
	}
}

// A run builds its inputs and fleet at least minSetups times, and
// keeps going (up to maxSetups) until a twentieth of the run's
// measuring time is spent, so that a set-up of a few milliseconds is
// sampled often enough for a steady median while one of seconds is not
// repeated needlessly.
const (
	minSetups = 3
	maxSetups = 25
)

// runWorkload is one run: set up (several times, keeping the last
// fleet), measure for d, tear down, and derive the metrics.
func runWorkload(w *workload, seed int64, d time.Duration, traced, smoke bool, out string) (*report, error) {
	rep := &report{workload: w, seed: seed, traced: traced, env: readEnvironment(), orc: &oracle{}}
	// The batch-crypto worker pool lives for the whole process; start it
	// so its workers are not mistaken for a leak.
	parallel.For(parallel.PoolSize(), 1, func(int, int) {})
	goroutines := runtime.NumGoroutine()

	var r *runner
	var f *fleet
	setupStart := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(setupStart) < d/20); i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		in, err := generate(w, seed)
		if err != nil {
			return nil, err
		}
		if f, err = newFleet(w, in); err != nil {
			return nil, err
		}
		r = &runner{w: w, in: in, f: f, orc: rep.orc, out: out}
		// Warm up only where a round trip is free: over emulated WAN
		// latency a warm-up round would cost a dozen round trips per
		// set-up, and what it pre-builds is under 1 % of a WAN round.
		if in.profile == nil {
			if err := r.warm(); err != nil {
				f.close()
				return nil, fmt.Errorf("warm-up round: %w", err)
			}
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}

	if !traced {
		rep.sec = r.measure(d, 2, nil)
	} else {
		rep.layers = r.tracedPass(d, seed, out, smoke)
		rep.sec = rep.layers.traced
	}
	f.close()
	rep.helloMs, rep.windowPeak, rep.decreases = f.helloMs, f.windowPeak, f.decreases
	if rep.sec.err != nil {
		// The fleet is closed, so nothing is left blocked on the failed
		// round; what was measured before it is still reported.
		rep.orc.attempted++
		rep.orc.failf("run aborted: %v", rep.sec.err)
	}
	if rep.leaked = leakedGoroutines(goroutines); rep.leaked > 0 {
		rep.orc.faultf("%d goroutines leaked after the fleet closed", rep.leaked)
	}
	if n := metrics.Default().Get("spill/mem-fallbacks"); n > 0 {
		rep.orc.faultf("%g spill stores fell back to memory", n)
	}

	if traced {
		rep.metrics = rep.layers.metrics(rep)
	} else {
		rep.metrics = endToEnd(rep)
	}
	return rep, nil
}

// leakedGoroutines waits briefly for goroutines to wind down and
// returns how many more than before remain.
func leakedGoroutines(before int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine() - before
		if n <= 0 || time.Now().After(deadline) {
			return max(n, 0)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(rep *report) map[string]metric {
	rounds := rep.sec.rounds
	n := float64(max(len(rounds), 1))
	return map[string]metric{
		"setup_s":            {median(rep.setups), "s"},
		"round_s":            {median(pick(rounds, func(s roundSample) float64 { return s.roundS })), "s"},
		"events_per_s":       {median(pick(rounds, func(s roundSample) float64 { return s.rate })), "1/s"},
		"cpu_s_per_round":    {rep.sec.cpuS / n, "s"},
		"wire_mb_per_round":  {median(pick(rounds, func(s roundSample) float64 { return s.wireMB })), "MB"},
		"alloc_mb_per_round": {float64(rep.sec.allocB) / 1e6 / n, "MB"},
	}
}

// emit writes the machine-readable last line.
func (rep *report) emit(w io.Writer) error {
	res := result{Correct: rep.orc.correct(), Attempted: max(rep.orc.attempted, 1), Failed: rep.orc.failed, Metrics: rep.metrics}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// print writes the human-readable account of the run.
func (rep *report) print(w io.Writer) {
	e := rep.env
	fmt.Fprintf(w, "workload %s seed %d traced %v — %s\n", rep.workload.Name, rep.seed, rep.traced, rep.workload.Why)
	fmt.Fprintf(w, "environment: %s, nproc %d, GOMAXPROCS %d, %s\n", e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.CPUModel)
	fmt.Fprintf(w, "rounds %d in %.2f s; attempted %d failed %d\n", len(rep.sec.rounds), rep.sec.wallS, rep.orc.attempted, rep.orc.failed)
	for _, n := range append(rep.orc.notes, rep.orc.faults...) {
		fmt.Fprintf(w, "  FAIL %s\n", n)
	}
	if rep.layers != nil {
		rep.layers.print(w)
	} else {
		rs := rep.sec.rounds
		printStats(w, "per-round samples", []statRow{
			{"round_s", "s", pick(rs, func(s roundSample) float64 { return s.roundS })},
			{"apply_s", "s", pick(rs, func(s roundSample) float64 { return s.applyS })},
			{"wire_mb", "MB", pick(rs, func(s roundSample) float64 { return s.wireMB })},
			{"setup_s", "s", rep.setups},
		})
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "metrics:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
}
