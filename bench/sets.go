package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// resultSet is what one all-workloads invocation writes: per workload,
// the end-to-end metrics of every untraced run and the per-layer
// metrics of the traced run. Two sets of one commit are what -compare
// reads.
type resultSet struct {
	Env       environment            `json:"environment"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Workloads map[string]*setResults `json:"workloads"`
}

type setResults struct {
	Correct  bool                 `json:"correct"`
	EndToEnd []map[string]float64 `json:"end_to_end"` // one map per untraced run
	PerLayer map[string]float64   `json:"per_layer"`
}

func values(m map[string]metric) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v.Value
	}
	return out
}

// runAll runs every workload: runs untraced runs (seed, seed+1, ...)
// for the end-to-end metrics, then one traced run for the per-layer
// metrics, printing each run's account, and writes the result set.
func runAll(ws []*workload, seed int64, d time.Duration, runs int, smoke bool, out, setPath string) int {
	set := resultSet{Env: readEnvironment(), Seed: seed, Seconds: d.Seconds(), Workloads: make(map[string]*setResults)}
	ok := true
	for _, w := range ws {
		res := &setResults{Correct: true}
		set.Workloads[w.Name] = res
		one := func(seed int64, traced bool) map[string]float64 {
			rep, err := runWorkload(w, seed, d, traced, smoke, out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				res.Correct = false
				return nil
			}
			rep.print(os.Stdout)
			fmt.Println()
			res.Correct = res.Correct && rep.orc.correct()
			return values(rep.metrics)
		}
		for i := 0; i < runs; i++ {
			res.EndToEnd = append(res.EndToEnd, one(seed+int64(i), false))
		}
		res.PerLayer = one(seed, true)
		ok = ok && res.Correct
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err == nil {
		err = os.WriteFile(setPath, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: result set: %v\n", err)
		return 2
	}
	fmt.Printf("result set written to %s\n", setPath)
	if !ok {
		return 1
	}
	return 0
}

// declared is the part of BENCHMARK.json -compare needs.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// absoluteFloor is the change below which a metric is never called
// worse, whatever its relative size: set-up times of a few hundred
// milliseconds move by more than their bound between identical runs.
var absoluteFloor = map[string]float64{"setup_s": 0.2}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := int(math.Floor(pos))
		lo = max(0, min(lo, len(s)-2))
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.75)
}

// spread is the interquartile distance as a share of the median (0
// with fewer than two samples).
func spread(xs []float64) float64 {
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func loadSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSets applies each end-to-end metric's bound to two result
// sets and prints one row per workload and metric: same, worse, or
// unresolved (the run-to-run spread is wider than the bound, so the
// sets cannot tell). It returns a process exit code: 0 when every row
// reads same.
func compareSets(w io.Writer, declPath, pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	raw, err := os.ReadFile(declPath)
	var decl declared
	if err == nil {
		err = json.Unmarshal(raw, &decl)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", declPath, err)
		return 2
	}
	if a.Env != b.Env {
		fmt.Fprintf(w, "note: environments differ: %+v vs %+v\n", a.Env, b.Env)
	}
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-20s %3s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "n", "median a", "median b", "change", "spread", "bound", "verdict")
	code := 0
	for _, wn := range names {
		ra, rb := a.Workloads[wn], b.Workloads[wn]
		if rb == nil {
			fmt.Fprintf(w, "%-16s missing from %s\n", wn, pathB)
			code = 1
			continue
		}
		for _, m := range decl.EndToEnd {
			col := func(runs []map[string]float64) []float64 {
				out := make([]float64, 0, len(runs))
				for _, r := range runs {
					out = append(out, r[m.Name])
				}
				return out
			}
			xa, xb := col(ra.EndToEnd), col(rb.EndToEnd)
			ma, mb := median(xa), median(xb)
			// worse is how far b moved in the bad direction, as a share of a.
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(xa), spread(xb))
			verdict := "same"
			switch {
			case !ra.Correct || !rb.Correct:
				verdict = "worse (incorrect run)"
			case worse > m.Bound && math.Abs(mb-ma) > absoluteFloor[m.Name]:
				verdict = "worse"
			case sp > m.Bound:
				verdict = "unresolved"
			}
			if verdict != "same" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-20s %3d %12.6g %12.6g %+7.2f%% %7.2f%% %5.0f%%  %s\n",
				wn, m.Name, len(xa), ma, mb, (mb-ma)/ma*100, sp*100, m.Bound*100, verdict)
		}
	}
	return code
}
