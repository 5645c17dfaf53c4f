package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/spill"
)

// benchmarkFile is the declared contract the emitted names must match.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func checkNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s not emitted", what, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s emitted in %q, declared in %q", what, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, d.Name, m.Value)
		}
	}
	for name := range got {
		if !nameRE.MatchString(name) {
			t.Errorf("%s: bad metric name %q", what, name)
		}
	}
}

// TestSmokeWorkloads runs every workload at smoke scale, traced, and
// holds the run to the benchmark's own promises: oracle pass, nothing
// failed, a consistent span tree, phases inside their round, and
// exactly the metric names BENCHMARK.json declares.
func TestSmokeWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	full := workloads(false)
	if len(full) != len(bf.Workloads) {
		t.Fatalf("%d workloads defined, %d declared", len(full), len(bf.Workloads))
	}
	for i, w := range full {
		if w.Name != bf.Workloads[i].Name || w.Why != bf.Workloads[i].Why {
			t.Errorf("workload %d: defined %q (%q), declared %q (%q)", i, w.Name, w.Why, bf.Workloads[i].Name, bf.Workloads[i].Why)
		}
	}
	out := t.TempDir()
	spill.SetDir(out)
	defer spill.SetDir("")
	for _, w := range workloads(true) {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := runWorkload(w, 1, time.Second, true, true, out)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.orc.correct() || rep.orc.failed != 0 {
				t.Errorf("run not correct: failed=%d notes=%v faults=%v", rep.orc.failed, rep.orc.notes, rep.orc.faults)
			}
			if rep.orc.attempted < 1 || len(rep.sec.rounds) < 2 {
				t.Errorf("attempted %d, rounds %d", rep.orc.attempted, len(rep.sec.rounds))
			}
			checkNames(t, "per_layer", rep.metrics, bf.PerLayer)
			e2e := endToEnd(rep)
			checkNames(t, "end_to_end", e2e, bf.EndToEnd)
			for name, m := range e2e {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
				}
			}
			var buf bytes.Buffer
			if err := rep.emit(&buf); err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(buf.Bytes(), &res); err != nil || !res.Correct || strings.Count(buf.String(), "\n") != 1 {
				t.Errorf("result line %q: %v", buf.String(), err)
			}
			checkSpans(t, rep.layers.spans)
			if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// checkSpans verifies parent/child consistency: every parent exists,
// children lie inside their parents and share the round's root, self
// times are not negative, and no phase or party outlasts its round.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	const eps = 1e-9
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	roots := 0
	for _, s := range spans {
		if s.End < s.Start-eps || s.Self < -eps || s.Self > s.dur()+eps {
			t.Errorf("span %d %q: start %v end %v self %v", s.ID, s.Name, s.Start, s.End, s.Self)
		}
		if s.Round == 0 {
			t.Errorf("span %d %q carries no round ID", s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d %q: parent %d missing", s.ID, s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start-eps || s.End > p.End+eps {
			t.Errorf("span %d %q [%v,%v] outside parent %d %q [%v,%v]", s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	if roots == 0 {
		t.Error("no round spans recorded")
	}
	for _, rt := range splitRounds(spans) {
		if len(rt.parties) == 0 {
			t.Errorf("round %d has no party spans", rt.root.Round)
		}
		for _, p := range rt.parties {
			busy, rw, sw := waits(p, rt.frames[p.ID])
			if busy < -eps || busy+rw+sw > rt.root.dur()+eps {
				t.Errorf("round %d party %s: busy %v + recv %v + send %v exceeds the round's %v", rt.root.Round, p.Party, busy, rw, sw, rt.root.dur())
			}
		}
		var frames []span
		for _, fs := range rt.frames {
			frames = append(frames, fs...)
		}
		for _, ph := range append(append([]string(nil), pscPhases...), "setup", "collect") {
			if got := extent(frames, func(s span) bool { return s.Phase == ph }); got > rt.root.dur()+eps {
				t.Errorf("round %d phase %s lasts %v, the round %v", rt.root.Round, ph, got, rt.root.dur())
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.begin(span{Name: "round", Party: "driver"}, at(0))
	tr.setRound(root, 7)
	party := tr.begin(span{Parent: parentOfRound, Name: "party", Party: "cp-0", Round: 7}, at(10))
	tr.add(span{Parent: party, Name: "recv psc/mix", Round: 7}, at(10), at(30))
	tr.add(span{Parent: party, Name: "send psc/noise", Round: 7}, at(25), at(40))             // overlaps the recv
	tr.add(span{Parent: party, Name: "recv psc/decrypt", Round: 7}, at(95), at(120))          // trails the round
	tr.add(span{Parent: parentOfRound, Name: "party", Party: "cp-9", Round: 8}, at(0), at(5)) // unknown round
	tr.end(party, at(110))
	tr.end(root, at(100))
	spans := tr.finish()
	if len(spans) != 5 {
		t.Fatalf("kept %d spans, want 5: %+v", len(spans), spans)
	}
	p := spans[1]
	if p.Parent != root || math.Abs(p.End-0.100) > 1e-9 {
		t.Errorf("party span %+v: want parent %d and end clipped to 0.1", p, root)
	}
	// 90 ms of party span minus the union [10,40] ∪ [95,100].
	if want := 0.090 - 0.030 - 0.005; math.Abs(p.Self-want) > 1e-9 {
		t.Errorf("party self time %v, want %v", p.Self, want)
	}
	if busy, rw, sw := waits(p, spans[2:]); math.Abs(busy-p.Self) > 1e-9 || math.Abs(sw-0.015) > 1e-9 || math.Abs(rw-0.020) > 1e-9 {
		t.Errorf("waits: busy %v recv %v send %v", busy, rw, sw)
	}
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, round []float64) string {
		set := resultSet{Workloads: map[string]*setResults{"psc-lan": {Correct: true}}}
		for _, r := range round {
			set.Workloads["psc-lan"].EndToEnd = append(set.Workloads["psc-lan"].EndToEnd, map[string]float64{
				"setup_s": 0.3, "round_s": r, "events_per_s": 1e6, "cpu_s_per_round": 5, "wire_mb_per_round": 15, "alloc_mb_per_round": 500,
			})
		}
		b, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{3.00, 3.02, 3.04, 3.01, 2.99})
	for _, c := range []struct {
		name    string
		rounds  []float64
		verdict string
		code    int
	}{
		{"same.json", []float64{3.05, 3.03, 3.06, 3.02, 3.04}, "same", 0},
		{"worse.json", []float64{4.00, 4.02, 3.98, 4.01, 3.99}, "worse", 1},
		{"noisy.json", []float64{2.2, 3.8, 3.0, 2.3, 3.7}, "unresolved", 1},
	} {
		var buf bytes.Buffer
		code := compareSets(&buf, "../BENCHMARK.json", base, write(c.name, c.rounds))
		var row string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, " round_s ") {
				row = line
			}
		}
		if code != c.code || !strings.HasSuffix(row, c.verdict) {
			t.Errorf("%s: exit %d, round_s row %q; want exit %d and verdict %s", c.name, code, row, c.code, c.verdict)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
