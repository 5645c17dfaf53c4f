package core

import (
	"repro/internal/event"
	"repro/internal/stats"
	"repro/internal/tornet"
)

func init() {
	Register("fig1", "Exit stream counts by type over 24h (Figure 1)", runFig1)
}

// Figure 1 statistic names and bins.
const (
	statStreams  = "exit-streams"   // bins: initial, subsequent
	statInitial  = "initial-target" // bins: hostname, ipv4, ipv6
	statHostPort = "hostname-port"  // bins: web, other
)

// fig1Counters declares the round's statistics. Sensitivities derive
// from Table 1: a user connects to ≤20 domains/day, each opening one
// circuit with one initial stream and a bounded number of subsequent
// streams; 600 streams/day is a conservative per-user stream bound.
func fig1Counters() []CounterSpec {
	return []CounterSpec{
		{Name: statStreams, Bins: []string{"initial", "subsequent"},
			Sensitivity: 600, Expected: 2.0e9 * 0.015},
		{Name: statInitial, Bins: []string{"hostname", "ipv4", "ipv6"},
			Sensitivity: 20, Expected: 1.0e8 * 0.015},
		{Name: statHostPort, Bins: []string{"web", "other"},
			Sensitivity: 20, Expected: 1.0e8 * 0.015},
	}
}

// Fig1Handle is the Figure 1 stream-statistic mapping: it counts one
// exit stream-end event into the fig1Counters statistics through inc,
// and ignores every other event. The experiment's rounds and the
// datacollector daemon's PrivCount rounds both count through it.
func Fig1Handle(ev event.Event, inc Incrementer) {
	s, ok := ev.(*event.StreamEnd)
	if !ok {
		return
	}
	if !s.IsInitial {
		inc(statStreams, 1, 1)
		return
	}
	inc(statStreams, 0, 1)
	switch s.Target {
	case event.TargetHostname:
		inc(statInitial, 0, 1)
		if s.IsWebPort() {
			inc(statHostPort, 0, 1)
		} else {
			inc(statHostPort, 1, 1)
		}
	case event.TargetIPv4:
		inc(statInitial, 1, 1)
	case event.TargetIPv6:
		inc(statInitial, 2, 1)
	}
}

// runFig1 reproduces the Figure 1 measurement: a 24-hour PrivCount
// round at 1.5% exit weight counting streams by category, inferred
// network-wide by dividing by the exit fraction (§4.2).
func runFig1(e *Env) (*Report, error) {
	fr := tornet.StudyFractions()
	fr.Exit = 0.015
	res, err := e.RunPrivCount(PrivCountRun{
		Fractions: fr,
		Days:      1,
		Counters:  fig1Counters(),
		Handle:    Fig1Handle,
		Salt:      0x0F16_0001,
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "fig1", Title: "Exit streams by type over 24 hours (network-wide)"}
	infer := func(stat string, bin int) (stats.Interval, error) {
		iv, err := stats.InferTotal(res.Interval(stat, bin), fr.Exit)
		if err != nil {
			return stats.Interval{}, err
		}
		return e.paperScale(iv).ClampNonNegative(), nil
	}

	initial, err := infer(statStreams, 0)
	if err != nil {
		return nil, err
	}
	subsequent, err := infer(statStreams, 1)
	if err != nil {
		return nil, err
	}
	total := stats.Interval{
		Value: initial.Value + subsequent.Value,
		Lo:    initial.Lo + subsequent.Lo,
		Hi:    initial.Hi + subsequent.Hi,
	}
	rep.Add("(a) total streams", total, "streams", "~2.1e9")
	rep.Add("(a) initial", initial, "streams", "~5% of total")
	rep.Add("(a) subsequent", subsequent, "streams", "~95% of total")

	for bin, label := range []string{"hostname", "ipv4", "ipv6"} {
		iv, err := infer(statInitial, bin)
		if err != nil {
			return nil, err
		}
		paper := "≈ all initial"
		if bin > 0 {
			paper = "≈ 0 (noise)"
		}
		rep.Add("(b) initial "+label, iv, "streams", paper)
	}
	for bin, label := range []string{"web port", "other port"} {
		iv, err := infer(statHostPort, bin)
		if err != nil {
			return nil, err
		}
		paper := "≈ all hostname"
		if bin > 0 {
			paper = "≈ 0 (noise)"
		}
		rep.Add("(c) hostname "+label, iv, "streams", paper)
	}
	rep.Note("exit weight %.2f%%; values ×%g to paper scale", fr.Exit*100, e.Scale)
	return rep, nil
}
