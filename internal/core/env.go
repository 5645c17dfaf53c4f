// Package core orchestrates the paper's experiments end to end: it
// builds the simulated Tor network at a configurable scale, deploys
// PrivCount and PSC across the measuring relays exactly as §3.1
// describes (a tally server, one data collector per relay, three share
// keepers or computation parties), runs virtual measurement days,
// applies the §3.3 statistical inference, and renders each table and
// figure of the paper with paper-reported values alongside.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/alexa"
	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/stats"
	"repro/internal/tornet"
	"repro/internal/workload"
)

// Env is the execution environment shared by experiments.
type Env struct {
	// Scale divides the simulated population. 100 reproduces 1% of Tor
	// (the benchmark default); tests use larger divisors.
	Scale float64
	// Seed drives all simulation randomness.
	Seed uint64
	// AlexaN is the synthetic top-sites list size (1M at paper scale).
	AlexaN int
	// ProofRounds is the PSC per-block cut-and-choose soundness
	// parameter; it must be ≥ 1 (every PSC round is verified).
	ProofRounds int
	// Netem is a WAN emulation profile spec (netem.ParseProfile syntax:
	// "lan", "wan-tor", "wan-tor,seed=42", ...) applied to every party
	// connection of the Env's fleet; empty runs over unshaped pipes.
	Netem string
	// AdaptiveWindow enables AIMD stream-window autotuning on the
	// fleet's sessions; WindowCap bounds the growth (0 selects
	// wire.DefaultWindowCap).
	AdaptiveWindow bool
	WindowCap      int
	// NoiseSeed, when nonzero, draws each PrivCount DC's Gaussian noise
	// from a stream derived from (NoiseSeed, DC name, round) instead of
	// crypto/rand, so a report repeats exactly: for tests that bound
	// point estimates, never for a measurement. PSC noise enters under
	// encryption at the CPs and stays cryptographic.
	NoiseSeed uint64

	alexaOnce sync.Once
	alexaList *alexa.List
	geoOnce   sync.Once
	geoDB     *geo.DB
	asnDB     *asn.DB

	// rt is the Env's persistent protocol fleet (harness.go): parties
	// register once and serve every experiment's rounds over
	// multiplexed sessions.
	rtMu sync.Mutex
	rt   *partyRuntime
}

// Alexa returns the environment's site list, built once.
func (e *Env) Alexa() *alexa.List {
	e.alexaOnce.Do(func() {
		e.alexaList = alexa.Generate(alexa.Config{N: e.AlexaN, Seed: e.Seed})
	})
	return e.alexaList
}

// Databases returns the GeoIP and AS databases, built once.
func (e *Env) Databases() (*geo.DB, *asn.DB) {
	e.geoOnce.Do(func() {
		e.geoDB = geo.Build(e.Seed)
		e.asnDB = asn.Build(e.geoDB, e.Seed)
	})
	return e.geoDB, e.asnDB
}

// Sim is one simulated deployment: network plus workload driver.
type Sim struct {
	Net    *tornet.Network
	Driver *workload.Driver
}

// BuildSim assembles a network with the given observation fractions and
// a paper-calibrated workload. The salt decorrelates populations across
// rounds of the same experiment (fresh measurement days).
func (e *Env) BuildSim(fr tornet.Fractions, salt uint64) (*Sim, error) {
	g, a := e.Databases()
	cfg := tornet.DefaultConsensusConfig()
	cfg.Fractions = fr
	cfg.Seed = e.Seed
	cons, err := tornet.NewConsensus(cfg)
	if err != nil {
		return nil, err
	}
	net := tornet.NewNetwork(cons, g, a)
	driver, err := workload.New(workload.DefaultParams(e.Scale, e.Seed^(salt*0x9E3779B97F4A7C15)), net, e.Alexa())
	if err != nil {
		return nil, err
	}
	return &Sim{Net: net, Driver: driver}, nil
}

// Row is one line of a rendered experiment report.
type Row struct {
	Label string
	// Value is the measured quantity with its 95% CI, already inferred
	// network-wide and converted to paper scale (multiplied by the
	// scale divisor) when Scaled is true.
	Value stats.Interval
	Unit  string
	// Paper is the value the paper reports for this row, as printed.
	Paper string
}

// Report is a rendered experiment.
type Report struct {
	ID    string
	Title string
	Rows  []Row
	Notes []string
}

// Add appends a row.
func (r *Report) Add(label string, v stats.Interval, unit, paper string) {
	r.Rows = append(r.Rows, Row{Label: label, Value: v, Unit: unit, Paper: paper})
}

// Note appends a free-text note.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	width := 10
	for _, row := range r.Rows {
		if len(row.Label) > width {
			width = len(row.Label)
		}
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-*s  %-34s %-8s paper: %s\n",
			width, row.Label, row.Value.String(), row.Unit, row.Paper)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// An ExperimentFunc reproduces one paper artifact.
type ExperimentFunc func(e *Env) (*Report, error)

var registry = map[string]ExperimentFunc{}
var registryTitles = map[string]string{}

// Register adds an experiment to the registry; called from init()
// functions of the exp_*.go files.
func Register(id, title string, fn ExperimentFunc) {
	if _, dup := registry[id]; dup {
		panic("core: duplicate experiment " + id)
	}
	registry[id] = fn
	registryTitles[id] = title
}

// Run executes a registered experiment.
func Run(id string, e *Env) (*Report, error) {
	fn, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown experiment %q (have: %s)", id, strings.Join(Experiments(), ", "))
	}
	return fn(e)
}

// Experiments lists registered experiment ids in sorted order.
func Experiments() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's title.
func Title(id string) string { return registryTitles[id] }
