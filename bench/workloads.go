package main

import (
	"fmt"
	"math/rand"
	"net/netip"

	"repro/internal/alexa"
	"repro/internal/asn"
	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/privcount"
	"repro/internal/tornet"
	torload "repro/internal/workload"
)

// workload is one named benchmark input: a fleet shape, a transport,
// and the per-round load. Exactly one of PSC, Priv, Ingest is set.
// Why is the reason the workload exists; BENCHMARK.json carries the
// same sentence.
type workload struct {
	Name string
	Why  string

	CPs, SKs, DCs int
	// TLS selects loopback TCP with a pinned TLS identity; otherwise
	// parties attach over in-memory pipes.
	TLS bool
	// Netem is a netem profile spec shaping both ends of every
	// connection; the run's seed is appended as ",seed=<n>".
	Netem string

	PSC    *pscLoad
	Priv   *privLoad
	Ingest *ingestLoad
}

// pscLoad sizes one PSC round.
type pscLoad struct {
	Bins, NoisePerCP int
	// ItemsPerDC distinct items per collector, of which the Overlap
	// share is seen by every collector (the union count is known).
	ItemsPerDC int
	Overlap    float64
	// ObservesPerDC Observe calls per collector per round: every item
	// once, then Zipf-weighted repeats, the way clients reconnect.
	ObservesPerDC int
}

// privLoad sizes one PrivCount round.
type privLoad struct {
	Stats, BinsPerStat int
	IncrementsPerDC    int
	Sigma              float64
}

// ingestLoad sizes one control-port replay into a live PSC round and
// a live PrivCount round.
type ingestLoad struct {
	// Events is the replayed trace length; Scale is the population
	// divisor that makes workload.Driver emit at least that many.
	Events  int
	Scale   float64
	PSCBins int
}

// workloads returns the four named workloads at full or smoke size.
// Full sizes were chosen on a 2-vCPU runner so that each workload
// completes several rounds inside one 20-second run (see README.md for
// how they relate to the sizes in the issue that defined them).
func workloads(smoke bool) []*workload {
	ws := []*workload{
		{
			Name: "psc-lan",
			Why:  "Crypto-bound PSC round on loopback TLS: elgamal, psc and parallel do nearly all the work, wire and netem almost none",
			CPs:  3, DCs: 4, TLS: true,
			PSC: &pscLoad{Bins: 1024, NoisePerCP: 128, ItemsPerDC: 150, Overlap: 0.5, ObservesPerDC: 50000},
		},
		{
			Name: "psc-wan",
			Why:  "Same PSC and wire code over netem wan-tor (600 ms RTT, 5 MB/s, seeded jitter, loss off): latency- and window-bound, crypto a small share",
			CPs:  3, DCs: 4, TLS: true, Netem: "wan-tor,loss=0",
			PSC: &pscLoad{Bins: 512, NoisePerCP: 128, ItemsPerDC: 100, Overlap: 0.5, ObservesPerDC: 50000},
		},
		{
			Name: "privcount-wide",
			Why:  "The paper's 16 DC / 3 SK PrivCount deployment with 100k counters: no elgamal at all, stresses privcount, chunk codecs, spill and 19-party wire fan-in",
			SKs:  3, DCs: 16,
			Priv: &privLoad{Stats: 100, BinsPerStat: 1000, IncrementsPerDC: 200000, Sigma: 10},
		},
		{
			Name: "ingest-replay",
			Why:  "Event plane only: a mock relay replays a Tor trace over the control port into live PSC and PrivCount DCs; protocol crypto is a small fixed tail",
			CPs:  2, SKs: 2, DCs: 1,
			Ingest: &ingestLoad{Events: 200000, Scale: 200, PSCBins: 1024},
		},
	}
	if smoke {
		ws[0].PSC = &pscLoad{Bins: 256, NoisePerCP: 16, ItemsPerDC: 40, Overlap: 0.5, ObservesPerDC: 400}
		ws[1].PSC = &pscLoad{Bins: 256, NoisePerCP: 16, ItemsPerDC: 40, Overlap: 0.5, ObservesPerDC: 400}
		ws[1].Netem = "lat=5ms,jitter=1ms,bw=5M"
		ws[2].Priv = &privLoad{Stats: 20, BinsPerStat: 100, IncrementsPerDC: 5000, Sigma: 10}
		ws[3].Ingest = &ingestLoad{Events: 20000, Scale: 2500, PSCBins: 256}
	}
	return ws
}

func findWorkload(ws []*workload, name string) *workload {
	for _, w := range ws {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// inputs is everything a run feeds the program under test, generated
// from the seed alone, plus the plaintext answers the oracle compares
// against.
type inputs struct {
	profile *netem.Profile

	// PSC: the Observe argument sequence per DC and the true union size.
	observes [][]string
	distinct int

	// PrivCount: the schema, the increments per DC (stat<<16 | bin),
	// and the plaintext tally per statistic and bin.
	stats     []privcount.StatConfig
	statNames []string
	incs      [][]uint32
	tally     map[string][]float64

	// Ingest: the replayed trace and how many of its events are
	// PRIVCOUNT_* lines a controller receives (all of them today).
	trace []event.Event
}

// events reports how many input events one round applies.
func (in *inputs) events() int {
	n := len(in.trace)
	for _, o := range in.observes {
		n += len(o)
	}
	for _, o := range in.incs {
		n += len(o)
	}
	return n
}

func generate(w *workload, seed int64) (*inputs, error) {
	in := &inputs{}
	if w.Netem != "" {
		p, err := netem.ParseProfile(fmt.Sprintf("%s,seed=%d", w.Netem, seed))
		if err != nil {
			return nil, err
		}
		in.profile = p
	}
	rng := rand.New(rand.NewSource(seed))
	switch {
	case w.PSC != nil:
		in.genPSC(w, rng)
	case w.Priv != nil:
		in.genPriv(w, rng)
	case w.Ingest != nil:
		if err := in.genIngest(w, seed); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// genPSC builds item sets with a controlled overlap: the first
// Overlap·ItemsPerDC items are common to every DC, the rest unique to
// one, so the union has a known size. Items are IPv4 strings, the
// shape cmd/datacollector feeds Observe.
func (in *inputs) genPSC(w *workload, rng *rand.Rand) {
	l := w.PSC
	shared := int(float64(l.ItemsPerDC) * l.Overlap)
	base := rng.Uint32()
	item := func(i int) string {
		v := base + uint32(i)
		return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}).String()
	}
	in.distinct = shared + w.DCs*(l.ItemsPerDC-shared)
	in.observes = make([][]string, w.DCs)
	for d := range in.observes {
		set := make([]string, 0, l.ItemsPerDC)
		for i := 0; i < shared; i++ {
			set = append(set, item(i))
		}
		for i := shared; i < l.ItemsPerDC; i++ {
			set = append(set, item(shared+d*(l.ItemsPerDC-shared)+(i-shared)))
		}
		rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		seq := append(make([]string, 0, l.ObservesPerDC), set...)
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(set)-1))
		for len(seq) < l.ObservesPerDC {
			seq = append(seq, set[zipf.Uint64()])
		}
		in.observes[d] = seq
	}
}

// genPriv builds the wide schema and Zipf-distributed increments (a
// few hot counters, a long tail), and tallies them in plaintext.
func (in *inputs) genPriv(w *workload, rng *rand.Rand) {
	l := w.Priv
	binNames := make([]string, l.BinsPerStat)
	for b := range binNames {
		binNames[b] = fmt.Sprintf("b%d", b)
	}
	in.tally = make(map[string][]float64, l.Stats)
	for s := 0; s < l.Stats; s++ {
		name := fmt.Sprintf("stat-%03d", s)
		in.statNames = append(in.statNames, name)
		in.stats = append(in.stats, privcount.StatConfig{Name: name, Bins: binNames, Sigma: l.Sigma})
		in.tally[name] = make([]float64, l.BinsPerStat)
	}
	statZipf := rand.NewZipf(rng, 1.1, 1, uint64(l.Stats-1))
	binZipf := rand.NewZipf(rng, 1.1, 1, uint64(l.BinsPerStat-1))
	in.incs = make([][]uint32, w.DCs)
	for d := range in.incs {
		seq := make([]uint32, l.IncrementsPerDC)
		for i := range seq {
			s, b := statZipf.Uint64(), binZipf.Uint64()
			seq[i] = uint32(s)<<16 | uint32(b)
			in.tally[in.statNames[s]][b]++
		}
		in.incs[d] = seq
	}
}

// fig1Stats is the Figure 1 schema cmd/datacollector counts into.
func fig1Stats(sigma float64) []privcount.StatConfig {
	return []privcount.StatConfig{
		{Name: "exit-streams", Bins: []string{"initial", "subsequent"}, Sigma: sigma},
		{Name: "initial-target", Bins: []string{"hostname", "ipv4", "ipv6"}, Sigma: sigma},
		{Name: "hostname-port", Bins: []string{"web", "other"}, Sigma: sigma},
	}
}

// genIngest captures a simulated day of the paper-calibrated Tor
// workload off the network's event bus and truncates it to a fixed
// length, so every seed replays the same number of events.
func (in *inputs) genIngest(w *workload, seed int64) error {
	l := w.Ingest
	trace, err := torTrace(l.Scale, uint64(seed), l.Events)
	if err != nil {
		return err
	}
	if len(trace) < l.Events {
		return fmt.Errorf("workload %s: scale %g yields %d events, want %d", w.Name, l.Scale, len(trace), l.Events)
	}
	in.trace = trace
	in.stats = fig1Stats(10)
	in.tally = make(map[string][]float64)
	for _, st := range in.stats {
		in.tally[st.Name] = make([]float64, len(st.Bins))
	}
	ips := make(map[netip.Addr]bool)
	for _, ev := range trace {
		switch e := ev.(type) {
		case *event.ConnectionEnd:
			ips[e.ClientIP] = true
		case *event.StreamEnd:
			fig1(e, func(stat string, bin int) { in.tally[stat][bin]++ })
		}
	}
	in.distinct = len(ips)
	return nil
}

// torTrace runs the tornet/workload simulation for one virtual day and
// returns the first limit events seen on the bus, in emission order
// interleaved across event types.
func torTrace(scale float64, seed uint64, limit int) ([]event.Event, error) {
	g := geo.Build(seed)
	cfg := tornet.DefaultConsensusConfig()
	cfg.Seed = seed
	cons, err := tornet.NewConsensus(cfg)
	if err != nil {
		return nil, err
	}
	net := tornet.NewNetwork(cons, g, asn.Build(g, seed))
	list := alexa.Generate(alexa.Config{N: 2000, Seed: seed})
	driver, err := torload.New(torload.DefaultParams(scale, seed), net, list)
	if err != nil {
		return nil, err
	}
	var all []event.Event
	net.Bus.Subscribe(func(e event.Event) { all = append(all, e) })
	driver.Run(1)
	// The driver emits a day's activity type by type; a seeded shuffle
	// interleaves the types the way a live relay would, so truncation
	// keeps the study's event mix.
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if len(all) > limit {
		all = all[:limit]
	}
	return all, nil
}

// fig1 is the Figure 1 stream-statistic mapping of cmd/datacollector.
func fig1(s *event.StreamEnd, inc func(stat string, bin int)) {
	if !s.IsInitial {
		inc("exit-streams", 1)
		return
	}
	inc("exit-streams", 0)
	switch s.Target {
	case event.TargetHostname:
		inc("initial-target", 0)
		bin := 1
		if s.IsWebPort() {
			bin = 0
		}
		inc("hostname-port", bin)
	case event.TargetIPv4:
		inc("initial-target", 1)
	case event.TargetIPv6:
		inc("initial-target", 2)
	}
}
