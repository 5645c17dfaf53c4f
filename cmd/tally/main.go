// Command tally runs a long-lived tally server: parties connect once
// over multiplexed (optionally TLS-pinned) sessions, and the server
// schedules any number of measurement rounds — sequentially or
// concurrently — over those persistent connections, printing each
// round's aggregate. It is the TS role of §3.1 grown into the daemon
// the deployment ran for months.
//
// PrivCount rounds with 16 DCs and 3 SKs counting two statistics:
//
//	tally -protocol privcount -listen 127.0.0.1:7001 -dcs 16 -sks 3 \
//	      -rounds 4 -concurrency 2 \
//	      -stats "exit-streams:initial,subsequent:3100;bytes::1e6"
//
// PSC rounds with 10 DCs and 3 CPs:
//
//	tally -protocol psc -listen 127.0.0.1:7001 -dcs 10 -cps 3 \
//	      -bins 4096 -noise 64
//
// With -protocol both, each scheduling step starts a PSC round and a
// PrivCount round concurrently over the same DC sessions (-rounds
// counts pairs) — the deployment shape where one relay fleet serves
// unique-client counting and stream statistics at once.
//
// Operational guards: -round-deadline aborts any round that overruns
// it (a stalled party costs its round, not the fleet); -budget N
// refuses rounds beyond N times the study's per-round (ε,δ) spend, so
// the privacy guarantee survives operator enthusiasm. Each completed
// round prints its wall-clock and stream-byte metrics, and the daemon
// dumps the fleet-wide counters before exiting.
//
// Party churn: the accept loop runs for the daemon's whole life, so a
// party daemon that died can reconnect and re-register under its
// pinned identity (role and -name, plus -token). With -quorum dcs=K a round
// that loses a data collector past its contribution barrier completes
// degraded — the result annotated with the absent parties — instead of
// wedging, aborting only below K contributing DCs; -rejoin-grace is
// how long an in-flight round waits for a dropped party to rejoin and
// resume before declaring it absent.
//
// With -tls the server generates an ephemeral identity and prints its
// SPKI fingerprint; parties pin it via their -pin flag. -abort-round N
// cancels the Nth scheduled round mid-flight (an operator cancel /
// timeout drill): the round fails, every other round and session is
// unaffected.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/dp"
	"repro/internal/engine"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/stats"
	"repro/internal/wire"
)

var printMu sync.Mutex

func printf(format string, args ...any) {
	printMu.Lock()
	defer printMu.Unlock()
	fmt.Printf(format, args...)
}

func main() {
	protocol := flag.String("protocol", "privcount", "privcount, psc, or both")
	listen := flag.String("listen", "127.0.0.1:7001", "address to accept parties on")
	useTLS := flag.Bool("tls", false, "serve TLS with an ephemeral pinned identity")
	dcs := flag.Int("dcs", 1, "number of data collectors")
	sks := flag.Int("sks", 1, "number of share keepers (privcount)")
	cps := flag.Int("cps", 1, "number of computation parties (psc)")
	statsSpec := flag.String("stats", "count::0", "privcount statistics: name:bin1,bin2:sigma;...")
	bins := flag.Int("bins", 4096, "psc hash-table size")
	noise := flag.Int("noise", 64, "psc noise coins per CP")
	proofRounds := flag.Int("proof-rounds", 8, "psc per-block shuffle-proof rounds (1 to 128)")
	rounds := flag.Int("rounds", 1, "number of rounds (or round pairs with -protocol both)")
	concurrency := flag.Int("concurrency", 1, "rounds (or pairs) in flight at once")
	abortRound := flag.Int("abort-round", 0, "abort the Nth scheduled round mid-flight (0: none)")
	roundDeadline := flag.Duration("round-deadline", 0, "abort any round not finished within this duration (0: none)")
	budget := flag.Int("budget", 0, "refuse rounds beyond N times the per-round study (ε,δ) budget (0: unlimited)")
	budgetFile := flag.String("budget-file", "", "JSON ledger persisting spent budget across restarts (written on every spend)")
	common := daemon.CommonFlags("every connection", "directory for bounded-residency tally scratch files (empty: system temp)")
	rejoinGrace := flag.Duration("rejoin-grace", 0, "how long a round waits for a dropped party to rejoin before degrading (0: degrade immediately)")
	quorumSpec := flag.String("quorum", "", "DC quorum, e.g. dcs=2: rounds complete degraded with at least this many DCs (empty: all DCs required)")
	flag.Parse()

	// A bad protocol, quorum, stats or round flag fails here, not after
	// the whole fleet has dialled in.
	var numParties int
	switch *protocol {
	case "privcount":
		numParties = *dcs + *sks
	case "psc":
		numParties = *dcs + *cps
	case "both":
		numParties = *dcs + *sks + *cps
	default:
		log.Fatalf("unknown protocol %q", *protocol)
	}
	minDCs, err := parseQuorum(*quorumSpec)
	if err != nil {
		log.Fatal(err)
	}
	cfgStats, err := parseStats(*statsSpec)
	if err != nil {
		log.Fatal(err)
	}
	pscCfg := psc.Config{
		Bins: *bins, NoisePerCP: *noise, ShuffleProofRounds: *proofRounds,
		NumDCs: *dcs, NumCPs: *cps, MinDCs: minDCs,
	}
	privCfg := privcount.TallyConfig{Stats: cfgStats, NumDCs: *dcs, NumSKs: *sks, MinDCs: minDCs}
	var invalid []error
	if *protocol != "privcount" {
		invalid = append(invalid, pscCfg.Validate())
	}
	if *protocol != "psc" {
		invalid = append(invalid, privCfg.Validate())
	}
	if err := errors.Join(invalid...); err != nil {
		log.Fatalf("tally: %v", err)
	}
	connOpts, err := common.Start("tally")
	if err != nil {
		log.Fatalf("tally: %v", err)
	}
	var tlsCfg *wire.Identity
	var ln wire.Listener
	if *useTLS {
		tlsCfg, err = wire.GenerateIdentity("tally", 24*time.Hour)
		if err != nil {
			log.Fatal(err)
		}
		ln, err = wire.Listen(*listen, tlsCfg.ServerTLS(), connOpts...)
	} else {
		ln, err = wire.Listen(*listen, nil, connOpts...)
	}
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	printf("tally: %s listening on %s\n", *protocol, ln.Addr())
	if tlsCfg != nil {
		printf("tally: fingerprint %s\n", tlsCfg.Fingerprint())
	}

	// Phase 1: parties register their sessions once.
	eng := engine.New()
	defer eng.Close()
	if *roundDeadline > 0 {
		eng.SetRoundDeadline(*roundDeadline)
	}
	if *rejoinGrace > 0 {
		eng.SetRejoinGrace(*rejoinGrace)
	}
	if *budget > 0 || *budgetFile != "" {
		// The paper's per-round spend, capped at N rounds' worth by
		// sequential composition; the engine refuses the (N+1)th round.
		// The ledger file makes the spend durable: a restarted daemon
		// resumes the epoch where it left off instead of forgetting
		// what it already released.
		acct := dp.StudyAccountant()
		if *budget > 0 {
			per := dp.StudyParams()
			total := dp.Params{Epsilon: per.Epsilon * float64(*budget), Delta: per.Delta * float64(*budget)}
			if err := acct.SetBudget(total); err != nil {
				log.Fatal(err)
			}
			printf("tally: privacy budget capped at %d rounds (ε=%.4g, δ=%.3g)\n", *budget, total.Epsilon, total.Delta)
		}
		if *budgetFile != "" {
			if err := acct.SetLedger(*budgetFile); err != nil {
				log.Fatal(err)
			}
			if n := acct.Rounds(); n > 0 {
				printf("tally: budget ledger %s resumes with %d rounds already spent\n", *budgetFile, n)
			}
		}
		eng.SetAccountant(acct)
	}
	// The accept loop runs for the daemon's whole life: after the fleet
	// assembles, further sessions are rejoining daemons re-registering
	// under their pinned identities (the engine rebinds them,
	// latest-wins) — or rejected token mismatches, whose sessions are
	// closed.
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed at exit
			}
			go func() {
				sess := wire.NewSession(c, false)
				h, err := eng.AcceptSession(sess)
				if err != nil {
					printf("tally: session rejected: %v\n", err)
					sess.Close()
					return
				}
				nCPs, nSKs, nDCs := eng.Counts()
				printf("tally: party connected: %s %q (%d/%d registered)\n",
					h.Role, h.Name, nCPs+nSKs+nDCs, numParties)
			}()
		}
	}()
	wantSKs, wantCPs := *sks, *cps
	if *protocol == "psc" {
		wantSKs = 0
	}
	if *protocol == "privcount" {
		wantCPs = 0
	}
	if err := eng.WaitParties(wantCPs, wantSKs, *dcs, 0); err != nil {
		log.Fatal(err)
	}
	printf("tally: fleet assembled: %d parties\n", numParties)

	// Phase 2: schedule rounds over the persistent sessions, at most
	// -concurrency scheduling steps in flight.
	startPSC := func() (*engine.Round, error) {
		return eng.StartPSC(pscCfg, nil)
	}
	startPriv := func() (*engine.Round, error) {
		return eng.StartPrivCount(privCfg, nil)
	}

	if *concurrency < 1 {
		*concurrency = 1
	}
	sem := make(chan struct{}, *concurrency)
	var wg sync.WaitGroup
	var failed, refused, drilled int
	var countMu sync.Mutex
	for seq := 1; seq <= *rounds; seq++ {
		sem <- struct{}{}
		var starts []func() (*engine.Round, error)
		switch *protocol {
		case "psc":
			starts = []func() (*engine.Round, error){startPSC}
		case "privcount":
			starts = []func() (*engine.Round, error){startPriv}
		case "both":
			starts = []func() (*engine.Round, error){startPSC, startPriv}
		}
		var stepRounds []*engine.Round
		for _, start := range starts {
			round, err := start()
			if errors.Is(err, dp.ErrBudgetExhausted) {
				printf("tally: round refused (seq %d/%d): %v\n", seq, *rounds, err)
				refused++
				continue
			}
			if err != nil {
				log.Fatalf("tally: schedule round (seq %d): %v", seq, err)
			}
			printf("tally: round %d scheduled: %s (seq %d/%d)\n", round.ID, round.Label, seq, *rounds)
			stepRounds = append(stepRounds, round)
		}
		aborted := seq == *abortRound && len(stepRounds) > 0
		if aborted {
			// Cancel while the streams are live and the protocol is (at
			// most) registering: the aborted rounds must fail, every
			// other round and session must not notice.
			for _, r := range stepRounds {
				r.Abort("operator abort drill")
			}
			countMu.Lock()
			drilled += len(stepRounds)
			countMu.Unlock()
		}
		wg.Add(1)
		go func(seq int, rs []*engine.Round, aborted bool) {
			defer wg.Done()
			defer func() { <-sem }()
			var stepWG sync.WaitGroup
			for _, r := range rs {
				stepWG.Add(1)
				go func(r *engine.Round) {
					defer stepWG.Done()
					err := waitAndPrint(r, cfgStats)
					if err != nil && !aborted {
						countMu.Lock()
						failed++
						countMu.Unlock()
					}
				}(r)
			}
			stepWG.Wait()
		}(seq, stepRounds, aborted)
	}
	wg.Wait()
	total := *rounds * len(protocolLabels(*protocol))
	printf("tally: %d/%d rounds complete\n", total-failed-refused-drilled, total)
	var dump strings.Builder
	if err := eng.Metrics().Dump(&dump); err == nil && dump.Len() > 0 {
		printMu.Lock()
		fmt.Println("tally: fleet metrics:")
		for _, line := range strings.Split(strings.TrimRight(dump.String(), "\n"), "\n") {
			fmt.Println("  " + line)
		}
		printMu.Unlock()
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func protocolLabels(protocol string) []string {
	if protocol == "both" {
		return []string{engine.LabelPSC, engine.LabelPrivCount}
	}
	return []string{protocol}
}

// waitAndPrint blocks on one round, prints its result or failure, and
// its resource metrics either way.
func waitAndPrint(r *engine.Round, cfgStats []privcount.StatConfig) error {
	var err error
	if r.Label == engine.LabelPSC {
		var res psc.Result
		res, err = r.WaitPSC()
		if err == nil {
			printPSC(r.ID, res)
		}
	} else {
		var res map[string][]float64
		res, err = r.WaitPrivCount()
		if err == nil {
			printPrivCount(r.ID, cfgStats, res)
		}
	}
	if err != nil {
		printf("tally: round %d failed: %v\n", r.ID, err)
	}
	if absent := r.Absent(); len(absent) > 0 && err == nil {
		printf("tally: round %d degraded: absent parties: %s\n", r.ID, strings.Join(absent, ", "))
	}
	st := r.Stats()
	printf("tally: round %d metrics: wall=%.3fs sent=%dB recv=%dB\n",
		r.ID, st.Seconds, st.BytesSent, st.BytesRecv)
	return err
}

func printPrivCount(round uint64, cfgStats []privcount.StatConfig, res map[string][]float64) {
	printMu.Lock()
	defer printMu.Unlock()
	fmt.Printf("tally: round %d results:\n", round)
	for _, st := range cfgStats {
		vals := res[st.Name]
		for i, bin := range st.Bins {
			label := bin
			if label == "" {
				label = "(value)"
			}
			iv := stats.NormalCI(vals[i], st.Sigma)
			fmt.Printf("  round %d %s/%s = %s\n", round, st.Name, label, iv)
		}
	}
}

func printPSC(round uint64, res psc.Result) {
	iv, err := stats.UnionCardinalityCI(stats.PSCObservation{
		Reported: res.Reported, Bins: res.Bins, NoiseTrials: res.NoiseTrials,
	})
	printMu.Lock()
	defer printMu.Unlock()
	if err != nil {
		fmt.Printf("tally: round %d estimator: %v\n", round, err)
		return
	}
	fmt.Printf("tally: round %d results:\n", round)
	fmt.Printf("  round %d reported=%d bins=%d noise-trials=%d\n", round, res.Reported, res.Bins, res.NoiseTrials)
	fmt.Printf("  round %d distinct count = %s\n", round, iv)
}

// parseQuorum parses a -quorum spec, "dcs=K" or the bare K with K ≥ 1,
// into a DC quorum floor; the empty spec is 0, every DC required.
func parseQuorum(spec string) (int, error) {
	if spec == "" {
		return 0, nil
	}
	k, err := strconv.Atoi(strings.TrimPrefix(spec, "dcs="))
	if err != nil || k < 1 {
		return 0, fmt.Errorf("tally: bad quorum spec %q (want dcs=K, K ≥ 1)", spec)
	}
	return k, nil
}

// parseStats parses "name:bin1,bin2:sigma;name2::sigma2".
func parseStats(spec string) ([]privcount.StatConfig, error) {
	var out []privcount.StatConfig
	for _, part := range strings.Split(spec, ";") {
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad stat spec %q (want name:bins:sigma)", part)
		}
		bins := strings.Split(fields[1], ",")
		sigma, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad sigma in %q: %v", part, err)
		}
		out = append(out, privcount.StatConfig{Name: fields[0], Bins: bins, Sigma: sigma})
	}
	return out, nil
}
