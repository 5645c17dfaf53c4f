// Command experiment reproduces any table or figure from the paper by
// id, running the full pipeline: simulated Tor network, PrivCount/PSC
// protocol rounds across the measuring relays, statistical inference,
// and a rendered comparison against the paper's reported values.
//
// Usage:
//
//	experiment -list
//	experiment -id fig1
//	experiment -id table5 -scale 400 -seed 7
//	experiment -all
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
)

func main() {
	id := flag.String("id", "", "experiment id (see -list)")
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list experiment ids")
	scale := flag.Float64("scale", 400, "population scale divisor (100 = 1% of Tor)")
	seed := flag.Uint64("seed", 2018, "simulation seed")
	alexaN := flag.Int("alexa", 200000, "synthetic Alexa list size")
	proofRounds := flag.Int("proof-rounds", 2, "PSC per-block shuffle-proof rounds (1 to 128)")
	netemSpec := flag.String("netem", "", "WAN emulation profile shaping every party connection (lan, wan-good, wan-tor, or key=value spec; empty: unshaped pipes)")
	adaptiveWindow := flag.Bool("adaptive-window", true, "autotune stream windows toward the measured bandwidth-delay product")
	windowCap := flag.Int("window-cap", 0, "adaptive stream-window growth bound in bytes (0: wire default, 16 MiB)")
	flag.Parse()

	if *list {
		for _, eid := range core.Experiments() {
			fmt.Printf("  %-8s %s\n", eid, core.Title(eid))
		}
		return
	}

	env := &core.Env{
		Scale: *scale, Seed: *seed, AlexaN: *alexaN, ProofRounds: *proofRounds,
		Netem: *netemSpec, AdaptiveWindow: *adaptiveWindow, WindowCap: *windowCap,
	}

	ids := []string{*id}
	if *all {
		ids = core.Experiments()
	} else if *id == "" {
		fmt.Fprintln(os.Stderr, "need -id, -all, or -list")
		flag.Usage()
		os.Exit(2)
	}

	for _, eid := range ids {
		start := time.Now()
		rep, err := core.Run(eid, env)
		if err != nil {
			log.Fatalf("experiment %s: %v", eid, err)
		}
		fmt.Print(rep)
		fmt.Printf("  (completed in %v at scale 1/%g)\n\n", time.Since(start).Round(time.Millisecond), *scale)
	}
}
