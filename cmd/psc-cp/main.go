// Command psc-cp runs one PSC computation party as a long-lived
// daemon: it connects to the tally server once, registers its session,
// and serves every round the tally schedules over that connection —
// concurrently when rounds overlap — holding one ElGamal key share for
// the life of the session. PSC's privacy holds if at least one CP is
// honest (§2.4); correctness is enforced on every CP by the attached
// zero-knowledge proofs.
//
// The daemon survives tally churn: a dropped session is redialed with
// exponential backoff, and the re-registration under the pinned
// identity (-name, authenticated by -token) rebinds the party in the
// tally's registry so subsequent rounds run at full strength.
//
// Usage:
//
//	psc-cp -tally 127.0.0.1:7001 -name cp-alpha [-pin <hex-spki>] [-token <secret>]
package main

import (
	"flag"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/wire"
)

func main() {
	p := daemon.PartyFlags(daemon.Spec{
		Prog: "psc-cp", Role: engine.RoleCP,
		DefaultName: "cp-0", NameHelp: "computation party name",
		ReconnectHelp: "max consecutive reconnect attempts before giving up",
		SpillHelp:     "directory for the shuffle's bounded-residency scratch files (empty: system temp)",
	})
	flag.Parse()
	p.Main(func(sess *wire.Session, hello engine.Hello) error {
		return engine.ServeCP(sess, hello, nil)
	})
}
