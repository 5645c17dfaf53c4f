// Command sharekeeper runs one PrivCount share keeper as a long-lived
// daemon: it connects to the tally server once, registers its session,
// and serves every round the tally schedules over that connection —
// concurrently when rounds overlap — holding one seal keypair for the
// life of the session. PrivCount's privacy guarantee requires at least
// one honest share keeper (§2.3); operators run this binary on
// infrastructure independent of the tally server.
//
// The daemon survives tally churn: a dropped session is redialed with
// exponential backoff, re-registering under the pinned identity
// (-name, authenticated by -token). The seal keypair is
// held across reconnects, so rounds already configured against this
// SK's key are not orphaned by a session blip.
//
// Usage:
//
//	sharekeeper -tally 127.0.0.1:7001 -name sk-alpha [-pin <hex-spki>] [-token <secret>]
package main

import (
	"flag"
	"log"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/privcount"
	"repro/internal/wire"
)

func main() {
	p := daemon.PartyFlags(daemon.Spec{
		Prog: "sharekeeper", Role: engine.RoleSK,
		DefaultName: "sk-0", NameHelp: "share keeper name",
		ReconnectHelp: "max consecutive reconnect attempts before giving up",
	})
	flag.Parse()
	sk, err := privcount.NewSK(p.Name(), nil)
	if err != nil {
		log.Fatalf("%s: %v", p.Prefix(), err)
	}
	p.Main(func(sess *wire.Session, hello engine.Hello) error {
		return engine.ServeSK(sess, hello, sk)
	})
}
