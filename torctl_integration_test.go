package repro

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCmdDeploymentTorControl runs the live-ingestion deployment as
// separate processes: two torsims, each serving the whole simulated day
// on its all control port; two datacollector daemons ingest PRIVCOUNT_*
// events over authenticated control connections (-tor-control), one
// per torsim; and a tally
// in -protocol both mode runs a PSC round and a PrivCount round
// concurrently over the same DC sessions. One relay authenticates by
// SAFECOOKIE cookie file, the other by password. The cookie relay
// drops its control connection mid-feed (-drop-after): the collector
// must reconnect, resume the replay, and both rounds must still
// complete. The tally's engine runs with a round deadline and a
// privacy-budget accountant, and dumps per-round and fleet metrics.
func TestCmdDeploymentTorControl(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process deployment test skipped in -short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	bindir := t.TempDir()
	for _, name := range []string{"torsim", "tally", "psc-cp", "sharekeeper", "datacollector"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(bindir, name), "./cmd/"+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}

	// Each torsim serves its all port, so both protocols see
	// observations on every DC; its second -wait connection is
	// openGate's. Relay A: cookie auth, and the churn drill — drop the
	// controller after 400 event lines, once.
	sim := []string{"-listen", "127.0.0.1:0", "-wait", "2", "-scale", "2000", "-days", "1", "-alexa", "2000"}
	cookiePath := filepath.Join(t.TempDir(), "control_auth_cookie")
	relayA := newProc(ctx, t, filepath.Join(bindir, "torsim"),
		append(sim, "-cookie-file", cookiePath, "-drop-after", "400")...)
	relayAAddr := relayA.waitForAddr(t, "torsim: relay all control port ")

	// Relay B: password auth, no drop.
	const password = "s3kr1t pass"
	relayB := newProc(ctx, t, filepath.Join(bindir, "torsim"), append(sim, "-password", password)...)
	relayBAddr := relayB.waitForAddr(t, "torsim: relay all control port ")

	// Tally in mixed mode: one PSC + one PrivCount round concurrently,
	// with a round deadline and a privacy budget that exactly covers
	// the pair.
	spec := "exit-streams:initial,subsequent:10;initial-target:hostname,ipv4,ipv6:10;hostname-port:web,other:10"
	tally := newProc(ctx, t, filepath.Join(bindir, "tally"),
		"-protocol", "both", "-listen", "127.0.0.1:0", "-tls",
		"-dcs", "2", "-sks", "2", "-cps", "2", "-stats", spec,
		"-bins", "1024", "-noise", "16", "-proof-rounds", "1",
		"-rounds", "1", "-concurrency", "1",
		"-round-deadline", "150s", "-budget", "2")
	tallyAddr := tally.waitForAddr(t, "listening on ")
	pin := tally.waitForAddr(t, "tally: fingerprint ")

	var procs []*proc
	for i := 0; i < 2; i++ {
		procs = append(procs, newProc(ctx, t, filepath.Join(bindir, "sharekeeper"),
			"-tally", tallyAddr, "-pin", pin, "-name", fmt.Sprintf("sk-%d", i)))
		procs = append(procs, newProc(ctx, t, filepath.Join(bindir, "psc-cp"),
			"-tally", tallyAddr, "-pin", pin, "-name", fmt.Sprintf("cp-%d", i)))
	}
	dcA := newProc(ctx, t, filepath.Join(bindir, "datacollector"),
		"-tally", tallyAddr, "-pin", pin, "-name", "dc-0",
		"-tor-control", relayAAddr, "-tor-cookie", cookiePath, "-relay", "0")
	dcB := newProc(ctx, t, filepath.Join(bindir, "datacollector"),
		"-tally", tallyAddr, "-pin", pin, "-name", "dc-1",
		"-tor-control", relayBAddr, "-tor-password", password, "-relay", "1")
	procs = append(procs, dcA, dcB, relayA, relayB)
	openGate(t, []*proc{dcA, dcB}, 2, relayAAddr, relayBAddr)

	for _, p := range procs {
		p.mustSucceed(t)
	}
	tally.mustSucceed(t)
	closedByTally(t, []*proc{dcA, dcB})

	out := tally.output()
	// Both rounds of the pair completed: one PSC distinct count, one
	// PrivCount statistic set, no failures.
	if got := strings.Count(out, "distinct count ="); got != 1 {
		t.Errorf("want 1 PSC result, got %d:\n%s", got, out)
	}
	if got := strings.Count(out, "results:"); got != 2 {
		t.Errorf("want 2 round results, got %d:\n%s", got, out)
	}
	for _, want := range []string{
		"exit-streams/initial =",
		"privacy budget capped at 2 rounds",
		"2/2 rounds complete",
		"fleet metrics:",
		"engine/psc/round/rounds-completed 1",
		"engine/privcount/round/rounds-completed 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tally output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "failed:") {
		t.Errorf("tally reported a failed round:\n%s", out)
	}
	// Both rounds ran while the days streamed: round 1 (PSC) counted
	// ~130 distinct clients, round 2 (PrivCount) ~30 000 subsequent
	// streams (sigma 10).
	countedDay(t, out, 1, "distinct count", 50)
	countedDay(t, out, 2, "exit-streams/subsequent", 200)
	if got := strings.Count(out, "metrics: wall="); got != 2 {
		t.Errorf("want 2 per-round metric lines, got %d:\n%s", got, out)
	}

	// The churn drill happened and was survived: relay A dropped the
	// connection, the collector reconnected and resumed.
	if !strings.Contains(relayA.output(), "churn drill") {
		t.Errorf("relay A never dropped the connection:\n%s", relayA.output())
	}
	outA := dcA.output()
	if !strings.Contains(outA, "reconnected to") {
		t.Errorf("dc-0 never reconnected:\n%s", outA)
	}
	if strings.Contains(outA, "reconnects=0") {
		t.Errorf("dc-0 reports zero reconnects despite the drill:\n%s", outA)
	}
	// The password-authenticated collector had an uneventful session
	// and consumed the full deterministic trace.
	outB := dcB.output()
	if !strings.Contains(outB, "reconnects=0") {
		t.Errorf("dc-1 reconnected unexpectedly:\n%s", outB)
	}
	if !strings.Contains(outB, "skipped=0") {
		t.Errorf("dc-1 skipped event lines:\n%s", outB)
	}
	t.Logf("tally output:\n%s", out)
}
