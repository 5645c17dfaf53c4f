package repro

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCmdDeployment builds the real binaries and runs the full daemon
// deployment as separate processes over TLS-pinned TCP loopback: torsim
// feeding three datacollector daemons which, with two sharekeepers,
// serve four PrivCount rounds over their single sessions — two
// concurrent, then two sequential — with round 2 aborted mid-stream by
// the tally. The abort must cost exactly that round: the sessions
// survive and the remaining rounds complete.
func TestCmdDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process deployment test skipped in -short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	bindir := t.TempDir()
	for _, name := range []string{"torsim", "tally", "sharekeeper", "datacollector"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(bindir, name), "./cmd/"+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}

	// torsim: small population, three collector slots (relays 0-2 are
	// measuring exits).
	torsim := newProc(ctx, t, filepath.Join(bindir, "torsim"),
		"-listen", "127.0.0.1:0", "-wait", "3", "-scale", "20000", "-days", "1", "-alexa", "2000")
	torsimAddr := torsim.waitForAddr(t, "torsim: listening on ")

	// tally: the Figure 1 statistic schema with small sigmas; four
	// rounds, two in flight at a time, the second cancelled mid-stream.
	spec := "exit-streams:initial,subsequent:10;initial-target:hostname,ipv4,ipv6:10;hostname-port:web,other:10"
	const rounds = 4
	tally := newProc(ctx, t, filepath.Join(bindir, "tally"),
		"-protocol", "privcount", "-listen", "127.0.0.1:0", "-tls",
		"-dcs", "3", "-sks", "2", "-stats", spec,
		"-rounds", fmt.Sprintf("%d", rounds), "-concurrency", "2", "-abort-round", "2")
	tallyAddr := tally.waitForAddr(t, "listening on ")
	pin := tally.waitForAddr(t, "tally: fingerprint ")

	var procs []*proc
	for i := 0; i < 2; i++ {
		procs = append(procs, newProc(ctx, t, filepath.Join(bindir, "sharekeeper"),
			"-tally", tallyAddr, "-pin", pin, "-name", fmt.Sprintf("sk-%d", i)))
	}
	for i := 0; i < 3; i++ {
		procs = append(procs, newProc(ctx, t, filepath.Join(bindir, "datacollector"),
			"-tally", tallyAddr, "-pin", pin, "-torsim", torsimAddr,
			"-rounds", fmt.Sprintf("%d", rounds),
			"-relay", fmt.Sprintf("%d", i), "-name", fmt.Sprintf("dc-%d", i)))
	}

	for _, p := range append(procs, torsim) {
		p.mustSucceed(t)
	}
	tally.mustSucceed(t)

	out := tally.output()
	// Three successful rounds, each with the full statistic set.
	if got := strings.Count(out, "results:"); got != rounds-1 {
		t.Fatalf("want %d successful rounds, got %d:\n%s", rounds-1, got, out)
	}
	for _, want := range []string{"exit-streams/initial =", "hostname-port/web ="} {
		if !strings.Contains(out, want) {
			t.Fatalf("tally output missing %q:\n%s", want, out)
		}
	}
	// The aborted round failed with the drill reason, nothing else did.
	if got := strings.Count(out, "failed:"); got != 1 {
		t.Fatalf("want exactly 1 failed round, got %d:\n%s", got, out)
	}
	if !strings.Contains(out, "operator abort drill") {
		t.Fatalf("tally output missing the abort reason:\n%s", out)
	}
	t.Logf("tally output:\n%s", out)
}

// TestCmdDeploymentChurn is the party-churn acceptance drill as real
// processes: three datacollector daemons serve a PrivCount fleet under
// a dcs=2 quorum; dc-2 is SIGKILLed mid-round after its contribution
// barrier (shares distributed, collection begun) and restarted with the
// same pinned identity and token. The in-flight round must complete
// degraded — result annotated with the absence, no wedge — and the next
// round must run at full party strength over the rejoined daemon.
func TestCmdDeploymentChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process deployment test skipped in -short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	bindir := t.TempDir()
	for _, name := range []string{"torsim", "tally", "sharekeeper", "datacollector"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(bindir, name), "./cmd/"+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}

	// The feed waits for FOUR collectors while only three DCs start:
	// the event stream — and with it the end of round 1 — is gated on
	// the restarted dc-2 subscribing, so the kill below is guaranteed
	// to land mid-round however fast the machine runs the simulation.
	torsim := newProc(ctx, t, filepath.Join(bindir, "torsim"),
		"-listen", "127.0.0.1:0", "-wait", "4", "-scale", "20000", "-days", "1", "-alexa", "2000")
	torsimAddr := torsim.waitForAddr(t, "torsim: listening on ")

	spec := "exit-streams:initial,subsequent:10;initial-target:hostname,ipv4,ipv6:10;hostname-port:web,other:10"
	tally := newProc(ctx, t, filepath.Join(bindir, "tally"),
		"-protocol", "privcount", "-listen", "127.0.0.1:0", "-tls",
		"-dcs", "3", "-sks", "2", "-stats", spec,
		"-rounds", "2", "-concurrency", "1",
		"-quorum", "dcs=2", "-rejoin-grace", "10s")
	tallyAddr := tally.waitForAddr(t, "listening on ")
	pin := tally.waitForAddr(t, "tally: fingerprint ")

	var procs []*proc
	for i := 0; i < 2; i++ {
		procs = append(procs, newProc(ctx, t, filepath.Join(bindir, "sharekeeper"),
			"-tally", tallyAddr, "-pin", pin, "-name", fmt.Sprintf("sk-%d", i)))
	}
	dcArgs := func(i, rounds int) []string {
		return []string{
			"-tally", tallyAddr, "-pin", pin, "-torsim", torsimAddr,
			"-rounds", fmt.Sprintf("%d", rounds),
			"-relay", fmt.Sprintf("%d", i), "-name", fmt.Sprintf("dc-%d", i),
			"-token", fmt.Sprintf("secret-%d", i),
		}
	}
	for i := 0; i < 2; i++ {
		procs = append(procs, newProc(ctx, t, filepath.Join(bindir, "datacollector"), dcArgs(i, 2)...))
	}
	doomed := newProc(ctx, t, filepath.Join(bindir, "datacollector"), dcArgs(2, 2)...)
	t.Cleanup(func() {
		if t.Failed() {
			for _, p := range append(procs, doomed, torsim) {
				t.Logf("%s output:\n%s", p.name, p.output())
			}
		}
	})

	// Kill dc-2 once round 1 has begun collection on it: its blinding
	// shares are distributed, so the barrier is passed and the round
	// must degrade rather than resume it.
	doomed.waitForAddr(t, "dc-2: round 1 started")
	doomed.cmd.Process.Kill()

	// Restart under the same pinned identity; the engine rebinds it and
	// round 2 runs at full strength.
	procs = append(procs, newProc(ctx, t, filepath.Join(bindir, "datacollector"), dcArgs(2, 1)...))

	for _, p := range append(procs, torsim) {
		p.mustSucceed(t)
	}
	tally.mustSucceed(t)

	out := tally.output()
	if got := strings.Count(out, "results:"); got != 2 {
		t.Fatalf("want 2 completed rounds, got %d:\n%s", got, out)
	}
	if got := strings.Count(out, "failed:"); got != 0 {
		t.Fatalf("want no failed rounds, got %d:\n%s", got, out)
	}
	if !strings.Contains(out, "round 1 degraded: absent parties: dc-2") {
		t.Fatalf("round 1 not annotated degraded without dc-2:\n%s", out)
	}
	if strings.Contains(out, "round 2 degraded") {
		t.Fatalf("round 2 ran degraded after the rejoin:\n%s", out)
	}
	// The restarted daemon re-registered under its pinned identity.
	if got := strings.Count(out, `datacollector "dc-2"`); got != 2 {
		t.Fatalf("want 2 dc-2 registrations (initial + rejoin), got %d:\n%s", got, out)
	}
	if !strings.Contains(out, "engine/parties-rejoined") {
		t.Fatalf("fleet metrics missing the rejoin counter:\n%s", out)
	}
	t.Logf("churn tally output:\n%s", out)
}

// TestCmdDeploymentPSC runs the PSC daemons: torsim feeding two
// datacollectors at guard relays, a tally, and two computation
// parties, counting unique client IPs across two concurrent rounds
// over single sessions. Every daemon runs with -netem lan, so the
// whole round trip flows through shaped connections — the flag, the
// profile parser, and the write-side shaper are all on the data path.
func TestCmdDeploymentPSC(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process deployment test skipped in -short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	bindir := t.TempDir()
	for _, name := range []string{"torsim", "tally", "psc-cp", "datacollector"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(bindir, name), "./cmd/"+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}

	torsim := newProc(ctx, t, filepath.Join(bindir, "torsim"),
		"-listen", "127.0.0.1:0", "-wait", "2", "-scale", "20000", "-days", "1", "-alexa", "2000")
	torsimAddr := torsim.waitForAddr(t, "torsim: listening on ")

	tally := newProc(ctx, t, filepath.Join(bindir, "tally"),
		"-protocol", "psc", "-listen", "127.0.0.1:0", "-netem", "lan",
		"-dcs", "2", "-cps", "2", "-bins", "1024", "-noise", "16", "-proof-rounds", "1",
		"-rounds", "2", "-concurrency", "2")
	tallyAddr := tally.waitForAddr(t, "listening on ")

	var procs []*proc
	for i := 0; i < 2; i++ {
		procs = append(procs, newProc(ctx, t, filepath.Join(bindir, "psc-cp"),
			"-tally", tallyAddr, "-netem", "lan", "-name", fmt.Sprintf("cp-%d", i)))
	}
	// Guards are relays 6 and 7 in the default consensus.
	for i := 0; i < 2; i++ {
		procs = append(procs, newProc(ctx, t, filepath.Join(bindir, "datacollector"),
			"-tally", tallyAddr, "-torsim", torsimAddr, "-rounds", "2", "-netem", "lan",
			"-relay", fmt.Sprintf("%d", 6+i), "-name", fmt.Sprintf("dc-%d", i)))
	}
	for _, p := range append(procs, torsim) {
		p.mustSucceed(t)
	}
	tally.mustSucceed(t)
	out := tally.output()
	if got := strings.Count(out, "distinct count ="); got != 2 {
		t.Fatalf("want 2 psc round results, got %d:\n%s", got, out)
	}
	t.Logf("psc tally output:\n%s", out)
}

// TestCmdTallyRejectsBadFlags: a tally whose flags cannot make a valid
// round exits non-zero before it listens, within seconds — it must not
// print "listening" and wait for a fleet whose arrival would only fail
// the round, or for a quorum above the DC count, run it all-required.
func TestCmdTallyRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process deployment test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "tally")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/tally").CombinedOutput(); err != nil {
		t.Fatalf("build tally: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-stats", "garbage"}, "bad stat spec"},
		{[]string{"-sks", "0"}, "need at least one SK"},
		{[]string{"-protocol", "psc", "-dcs", "2", "-quorum", "dcs=5"}, "DC quorum 5 out of range for 2 DCs"},
		{[]string{"-protocol", "both", "-dcs", "3", "-quorum", "dcs=4"}, "DC quorum 4 out of range for 3 DCs"},
		{[]string{"-quorum", "dcs=0"}, "bad quorum spec"},
		{[]string{"-protocol", "psc", "-proof-rounds", "0"}, "ShuffleProofRounds 0 outside [1,128]"},
		{[]string{"-protocol", "bogus"}, "unknown protocol"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		out, err := exec.CommandContext(ctx, bin, append([]string{"-listen", "127.0.0.1:0"}, tc.args...)...).CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		switch {
		case timedOut:
			t.Errorf("tally %v still running after 20 s:\n%s", tc.args, out)
		case err == nil:
			t.Errorf("tally %v exited 0:\n%s", tc.args, out)
		case strings.Contains(string(out), "listening"):
			t.Errorf("tally %v listened before refusing its flags:\n%s", tc.args, out)
		case !strings.Contains(string(out), tc.want):
			t.Errorf("tally %v output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// proc wraps a running command with captured output and line-watching.
type proc struct {
	cmd   *exec.Cmd
	name  string
	mu    sync.Mutex
	buf   strings.Builder
	lines chan string
	done  chan error
}

func newProc(ctx context.Context, t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{
		cmd:   exec.CommandContext(ctx, bin, args...),
		name:  filepath.Base(bin),
		lines: make(chan string, 256),
		done:  make(chan error, 1),
	}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = p.cmd.Stdout // interleave; Stdout is the pipe
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", p.name, err)
	}
	// Drain the pipe fully before reaping: Wait closes the pipe, so a
	// concurrent pump can lose the process's final output lines.
	go func() {
		p.pump(stdout)
		p.done <- p.cmd.Wait()
	}()
	t.Cleanup(func() { p.cmd.Process.Kill() })
	return p
}

func (p *proc) pump(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		p.buf.WriteString(line)
		p.buf.WriteByte('\n')
		p.mu.Unlock()
		select {
		case p.lines <- line:
		default:
		}
	}
	close(p.lines)
}

// waitForAddr scans output lines for a prefix and returns the rest of
// the line (the bound address).
// waitForAddr deadline: generous because `go test ./...` runs this
// package concurrently with the heavy core suite on 1-vCPU CI runners.
func (p *proc) waitForAddr(t *testing.T, prefix string) string {
	t.Helper()
	deadline := time.After(120 * time.Second)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("%s exited before printing %q:\n%s", p.name, prefix, p.output())
			}
			if i := strings.Index(line, prefix); i >= 0 {
				addr := strings.Fields(line[i+len(prefix):])[0]
				addr = strings.TrimSuffix(addr, ",")
				return addr
			}
		case <-deadline:
			t.Fatalf("%s did not print %q in time:\n%s", p.name, prefix, p.output())
		}
	}
}

func (p *proc) mustSucceed(t *testing.T) {
	t.Helper()
	select {
	case err := <-p.done:
		if err != nil {
			t.Fatalf("%s failed: %v\n%s", p.name, err, p.output())
		}
	case <-time.After(150 * time.Second):
		t.Fatalf("%s did not finish in time:\n%s", p.name, p.output())
	}
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.String()
}
