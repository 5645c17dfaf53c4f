package repro

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCmdDeployment builds the real binaries and runs the full daemon
// deployment as separate processes over TLS-pinned TCP loopback: torsim
// serving three datacollector daemons, each on its relay's control
// port, which, with two sharekeepers,
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
	// measuring exits) and a fourth connection, openGate's, so the day
	// streams into round 1.
	torsim := newProc(ctx, t, filepath.Join(bindir, "torsim"),
		"-listen", "127.0.0.1:0", "-wait", "4", "-scale", "20000", "-days", "1", "-alexa", "2000")
	ports := controlPorts(t, torsim, 0, 1, 2)

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

	var procs, dcs []*proc
	for i := 0; i < 2; i++ {
		procs = append(procs, newProc(ctx, t, filepath.Join(bindir, "sharekeeper"),
			"-tally", tallyAddr, "-pin", pin, "-name", fmt.Sprintf("sk-%d", i)))
	}
	for i := 0; i < 3; i++ {
		dcs = append(dcs, newProc(ctx, t, filepath.Join(bindir, "datacollector"),
			"-tally", tallyAddr, "-pin", pin, "-tor-control", ports[i],
			"-relay", fmt.Sprintf("%d", i), "-name", fmt.Sprintf("dc-%d", i)))
	}
	openGate(t, dcs, 1, ports[0]) // round 2 is aborted before it collects

	for _, p := range append(append(procs, dcs...), torsim) {
		p.mustSucceed(t)
	}
	tally.mustSucceed(t)
	closedByTally(t, dcs)

	out := tally.output()
	// Round 1 ran while the day streamed, so it counted its ~900
	// subsequent streams (sigma 10).
	countedDay(t, out, 1, "exit-streams/subsequent", 200)
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

	// torsim waits for FOUR controller connections while only three DCs
	// start: the event stream — and with it the end of round 1 — is
	// gated on the restarted dc-2 connecting, so the kill below is
	// guaranteed to land mid-round however fast the machine runs the
	// simulation.
	torsim := newProc(ctx, t, filepath.Join(bindir, "torsim"),
		"-listen", "127.0.0.1:0", "-wait", "4", "-scale", "20000", "-days", "1", "-alexa", "2000")
	ports := controlPorts(t, torsim, 0, 1, 2)

	spec := "exit-streams:initial,subsequent:10;initial-target:hostname,ipv4,ipv6:10;hostname-port:web,other:10"
	tally := newProc(ctx, t, filepath.Join(bindir, "tally"),
		"-protocol", "privcount", "-listen", "127.0.0.1:0", "-tls",
		"-dcs", "3", "-sks", "2", "-stats", spec,
		"-rounds", "2", "-concurrency", "1",
		"-quorum", "dcs=2", "-rejoin-grace", "10s")
	tallyAddr := tally.waitForAddr(t, "listening on ")
	pin := tally.waitForAddr(t, "tally: fingerprint ")

	var procs, dcs []*proc
	for i := 0; i < 2; i++ {
		procs = append(procs, newProc(ctx, t, filepath.Join(bindir, "sharekeeper"),
			"-tally", tallyAddr, "-pin", pin, "-name", fmt.Sprintf("sk-%d", i)))
	}
	dcArgs := func(i int) []string {
		return []string{
			"-tally", tallyAddr, "-pin", pin, "-tor-control", ports[i],
			"-relay", fmt.Sprintf("%d", i), "-name", fmt.Sprintf("dc-%d", i),
			"-token", fmt.Sprintf("secret-%d", i),
		}
	}
	for i := 0; i < 2; i++ {
		dcs = append(dcs, newProc(ctx, t, filepath.Join(bindir, "datacollector"), dcArgs(i)...))
	}
	doomed := newProc(ctx, t, filepath.Join(bindir, "datacollector"), dcArgs(2)...)
	t.Cleanup(func() {
		if t.Failed() {
			for _, p := range append(append(procs, dcs...), doomed, torsim) {
				t.Logf("%s output:\n%s", p.name, p.output())
			}
		}
	})

	// Kill dc-2 once round 1 has begun collection on it: its blinding
	// shares are distributed, so the barrier is passed and the round
	// must degrade rather than resume it. dc-0 and dc-1 collect too, so
	// the day that the restart releases streams into round 1.
	for _, p := range append(dcs, doomed) {
		p.waitForAddr(t, "round 1 started")
	}
	doomed.cmd.Process.Kill()

	// Restart under the same pinned identity; the engine rebinds it and
	// round 2 runs at full strength.
	dcs = append(dcs, newProc(ctx, t, filepath.Join(bindir, "datacollector"), dcArgs(2)...))

	for _, p := range append(append(procs, dcs...), torsim) {
		p.mustSucceed(t)
	}
	tally.mustSucceed(t)
	closedByTally(t, dcs)

	out := tally.output()
	if got := strings.Count(out, "results:"); got != 2 {
		t.Fatalf("want 2 completed rounds, got %d:\n%s", got, out)
	}
	if got := strings.Count(out, "failed:"); got != 0 {
		t.Fatalf("want no failed rounds, got %d:\n%s", got, out)
	}
	// Round 1 counted dc-0's and dc-1's share of the day, ~500
	// subsequent streams (sigma 10).
	countedDay(t, out, 1, "exit-streams/subsequent", 200)
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

// TestCmdDeploymentPSC runs the PSC daemons: torsim serving two
// datacollectors on the control ports of two guard relays, a tally, and two computation
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

	// Guards are relays 6 and 7 in the default consensus; the third
	// connection is openGate's. At -scale 2000 the day holds enough
	// distinct clients to stand clear of the PSC noise.
	torsim := newProc(ctx, t, filepath.Join(bindir, "torsim"),
		"-listen", "127.0.0.1:0", "-wait", "3", "-scale", "2000", "-days", "1", "-alexa", "2000")
	ports := controlPorts(t, torsim, 6, 7)

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
	var dcs []*proc
	for i := 0; i < 2; i++ {
		dcs = append(dcs, newProc(ctx, t, filepath.Join(bindir, "datacollector"),
			"-tally", tallyAddr, "-tor-control", ports[i], "-netem", "lan",
			"-relay", fmt.Sprintf("%d", 6+i), "-name", fmt.Sprintf("dc-%d", i)))
	}
	openGate(t, dcs, 2, ports[0])
	for _, p := range append(append(procs, dcs...), torsim) {
		p.mustSucceed(t)
	}
	tally.mustSucceed(t)
	closedByTally(t, dcs)
	out := tally.output()
	if got := strings.Count(out, "distinct count ="); got != 2 {
		t.Fatalf("want 2 psc round results, got %d:\n%s", got, out)
	}
	// Both rounds counted the day's ~30 distinct clients; an empty
	// round estimates 0 with a standard deviation near 3.
	for round := 1; round <= 2; round++ {
		countedDay(t, out, round, "distinct count", 12)
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

// controlPorts reads the control-port addresses torsim prints for the
// given relays, which must be in ascending order: torsim prints its
// all port first, then every measuring relay's in id order.
func controlPorts(t *testing.T, torsim *proc, relays ...int) []string {
	t.Helper()
	ports := make([]string, len(relays))
	for i, r := range relays {
		ports[i] = torsim.waitForAddr(t, fmt.Sprintf("torsim: relay %d control port ", r))
	}
	return ports
}

// openGate makes the last -wait connection of each torsim, a probe
// that connects to its control port at addrs[i] and leaves, once every
// dc has started rounds rounds: the simulated day then streams into
// running rounds instead of passing before the tally starts them,
// which would leave every count at its noise.
func openGate(t *testing.T, dcs []*proc, rounds int, addrs ...string) {
	t.Helper()
	for _, p := range dcs {
		for range rounds {
			p.waitForAddr(t, " started (")
		}
	}
	for _, addr := range addrs {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("open torsim's gate: %v", err)
		}
		c.Close()
	}
}

// countedDay requires the value the tally printed for stat in round
// ("  round R stat = V (CI: ...)") to be at least least, set well above
// the noise: a round that saw none of the day's events prints about 0.
func countedDay(t *testing.T, out string, round int, stat string, least float64) {
	t.Helper()
	prefix := fmt.Sprintf("  round %d %s = ", round, stat)
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil || v < least {
				t.Errorf("round %d %s = %s, want at least %g: the round did not count the day:\n%s", round, stat, rest, least, out)
			}
			return
		}
	}
	t.Errorf("tally output has no %q line:\n%s", strings.TrimSpace(prefix), out)
}

// TestCmdDatacollectorRejectsBadFlags: a datacollector whose -relay
// cannot name a relay exits non-zero before it touches the control
// port or the tally, instead of wrapping the value into another relay.
func TestCmdDatacollectorRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process deployment test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "datacollector")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/datacollector").CombinedOutput(); err != nil {
		t.Fatalf("build datacollector: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-relay", "-1"}, "-relay -1 outside [0, 65535]"},
		{[]string{"-relay", "65536"}, "-relay 65536 outside [0, 65535]"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		args := append([]string{"-tally", "127.0.0.1:1", "-tor-control", "127.0.0.1:1"}, tc.args...)
		out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		switch {
		case timedOut:
			t.Errorf("datacollector %v still running after 20 s:\n%s", tc.args, out)
		case err == nil:
			t.Errorf("datacollector %v exited 0:\n%s", tc.args, out)
		case strings.Contains(string(out), "tor control"):
			t.Errorf("datacollector %v dialed its control port before refusing its flags:\n%s", tc.args, out)
		case !strings.Contains(string(out), tc.want):
			t.Errorf("datacollector %v output lacks %q:\n%s", tc.args, tc.want, out)
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

// closedByTally checks that each datacollector dcs[i], named dc-i and
// already reaped by mustSucceed, served until its tally hung up: a
// collector exits when its session ends, not after a count of rounds.
func closedByTally(t *testing.T, dcs []*proc) {
	t.Helper()
	for i, p := range dcs {
		want := fmt.Sprintf("datacollector dc-%d: session closed by tally", i)
		if !strings.Contains(p.output(), want) {
			t.Errorf("dc-%d output lacks %q:\n%s", i, want, p.output())
		}
	}
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.String()
}
