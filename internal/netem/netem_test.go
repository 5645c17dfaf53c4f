package netem

import (
	"bytes"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestPacerDeterministic pins the subsystem's core guarantee: the
// delivery schedule for a given (profile, write sequence) pair is a
// pure function of the profile's seed.
func TestPacerDeterministic(t *testing.T) {
	p := Profile{
		Latency: 20 * time.Millisecond, Jitter: 8 * time.Millisecond,
		Bandwidth: 2_000_000, Loss: 0.05, Seed: 7,
	}
	writes := []struct {
		at time.Duration
		n  int
	}{
		{0, 4096}, {time.Millisecond, 16384}, {time.Millisecond, 512},
		{5 * time.Millisecond, 16384}, {40 * time.Millisecond, 1000},
		{41 * time.Millisecond, 16384}, {90 * time.Millisecond, 8192},
	}
	schedule := func(p Profile) []time.Duration {
		pc := newPacer(p)
		var out []time.Duration
		for _, w := range writes {
			out = append(out, pc.next(w.at, w.n))
		}
		return out
	}
	a, b := schedule(p), schedule(p)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at write %d: %v vs %v", i, a[i], b[i])
		}
	}
	p2 := p
	p2.Seed = 8
	c := schedule(p2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestPacerOrderedMonotone checks the byte-stream invariant: due times
// never go backwards, whatever jitter and RTO stalls each chunk drew.
func TestPacerOrderedMonotone(t *testing.T) {
	p := Profile{
		Latency: 10 * time.Millisecond, Jitter: 30 * time.Millisecond,
		Bandwidth: 1_000_000, Loss: 0.3, Seed: 3,
	}
	pc := newPacer(p)
	var last time.Duration
	for i := 0; i < 500; i++ {
		due := pc.next(time.Duration(i)*time.Millisecond, 2000)
		if due < last {
			t.Fatalf("due time went backwards: %v after %v", due, last)
		}
		last = due
	}
}

// TestPacerBandwidth checks the token bucket: a burst of writes at
// t=0 must serialize at the profile bandwidth.
func TestPacerBandwidth(t *testing.T) {
	p := Profile{Latency: time.Millisecond, Bandwidth: 1_000_000, Seed: 1}
	pc := newPacer(p)
	var due time.Duration
	for i := 0; i < 10; i++ {
		due = pc.next(0, 100_000) // 1 MB total at 1 MB/s
	}
	if due < time.Second || due > 1200*time.Millisecond {
		t.Fatalf("1 MB at 1 MB/s should deliver near 1s, got %v", due)
	}
}

// TestWrapLatencyAndIntegrity moves bulk data through a netem pipe and
// checks both the payload integrity and that the one-way latency was
// actually imposed.
func TestWrapLatencyAndIntegrity(t *testing.T) {
	const lat = 30 * time.Millisecond
	a, b := Pipe(Profile{Latency: lat, Seed: 1})
	defer a.Close()
	defer b.Close()

	payload := bytes.Repeat([]byte("netem"), 40_000) // 200 KB, multiple MTUs
	errCh := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := a.Write(payload)
		errCh <- err
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted in transit")
	}
	if elapsed < lat {
		t.Fatalf("delivery took %v, faster than the %v one-way latency", elapsed, lat)
	}
}

// TestWrapRTT checks that shaping both ends doubles the latency into a
// full round trip at the wire layer.
func TestWrapRTT(t *testing.T) {
	const lat = 20 * time.Millisecond
	ca, cb := Pipe(Profile{Latency: lat, Seed: 1})
	a, b := wire.NewConn(ca), wire.NewConn(cb)
	defer a.Close()
	defer b.Close()

	go func() {
		var v int
		if err := b.Expect("ping", &v); err != nil {
			return
		}
		b.Send("pong", v)
	}()
	start := time.Now()
	if err := a.Send("ping", 1); err != nil {
		t.Fatal(err)
	}
	var v int
	if err := a.Expect("pong", &v); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 2*lat {
		t.Fatalf("round trip took %v, want >= %v", rtt, 2*lat)
	}
}

// TestParseProfile exercises preset lookup, overrides, custom specs,
// and rejection of malformed input.
func TestParseProfile(t *testing.T) {
	if p, err := ParseProfile(""); err != nil || p != nil {
		t.Fatalf("empty spec: want nil,nil got %v,%v", p, err)
	}
	p, err := ParseProfile("wan-tor")
	if err != nil {
		t.Fatal(err)
	}
	if p.Latency != 300*time.Millisecond || p.Bandwidth != 5_000_000 {
		t.Fatalf("wan-tor preset wrong: %+v", p)
	}
	p, err = ParseProfile("wan-tor,seed=42,loss=0,bw=10M")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || p.Loss != 0 || p.Bandwidth != 10_000_000 {
		t.Fatalf("overrides not applied: %+v", p)
	}
	p, err = ParseProfile("lat=150ms,jitter=10ms,bw=512Ki,mtu=4Ki")
	if err != nil {
		t.Fatal(err)
	}
	if p.Latency != 150*time.Millisecond || p.Bandwidth != 512<<10 || p.MTU != 4<<10 {
		t.Fatalf("custom spec wrong: %+v", p)
	}
	for _, bad := range []string{
		"nope", "wan-tor,loss=2", "wan-tor,zap=1", "wan-tor,lat",
		"wan-tor,loss=NaN", "wan-tor,loss=-0.5", "lat=-1s", "jitter=-2s", "rto=-3ms",
		"bw=-5M", "bw=1e30", "bw=NaN", "bw=Inf", "bw=9.3e18", "mtu=-3", "buffer=-1Ki", "buffer=NaN",
	} {
		if p, err := ParseProfile(bad); err == nil {
			t.Fatalf("spec %q should have failed, got %+v", bad, p)
		}
	}
}

// TestProfileBuffer pins the default queue bound, 4× the bandwidth-delay
// product of the round trip with a 256 KiB floor: exact where it fits
// an int (wan-tor's is 12 MB; 1 s at 10 GB/s is 80 GB, which the int64
// product used to wrap), saturated where it does not.
func TestProfileBuffer(t *testing.T) {
	wanTor, _ := Lookup("wan-tor")
	for _, c := range []struct {
		p    Profile
		want int
	}{
		{wanTor, 12_000_000},
		{Profile{Latency: time.Second, Bandwidth: 10_000_000_000}, 80_000_000_000},
		{Profile{Latency: time.Millisecond, Bandwidth: 1000}, 256 << 10},
		{Profile{Latency: time.Second}, 256 << 10},
		{Profile{Latency: -time.Second, Bandwidth: 1 << 40}, 256 << 10},
		{Profile{Latency: math.MaxInt64, Bandwidth: math.MaxInt64}, math.MaxInt},
		{Profile{Latency: 1000 * time.Hour, Bandwidth: 1 << 40}, math.MaxInt},
		{Profile{Buffer: 7, Latency: time.Second, Bandwidth: 1 << 40}, 7},
	} {
		if got := c.p.buffer(); got != c.want {
			t.Errorf("buffer(lat=%v, bw=%d, buffer=%d) = %d, want %d", c.p.Latency, c.p.Bandwidth, c.p.Buffer, got, c.want)
		}
	}
	if got := (Profile{Latency: math.MaxInt64 / 2}).rto(); got != math.MaxInt64 {
		t.Errorf("rto of a %v path = %v, want the largest duration", time.Duration(math.MaxInt64/2), got)
	}
}

// FuzzParseProfile: ParseProfile never panics, and every profile it
// accepts describes a possible link — durations and byte counts at or
// above zero, in the fields and in the effective values the shaper
// uses, and a loss probability in [0, 1).
func FuzzParseProfile(f *testing.F) {
	for _, seed := range []string{
		"", "wan-tor", "lan", "wan-good,seed=-4", "wan-tor,seed=42,loss=0,bw=10M",
		"lat=150ms,jitter=10ms,bw=512Ki,mtu=4Ki", "lat=1s,bw=10G", "lat=2562047h,bw=9e18",
		"wan-tor,loss=NaN", "lat=-1s", "jitter=-2s", "bw=-5M", "mtu=-3", "bw=1e30", "bw=NaN",
		"buffer=1Gi,rto=5s", "wan-tor,lat", "x=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseProfile(spec)
		if err != nil || p == nil {
			return
		}
		if p.Latency < 0 || p.Jitter < 0 || p.RTO < 0 || p.rto() < 0 {
			t.Fatalf("%q: negative duration in %+v (rto %v)", spec, p, p.rto())
		}
		if p.Bandwidth < 0 || p.MTU < 0 || p.Buffer < 0 || p.mtu() <= 0 || p.buffer() <= 0 {
			t.Fatalf("%q: negative size in %+v (mtu %d, buffer %d)", spec, p, p.mtu(), p.buffer())
		}
		if !(p.Loss >= 0 && p.Loss < 1) {
			t.Fatalf("%q: loss %v outside [0, 1)", spec, p.Loss)
		}
	})
}

// TestWireOptionShapesListenDial checks the plumbing end to end: a
// Listen/Dial pair built with WireOption sees the emulated round trip.
func TestWireOptionShapesListenDial(t *testing.T) {
	const lat = 15 * time.Millisecond
	opt := WireOption(Profile{Latency: lat, Seed: 1})
	ln, err := wire.Listen("127.0.0.1:0", nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		var v int
		if err := c.Expect("ping", &v); err != nil {
			return
		}
		c.Send("pong", v)
	}()
	c, err := wire.Dial(ln.Addr().String(), nil, 5*time.Second, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Send("ping", 7); err != nil {
		t.Fatal(err)
	}
	var v int
	if err := c.Expect("pong", &v); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 2*lat {
		t.Fatalf("round trip took %v, want >= %v", rtt, 2*lat)
	}
}
