package netem

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Profile describes one emulated network path. The zero value shapes
// nothing (zero latency, unlimited bandwidth, no loss); presets for
// realistic paths are available by name through Lookup/ParseProfile.
type Profile struct {
	// Name labels the profile in logs and bench output.
	Name string
	// Latency is the one-way propagation delay added to every chunk.
	// Wrapping both ends of a connection therefore yields a
	// round-trip time of 2×Latency.
	Latency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) per
	// chunk, sampled from the profile's seeded RNG.
	Jitter time.Duration
	// Bandwidth paces the path at this many bytes per second through a
	// token bucket; 0 leaves the path unpaced.
	Bandwidth int64
	// Loss is the per-chunk loss probability. A loss is emulated the
	// way TCP surfaces it — the chunk and everything behind it stall
	// for RTO (a retransmit); no byte is ever dropped.
	Loss float64
	// RTO is the emulated retransmission timeout charged per lost
	// chunk; 0 selects 4×Latency (floor 1ms), the shape of a TCP RTO
	// built from the path RTT.
	RTO time.Duration
	// MTU is the pacing granularity in bytes: writes are split into
	// MTU-sized chunks so a large buffered write is serialized over
	// time rather than delivered as one burst. 0 selects 16 KiB.
	MTU int
	// Buffer bounds the shaper's send queue in bytes — the emulated
	// kernel socket buffer. Writers block once it is full, providing
	// the backpressure a real congested link exerts. 0 selects
	// max(256 KiB, 4× the bandwidth-delay product).
	Buffer int
	// Seed drives the jitter and loss RNG. The schedule produced for a
	// given write sequence is a pure function of the profile including
	// this seed, which is what makes emulated runs reproducible.
	Seed int64
}

// mtu returns the effective pacing chunk size.
func (p Profile) mtu() int {
	if p.MTU > 0 {
		return p.MTU
	}
	return 16 << 10
}

// rto returns the effective retransmit stall per lost chunk.
func (p Profile) rto() time.Duration {
	switch {
	case p.RTO > 0:
		return p.RTO
	case p.Latency > math.MaxInt64/4:
		return math.MaxInt64
	case 4*p.Latency > time.Millisecond:
		return 4 * p.Latency
	}
	return time.Millisecond
}

// buffer returns the effective shaper queue bound.
func (p Profile) buffer() int {
	if p.Buffer > 0 {
		return p.Buffer
	}
	return max(256<<10, fourBDP(p.Bandwidth, p.Latency))
}

// fourBDP returns four times the bandwidth-delay product of a path
// with one-way latency lat — 4·bw·2·lat, in bytes — computed in 128
// bits and saturated at the largest int, so a fast, long path gets a
// huge bound rather than a wrapped one. It is 0 unless bw and lat are
// positive.
func fourBDP(bw int64, lat time.Duration) int {
	if bw <= 0 || lat <= 0 {
		return 0
	}
	hi, lo := bits.Mul64(uint64(bw), uint64(lat))
	if hi >= 1<<61 { // ×8 would pass 128 bits
		return math.MaxInt
	}
	hi, lo = hi<<3|lo>>61, lo<<3
	if hi >= uint64(time.Second) { // the quotient would pass 64 bits
		return math.MaxInt
	}
	q, _ := bits.Div64(hi, lo, uint64(time.Second))
	if q > math.MaxInt {
		return math.MaxInt
	}
	return int(q)
}

// String renders the profile compactly for logs.
func (p Profile) String() string {
	name := p.Name
	if name == "" {
		name = "custom"
	}
	bw := "unlimited"
	if p.Bandwidth > 0 {
		bw = fmt.Sprintf("%.3gMB/s", float64(p.Bandwidth)/1e6)
	}
	return fmt.Sprintf("%s(lat=%v jitter=%v bw=%s loss=%.3g seed=%d)",
		name, p.Latency, p.Jitter, bw, p.Loss, p.Seed)
}

// Presets, matching the clearnet / good-WAN / Tor rows of the
// gethrelay tor-performance benchmark table (SNIPPETS.md): Tor paths
// see 300–1000 ms of connection latency and 1–10 MB/s of bandwidth.
// wan-tor sits at the favorable end of that band: 300 ms one-way
// (600 ms RTT once both directions are shaped) at 5 MB/s.
var presets = map[string]Profile{
	"lan": {
		Name: "lan", Latency: 200 * time.Microsecond, Seed: 1,
	},
	"wan-good": {
		Name: "wan-good", Latency: 40 * time.Millisecond, Jitter: 5 * time.Millisecond,
		Bandwidth: 50_000_000, Loss: 0.0001, Seed: 1,
	},
	"wan-tor": {
		Name: "wan-tor", Latency: 300 * time.Millisecond, Jitter: 20 * time.Millisecond,
		Bandwidth: 5_000_000, Loss: 0.001, Seed: 1,
	},
}

// Profiles lists the preset names in sorted order.
func Profiles() []string {
	out := make([]string, 0, len(presets))
	for name := range presets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup returns a preset profile by name.
func Lookup(name string) (Profile, bool) {
	p, ok := presets[name]
	return p, ok
}

// ParseProfile parses a -netem flag value: a preset name, optionally
// followed by comma-separated key=value overrides — for example
// "wan-tor", "wan-tor,seed=42,loss=0", or a fully custom
// "lat=150ms,bw=5M,jitter=10ms". Recognized keys: lat/latency,
// jitter, rto (durations), bw/bandwidth (bytes/sec, K/M/G decimal or
// Ki/Mi/Gi binary suffixes), loss (probability), mtu, buffer (bytes),
// seed (integer). A negative duration or byte count, a NaN or
// infinite value and a count past int64 are refused: the spec is
// operator input. An empty spec returns (nil, nil): no emulation.
func ParseProfile(spec string) (*Profile, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	var p Profile
	rest := parts
	if !strings.Contains(parts[0], "=") {
		preset, ok := Lookup(parts[0])
		if !ok {
			return nil, fmt.Errorf("netem: unknown profile %q (have: %s)", parts[0], strings.Join(Profiles(), ", "))
		}
		p = preset
		rest = parts[1:]
	} else {
		p.Name = "custom"
		p.Seed = 1
	}
	for _, kv := range rest {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("netem: bad override %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "lat", "latency":
			p.Latency, err = parseDuration(v)
		case "jitter":
			p.Jitter, err = parseDuration(v)
		case "rto":
			p.RTO, err = parseDuration(v)
		case "bw", "bandwidth":
			p.Bandwidth, err = parseBytes(v)
		case "loss":
			p.Loss, err = strconv.ParseFloat(v, 64)
			if err == nil && !(p.Loss >= 0 && p.Loss < 1) { // NaN fails both
				err = fmt.Errorf("outside [0,1)")
			}
		case "mtu":
			p.MTU, err = parseSize(v)
		case "buffer":
			p.Buffer, err = parseSize(v)
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		default:
			return nil, fmt.Errorf("netem: unknown override key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("netem: override %q: %v", kv, err)
		}
	}
	return &p, nil
}

// parseDuration parses a non-negative duration.
func parseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil && d < 0 {
		err = errors.New("negative duration")
	}
	return d, err
}

// parseSize parses a byte count (parseBytes) that must fit an int.
func parseSize(s string) (int, error) {
	n, err := parseBytes(s)
	if err == nil && n > math.MaxInt {
		err = errors.New("too large")
	}
	return int(n), err
}

// parseBytes parses a byte count with an optional K/M/G (decimal) or
// Ki/Mi/Gi (binary) suffix; a trailing "B" is tolerated ("5MB"). It
// refuses a negative, NaN or infinite count and one past int64, which
// the conversion would otherwise wrap.
func parseBytes(s string) (int64, error) {
	s = strings.TrimSuffix(strings.TrimSpace(s), "B")
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "Ki"):
		mult, s = 1<<10, strings.TrimSuffix(s, "Ki")
	case strings.HasSuffix(s, "Mi"):
		mult, s = 1<<20, strings.TrimSuffix(s, "Mi")
	case strings.HasSuffix(s, "Gi"):
		mult, s = 1<<30, strings.TrimSuffix(s, "Gi")
	case strings.HasSuffix(s, "K"):
		mult, s = 1_000, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1_000_000, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1_000_000_000, strings.TrimSuffix(s, "G")
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	v := f * float64(mult)
	if !(v >= 0 && v < 1<<63) { // NaN fails both
		return 0, errors.New("outside [0, 2^63)")
	}
	return int64(v), nil
}

// pacer turns a write sequence into a delivery schedule. All times are
// monotonic offsets from an arbitrary zero, so the schedule for a
// given (profile, write sequence) pair is a pure deterministic
// function — the property the emulation tests pin. It is not safe for
// concurrent use; each shaped direction owns one.
type pacer struct {
	p   Profile
	rng *rand.Rand
	// nextFree is the token bucket's virtual clock: the offset at
	// which the link finishes serializing everything scheduled so far.
	nextFree time.Duration
	// lastDue enforces in-order delivery: a byte stream's chunks
	// arrive in the order written, whatever jitter each one drew.
	lastDue time.Duration
}

func newPacer(p Profile) *pacer {
	return &pacer{p: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// next schedules an n-byte chunk written at offset now, returning its
// delivery offset. A lost chunk is never dropped: it is charged a
// retransmit stall.
func (pc *pacer) next(now time.Duration, n int) time.Duration {
	start := now
	if pc.nextFree > start {
		start = pc.nextFree
	}
	pc.nextFree = start
	if pc.p.Bandwidth > 0 {
		pc.nextFree = start + time.Duration(float64(n)/float64(pc.p.Bandwidth)*float64(time.Second))
	}
	delay := pc.p.Latency
	if pc.p.Jitter > 0 {
		delay += time.Duration(pc.rng.Int63n(int64(pc.p.Jitter)))
	}
	if pc.p.Loss > 0 && pc.rng.Float64() < pc.p.Loss {
		delay += pc.p.rto()
	}
	due := pc.nextFree + delay
	if due < pc.lastDue {
		due = pc.lastDue
	}
	pc.lastDue = due
	return due
}
