// Package simtime provides a deterministic discrete-event simulation
// kernel: a virtual clock, an event queue ordered by virtual time, and
// seeded random-number streams that are stable across runs.
//
// All simulated Tor activity in this repository is scheduled through a
// Scheduler so that a 24-hour measurement period executes in milliseconds
// of wall time and produces identical event streams for identical seeds.
package simtime

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"math/rand/v2"
	"time"
)

// Time is a virtual timestamp measured as a Duration since the start of
// the simulation epoch. The zero Time is the epoch itself.
type Time time.Duration

// Common durations re-exported for callers that think in measurement
// periods. The paper measures in 24-hour rounds (§3.1) and one 4-day
// round for churn (§5.1).
const (
	Second = Time(time.Second)
	Minute = Time(time.Minute)
	Hour   = Time(time.Hour)
	Day    = 24 * Hour
)

// Duration converts t to a standard library duration since the epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// String formats the virtual time as a duration offset, e.g. "13h26m0s".
func (t Time) String() string { return time.Duration(t).String() }

// An Event is a callback scheduled to run at a virtual time.
type Event func(now Time)

type scheduledEvent struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among events at the same instant
	fn  Event
}

type eventHeap []*scheduledEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*scheduledEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; the simulation model is strictly sequential so that
// runs are reproducible.
type Scheduler struct {
	now     Time
	queue   eventHeap
	seq     uint64
	stopped bool
}

// NewScheduler returns a scheduler positioned at the epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// At schedules fn to run at the absolute virtual time at. Events scheduled
// in the past run immediately at the current time on the next Run step.
func (s *Scheduler) At(at Time, fn Event) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.queue, &scheduledEvent{at: at, seq: s.seq, fn: fn})
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn Event) {
	if d < 0 {
		d = 0
	}
	s.At(s.now.Add(d), fn)
}

// Stop halts the run loop after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events in timestamp order until the queue is empty, the
// horizon is exceeded, or Stop is called. It returns the virtual time at
// which the run ended. Events scheduled at exactly the horizon still run;
// events strictly after it remain queued.
func (s *Scheduler) Run(horizon Time) Time {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		next := s.queue[0]
		if next.at > horizon {
			s.now = horizon
			return s.now
		}
		heap.Pop(&s.queue)
		s.now = next.at
		next.fn(s.now)
	}
	if s.now < horizon {
		s.now = horizon
	}
	return s.now
}

// Rand derives a deterministic random stream from a root seed and a
// stream label. Distinct labels yield statistically independent streams,
// so simulation components can draw randomness without perturbing each
// other's sequences when the model evolves.
func Rand(seed uint64, stream string) *rand.Rand {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	h.Write([]byte(stream))
	sum := h.Sum(nil)
	s1 := binary.LittleEndian.Uint64(sum[0:8])
	s2 := binary.LittleEndian.Uint64(sum[8:16])
	return rand.New(rand.NewPCG(s1, s2))
}
