package parallel

import (
	"fmt"

	"repro/internal/metrics"
)

// Ordered is a bounded ordered-results pool: jobs submitted in order
// are executed concurrently on a fixed shard of workers, and results
// are delivered on Out in submission order. It is the pipeline shape of
// the tally's verify/combine plane — a protocol stream must be consumed
// in arrival order and its results applied in the same order, but the
// expensive work per chunk (batch proof verification, homomorphic
// merges, share recovery) is independent, so chunk k+1 verifies while
// chunk k's result is still being consumed, across however many
// concurrent party streams share the plane's cores.
//
// The depth bound applies backpressure end to end: at most depth jobs
// are in flight (queued, running, or completed-but-undelivered), so a
// fast sender cannot pile unverified chunks into the heap faster than
// the workers and the consumer drain them.
type Ordered[T any] struct {
	jobs  chan orderedJob[T]
	order chan chan Result[T]
	out   chan Result[T]
}

// Result carries one job's outcome, in submission order.
type Result[T any] struct {
	V   T
	Err error
}

type orderedJob[T any] struct {
	fn  func() (T, error)
	res chan Result[T]
}

// NewOrdered starts a pool of workers goroutines (minimum 1; use
// PoolSize() to track the schedulable CPUs) delivering at most depth
// in-flight jobs (minimum workers, so every worker can be busy). A
// non-empty name registers per-shard job counters in the process-wide
// metrics registry as parallel/<name>/shard-<i>/jobs — on a deployed
// tally an idle shard under load means the plane is starved by
// arrival order, not by cores.
func NewOrdered[T any](workers, depth int, name string) *Ordered[T] {
	if workers < 1 {
		workers = 1
	}
	if depth < workers {
		depth = workers
	}
	o := &Ordered[T]{
		jobs:  make(chan orderedJob[T], depth),
		order: make(chan chan Result[T], depth),
		out:   make(chan Result[T]),
	}
	for i := 0; i < workers; i++ {
		counter := ""
		if name != "" {
			counter = fmt.Sprintf("parallel/%s/shard-%d/jobs", name, i)
		}
		go func() {
			for j := range o.jobs {
				v, err := j.fn()
				if counter != "" {
					metrics.Default().Inc(counter)
				}
				j.res <- Result[T]{V: v, Err: err}
			}
		}()
	}
	// The forwarder serializes completions back into submission order:
	// each job's one-slot result channel is queued at submit time, so
	// waiting on them in queue order is waiting in submission order.
	go func() {
		defer close(o.out)
		for ch := range o.order {
			o.out <- <-ch
		}
	}()
	return o
}

// Submit enqueues fn. It blocks while depth jobs are in flight — the
// backpressure that keeps the plane's residency bounded. Submit must
// not be called after Close, and is not safe for concurrent use (each
// protocol stream owns one Ordered; streams are already sequential).
func (o *Ordered[T]) Submit(fn func() (T, error)) {
	res := make(chan Result[T], 1)
	o.order <- res
	o.jobs <- orderedJob[T]{fn: fn, res: res}
}

// Close marks the input complete: Out delivers every submitted job's
// result, then closes. The shard workers exit once drained. Close does
// not wait; drain Out to synchronize.
func (o *Ordered[T]) Close() {
	close(o.jobs)
	close(o.order)
}

// Out delivers results in submission order. It closes after Close once
// every result has been delivered. The consumer must drain Out (or
// abandon it only when the whole process section is being torn down);
// an undrained Ordered parks its forwarder, not the shard workers.
func (o *Ordered[T]) Out() <-chan Result[T] {
	return o.out
}

// Drain consumes the remaining results after Close, returning the first
// error encountered (submission order). Use it when the per-result
// values have already been handled and only completion and errors
// remain interesting.
func (o *Ordered[T]) Drain() error {
	var first error
	for r := range o.out {
		if r.Err != nil && first == nil {
			first = r.Err
		}
	}
	return first
}
