package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Operational counters for a running measurement fleet. Rounds overlap
// under the multi-round engine, so aggregate observability — per-round
// wall-clock, bytes moved per stream, verification failures — lives in
// a Registry the engine and protocol layers feed and the tally daemon
// dumps. This is deliberately tiny: monotonic float counters with a
// sorted text dump, enough to watch a busy fleet without growing a
// telemetry dependency.

// Registry is a set of named monotonic counters plus last-value gauges.
// The zero value is not usable; call NewRegistry. All methods are safe
// for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]float64
	gauges   map[string]float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]float64),
		gauges:   make(map[string]float64),
	}
}

// Add increases the named counter by v (which may be fractional —
// wall-clock seconds are a counter too).
func (r *Registry) Add(name string, v float64) {
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

// Inc increases the named counter by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Set records the named gauge's current value — a level, not an
// accumulation: last write wins (e.g. bins in the active round, peak
// heap of the last tally). Gauges live in a separate namespace from
// counters so exporters can type them correctly.
func (r *Registry) Set(name string, v float64) {
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Get returns the counter's current value (zero if never touched).
func (r *Registry) Get(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Snapshot copies the current counter values.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// SnapshotGauges copies the current gauge values.
func (r *Registry) SnapshotGauges() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.gauges))
	for k, v := range r.gauges {
		out[k] = v
	}
	return out
}

// Dump writes "name value" lines in sorted order, counters and gauges
// merged (a name collision between the two shows the gauge).
func (r *Registry) Dump(w io.Writer) error {
	snap := r.Snapshot()
	for k, v := range r.SnapshotGauges() {
		snap[k] = v
	}
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s %g\n", n, snap[n]); err != nil {
			return err
		}
	}
	return nil
}

// defaultRegistry collects counters from layers that have no natural
// place to thread a registry through (e.g. proof verification deep in
// the PSC tally pipeline). The engine records here too; dumpers that
// install their own registry must also dump this one or the deep-layer
// counters go unseen.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }
