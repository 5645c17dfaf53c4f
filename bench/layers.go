package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	opsmetrics "repro/internal/metrics"
)

// layerReport is what a traced run produced beyond its rounds: the
// spans, the micro-probe values, and process-level observations.
type layerReport struct {
	traced   section // every round of the traced run (traced and not)
	spans    []span
	probes   map[string]float64
	peakHeap float64 // MB, sampled every 5 ms while rounds ran
	rows     []statRow
	phases   []statRow
}

// tracedPass spends half of d on rounds — alternating traced and
// untraced on the same fleet, so tracing overhead is measured inside
// one process — and half on the micro-probes.
func (r *runner) tracedPass(d time.Duration, seed int64, out string, smoke bool) *layerReport {
	l := &layerReport{}
	tr := newTracer()

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				metrics.Read(sample)
				if mb := float64(sample[0].Value.Uint64()) / 1e6; mb > l.peakHeap {
					l.peakHeap = mb
				}
			}
		}
	}()
	l.traced = r.measure(d/2, 2, func(i int) *tracer {
		if i%2 == 0 {
			return tr
		}
		return nil
	})
	close(stop)
	sampler.Wait()

	l.spans = tr.finish()
	if err := writeTrace(filepath.Join(out, "trace-"+r.w.Name+".json"), r.w.Name, seed, l.spans); err != nil {
		r.orc.faultf("trace file: %v", err)
	}
	var errs []string
	l.probes, errs = runProbes(d/2, seed, out, smoke, r.in.trace)
	for _, e := range errs {
		r.orc.faultf("probe: %s", e)
	}
	return l
}

// layerUnits names every per-layer metric and its unit; BENCHMARK.json
// declares the same set.
var layerUnits = map[string]string{
	"elgamal.encrypt_bits_us": "us", "elgamal.add_ciphertexts_us": "us", "elgamal.prove_bits_us": "us",
	"elgamal.verify_bits_us": "us", "elgamal.shuffle_us": "us", "elgamal.prove_shuffle_block_us": "us",
	"elgamal.verify_shuffle_block_us": "us", "elgamal.exp_blind_prove_us": "us", "elgamal.verify_blinds_us": "us",
	"elgamal.verify_shares_us": "us", "elgamal.recover_us": "us", "elgamal.parse_ciphertext_us": "us",

	"psc.phase_gather_s": "s", "psc.phase_noise_s": "s", "psc.phase_shuffle_s": "s", "psc.phase_blind_s": "s",
	"psc.phase_decrypt_s": "s", "psc.cp_busy_s": "s", "psc.cp_recv_wait_s": "s", "psc.cp_send_wait_s": "s",
	"psc.dc_finish_s": "s", "psc.dc_observe_us": "us", "psc.ts_residual_s": "s", "psc.frames_per_round": "count",
	"psc.bytes_per_bin": "B",

	"privcount.phase_setup_s": "s", "privcount.phase_collect_s": "s", "privcount.dc_setup_s": "s",
	"privcount.dc_finish_s": "s", "privcount.sk_busy_s": "s", "privcount.increment_ns": "ns",
	"privcount.random_shares_ns": "ns", "privcount.seal_batch_us": "us", "privcount.aggregate_sum_ns": "ns",

	"wire.pipe_stream_mb_s": "MB/s", "wire.tls_stream_mb_s": "MB/s", "wire.small_frame_rtt_us": "us",
	"wire.gob_chunk_us": "us", "wire.fanin_16_mb_s": "MB/s", "wire.window_peak_bytes": "B", "wire.aimd_decreases": "count",

	"netem.wan_tor_bulk_mb_s": "MB/s", "netem.wan_tor_rtt_ms": "ms",

	"spill.write_mb_s": "MB/s", "spill.read_mb_s": "MB/s", "spill.read_slot_us": "us", "spill.write8_mb_s": "MB/s",
	"spill.mem_fallbacks": "count",

	"parallel.ordered_job_us": "us", "parallel.for_speedup": "ratio", "parallel.shard_skew": "ratio",

	"engine.hello_ms": "ms", "engine.start_round_ms": "ms", "engine.round_gap_ms": "ms",

	"torctl.parse_line_ns": "ns", "torctl.parse_line_allocs": "count", "torctl.format_line_ns": "ns",
	"torctl.source_drain_events_per_s": "1/s", "torctl.handshake_ms": "ms", "event.marshal_ns": "ns",
	"event.unmarshal_ns": "ns", "ingest.dispatch_ns": "ns",

	"metrics.prom_scrape_ms": "ms",
	"proc.peak_heap_mb":      "MB", "proc.gc_pause_ms": "ms", "proc.goroutines_leaked": "count", "proc.trace_overhead_pct": "%",
}

var pscPhases = []string{"gather", "noise", "shuffle", "blind", "decrypt"}

// roundTrace is the spans of one traced round, indexed for the
// per-round derivations.
type roundTrace struct {
	root    span
	parties []span         // "party" spans of the round
	frames  map[int][]span // party span ID -> its Send/Recv spans
	other   []span         // driver and DC spans
}

func splitRounds(spans []span) []roundTrace {
	byRoot := make(map[int]*roundTrace)
	var order []int
	partyRoot := make(map[int]int)
	for _, s := range spans {
		switch {
		case s.Parent == 0:
			byRoot[s.ID] = &roundTrace{root: s, frames: make(map[int][]span)}
			order = append(order, s.ID)
		case s.Name == "party":
			byRoot[s.Parent].parties = append(byRoot[s.Parent].parties, s)
			partyRoot[s.ID] = s.Parent
		case partyRoot[s.Parent] != 0:
			rt := byRoot[partyRoot[s.Parent]]
			rt.frames[s.Parent] = append(rt.frames[s.Parent], s)
		default:
			byRoot[s.Parent].other = append(byRoot[s.Parent].other, s)
		}
	}
	out := make([]roundTrace, len(order))
	for i, id := range order {
		out[i] = *byRoot[id]
	}
	return out
}

// extent is last end minus first start over the spans f selects.
func extent(spans []span, f func(span) bool) float64 {
	lo, hi, any := 0.0, 0.0, false
	for _, s := range spans {
		if !f(s) {
			continue
		}
		if !any || s.Start < lo {
			lo = s.Start
		}
		if !any || s.End > hi {
			hi = s.End
		}
		any = true
	}
	return hi - lo
}

// waits splits a party span into time inside Send, time inside Recv
// with no Send in progress, and the rest (busy).
func waits(party span, frames []span) (busy, recvWait, sendWait float64) {
	var sends, all []interval
	for _, f := range frames {
		all = append(all, interval{f.Start, f.End})
		if strings.HasPrefix(f.Name, "send ") {
			sends = append(sends, interval{f.Start, f.End})
		}
	}
	sendWait = unionLen(sends)
	covered := unionLen(all)
	return party.dur() - covered, covered - sendWait, sendWait
}

// derive computes the per-round layer figures of one traced round.
func (rt roundTrace) derive(w *workload) map[string]float64 {
	v := make(map[string]float64)
	var allFrames []span
	for _, fs := range rt.frames {
		allFrames = append(allFrames, fs...)
	}
	if w.CPs > 0 {
		for _, ph := range pscPhases {
			v["psc.phase_"+ph+"_s"] = extent(allFrames, func(s span) bool {
				return s.Phase == ph && strings.Contains(s.Name, " psc/")
			})
		}
		// The busiest CP, so the three figures add up to one party span.
		best := -1.0
		for _, p := range rt.parties {
			if !strings.HasPrefix(p.Party, "cp-") {
				continue
			}
			if busy, rw, sw := waits(p, rt.frames[p.ID]); busy > best {
				best = busy
				v["psc.cp_busy_s"], v["psc.cp_recv_wait_s"], v["psc.cp_send_wait_s"] = busy, rw, sw
			}
		}
		frames, bytes := 0, 0
		for _, f := range allFrames {
			if strings.Contains(f.Name, " psc/") {
				frames++
				bytes += f.Bytes
			}
		}
		bins := 0
		switch {
		case w.PSC != nil:
			bins = w.PSC.Bins
		case w.Ingest != nil:
			bins = w.Ingest.PSCBins
		}
		v["psc.frames_per_round"] = float64(frames)
		v["psc.bytes_per_bin"] = float64(bytes) / float64(bins)
	}
	if w.PSC != nil {
		// What is left of the round once every party's own busy time is
		// taken out: TS verification and in-flight time on the path.
		var busy []interval
		for _, p := range rt.parties {
			fs := append([]span(nil), rt.frames[p.ID]...)
			sort.Slice(fs, func(i, j int) bool { return fs[i].Start < fs[j].Start })
			at := p.Start
			for _, f := range fs {
				if f.Start > at {
					busy = append(busy, interval{at, f.Start})
				}
				at = max(at, f.End)
			}
			if p.End > at {
				busy = append(busy, interval{at, p.End})
			}
		}
		v["psc.ts_residual_s"] = rt.root.dur() - unionLen(busy)
	}
	if w.SKs > 0 {
		for _, ph := range []string{"setup", "collect"} {
			v["privcount.phase_"+ph+"_s"] = extent(allFrames, func(s span) bool {
				return s.Phase == ph && strings.Contains(s.Name, " privcount/")
			})
		}
		for _, p := range rt.parties {
			if strings.HasPrefix(p.Party, "sk-") {
				v["privcount.sk_busy_s"] = max(v["privcount.sk_busy_s"], p.Self)
			}
		}
	}
	for _, s := range rt.other {
		switch s.Name {
		case "psc dc-finish":
			v["psc.dc_finish_s"] = max(v["psc.dc_finish_s"], s.dur())
		case "privcount dc-setup":
			v["privcount.dc_setup_s"] = max(v["privcount.dc_setup_s"], s.dur())
		case "privcount dc-finish":
			v["privcount.dc_finish_s"] = max(v["privcount.dc_finish_s"], s.dur())
		}
	}
	// Fixed overhead before any party works on the round: the Start*
	// call, the stream opens, and the first frame's flight.
	if len(allFrames) > 0 {
		lo := rt.root.End
		for _, f := range allFrames {
			lo = min(lo, f.Start)
		}
		v["engine.round_gap_ms"] = (lo - rt.root.Start) * 1e3
	}
	return v
}

// metrics assembles every per-layer metric of the traced run: probe
// values as measured, trace-derived values as the median over the
// traced rounds, zero where the workload does not run the layer.
func (l *layerReport) metrics(rep *report) map[string]metric {
	w, rounds := rep.workload, rep.sec.rounds
	vals := make(map[string]float64, len(layerUnits))
	for k, v := range l.probes {
		vals[k] = v
	}
	perRound := make(map[string][]float64)
	for _, rt := range splitRounds(l.spans) {
		for k, v := range rt.derive(w) {
			perRound[k] = append(perRound[k], v)
		}
	}
	for k, xs := range perRound {
		vals[k] = median(xs)
	}

	var traced, untraced []roundSample
	for _, s := range rounds {
		if s.traced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	roundS := func(rs []roundSample) float64 {
		return median(pick(rs, func(s roundSample) float64 { return s.roundS }))
	}
	if t, u := roundS(traced), roundS(untraced); u > 0 {
		vals["proc.trace_overhead_pct"] = (t - u) / u * 100
	}
	if w.PSC != nil {
		if r := median(batchRates(rounds)); r > 0 {
			vals["psc.dc_observe_us"] = 1e6 / r
		}
	}
	if w.Ingest != nil {
		vals["ingest.dispatch_ns"] = median(pick(traced, func(s roundSample) float64 { return s.dispatchNs }))
	}
	vals["engine.hello_ms"] = median(rep.helloMs)
	vals["engine.start_round_ms"] = median(pick(rounds, func(s roundSample) float64 { return s.startMs }))
	vals["wire.window_peak_bytes"] = float64(rep.windowPeak)
	vals["wire.aimd_decreases"] = float64(rep.decreases)
	snap := opsmetrics.Default().Snapshot()
	vals["parallel.shard_skew"] = shardSkew(snap)
	vals["spill.mem_fallbacks"] = snap["spill/mem-fallbacks"]
	vals["proc.peak_heap_mb"] = l.peakHeap
	vals["proc.gc_pause_ms"] = rep.sec.gcMs
	vals["proc.goroutines_leaked"] = float64(rep.leaked)

	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{vals[name], unit}
	}

	// Tables for the human-readable account.
	names := make([]string, 0, len(perRound))
	for k := range perRound {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		row := statRow{k, layerUnits[k], perRound[k]}
		if strings.Contains(k, ".phase_") {
			l.phases = append(l.phases, row)
		} else {
			l.rows = append(l.rows, row)
		}
	}
	l.rows = append(l.rows,
		statRow{"round_s (traced)", "s", pick(traced, func(s roundSample) float64 { return s.roundS })},
		statRow{"round_s (untraced)", "s", pick(untraced, func(s roundSample) float64 { return s.roundS })})
	return out
}

// print writes the per-layer tables: per operation min / mean /
// median / max over the traced rounds, then the per-phase breakdown
// with each phase's share of the round.
func (l *layerReport) print(w io.Writer) {
	printStats(w, "per-layer, per traced round", l.rows)
	printStats(w, "per-phase breakdown (phases overlap: the pipeline streams)", l.phases)
	var roots []float64
	for _, s := range l.spans {
		if s.Parent == 0 {
			roots = append(roots, s.dur())
		}
	}
	if round := median(roots); round > 0 {
		for _, ph := range l.phases {
			fmt.Fprintf(w, "  %-34s %5.1f %% of the round span (%.3f s)\n", ph.name, median(ph.samples)/round*100, round)
		}
	}
}
