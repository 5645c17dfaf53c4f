package main

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/privcount"
	"repro/internal/psc"
	"repro/internal/stats"
)

// oracle checks every result against the plaintext answer computed
// from the generated inputs and keeps the failure account: attempted
// counts rounds plus input events, failed counts rounds that errored,
// degraded or missed the oracle plus events that were lost.
type oracle struct {
	attempted, failed int
	// faults are run-level defects (leaked goroutines, spill memory
	// fallbacks): they make the run incorrect without being attributable
	// to one round or event.
	faults []string
	notes  []string
}

func (o *oracle) failf(format string, args ...any) {
	o.failed++
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *oracle) faultf(format string, args ...any) {
	o.faults = append(o.faults, fmt.Sprintf(format, args...))
}

func (o *oracle) correct() bool { return o.failed == 0 && len(o.faults) == 0 }

// round accounts for one finished round: it must have completed at
// full strength before its result is worth checking.
func (o *oracle) round(r *engine.Round, err error) bool {
	o.attempted++
	switch {
	case err != nil:
		o.failf("round %d (%s) failed: %v", r.ID, r.Label, err)
	case r.Degraded():
		o.failf("round %d (%s) degraded: absent %v", r.ID, r.Label, r.Absent())
	default:
		return true
	}
	return false
}

// events accounts for input events: applied is how many reached the
// live rounds, sent how many the generator issued.
func (o *oracle) events(sent, applied int) {
	o.attempted += sent
	if lost := sent - applied; lost > 0 {
		o.failed += lost
		o.notes = append(o.notes, fmt.Sprintf("%d of %d events lost", lost, sent))
	}
}

// pscResult holds a PSC round to the occupancy model: Reported is the
// number of occupied bins plus Binomial(NoiseTrials, 1/2) noise, so it
// must lie within six standard deviations of its expectation, and the
// deployed estimator must be able to invert it.
func (o *oracle) pscResult(res psc.Result, distinct int) {
	occ, occVar := stats.OccupancyMoments(res.Bins, distinct)
	want := occ + float64(res.NoiseTrials)/2
	tol := 6 * math.Sqrt(float64(res.NoiseTrials)/4+occVar)
	if d := math.Abs(float64(res.Reported) - want); d > tol {
		o.failf("psc round %d: reported %d, want %.1f ± %.1f for %d distinct items", res.Round, res.Reported, want, tol, distinct)
		return
	}
	if _, err := stats.UnionCardinalityCI(stats.PSCObservation{
		Reported: res.Reported, Bins: res.Bins, NoiseTrials: res.NoiseTrials,
	}); err != nil {
		o.failf("psc round %d: estimator: %v", res.Round, err)
	}
}

// privResult requires every counter within six sigma of the plaintext
// tally.
func (o *oracle) privResult(round uint64, res map[string][]float64, schema []privcount.StatConfig, tally map[string][]float64) {
	for _, st := range schema {
		got, want := res[st.Name], tally[st.Name]
		if len(got) != len(want) {
			o.failf("privcount round %d: %s has %d bins, want %d", round, st.Name, len(got), len(want))
			return
		}
		for b := range want {
			if d := math.Abs(got[b] - want[b]); d > 6*st.Sigma+1e-3 {
				o.failf("privcount round %d: %s/%s = %.2f, want %.0f ± %.0f", round, st.Name, st.Bins[b], got[b], want[b], 6*st.Sigma)
				return
			}
		}
	}
}
