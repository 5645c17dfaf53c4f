package metrics

import (
	"errors"
	"math"

	"repro/internal/event"
)

// Estimator accumulates directory-request observations the way a
// statistics-reporting directory mirror does.
type Estimator struct {
	// ReportingFraction is the share of directory capacity that
	// participates in statistics reporting.
	ReportingFraction float64
	// RequestsPerClientDay is the heuristic constant: assumed consensus
	// fetches per client per day (~10 in the deployed pipeline).
	RequestsPerClientDay float64
	// ConsensusShare is the fraction of directory circuits that carry a
	// consensus download — the only request type the reporting pipeline
	// counts. Most directory circuits fetch relay descriptors or retry
	// cached documents and never reach the counted endpoint; this
	// mismatch between the heuristic's assumed fetch rate and clients'
	// actual counted fetches is what produces the systematic
	// undercount the paper measures (§5.1, §7).
	ConsensusShare float64

	requests float64
}

// NewEstimator returns an estimator with the deployed pipeline's
// constants.
func NewEstimator(reportingFraction float64) (*Estimator, error) {
	if !(reportingFraction > 0) || reportingFraction > 1 {
		return nil, errors.New("metrics: reporting fraction outside (0,1]")
	}
	return &Estimator{
		ReportingFraction:    reportingFraction,
		RequestsPerClientDay: 10,
		ConsensusShare:       0.11,
	}, nil
}

// Observe consumes a guard-side event stream: a directory circuit
// contributes its consensus-download share to the counted requests.
// Non-directory events are ignored.
func (e *Estimator) Observe(ev event.Event) {
	c, ok := ev.(*event.CircuitEnd)
	if !ok || c.Kind != event.CircuitDirectory {
		return
	}
	e.requests += e.ConsensusShare
}

// DailyUsers returns the Metrics-style estimate: observed requests,
// scaled up by the reporting fraction, divided by the per-client
// heuristic and the number of observed days.
func (e *Estimator) DailyUsers(days int) (float64, error) {
	if days <= 0 {
		return 0, errors.New("metrics: need at least one day")
	}
	if e.RequestsPerClientDay <= 0 {
		return 0, errors.New("metrics: non-positive requests-per-client heuristic")
	}
	total := e.requests / e.ReportingFraction
	return total / e.RequestsPerClientDay / float64(days), nil
}

// UndercountFactor compares a direct unique-client measurement with
// this estimator's output: the paper's headline ~4x.
func UndercountFactor(directUsers, metricsUsers float64) float64 {
	if metricsUsers <= 0 {
		return math.Inf(1)
	}
	return directUsers / metricsUsers
}
