package dp

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Accountant enforces the paper's measurement-scheduling discipline
// (§3.1): PrivCount and PSC measurements are never conducted in
// parallel, at least 24 hours separate the starts of sequential
// measurements of distinct statistics (the paper's own calendar runs
// back-to-back 24-hour rounds), and the cumulative privacy budget
// across the study is tracked by sequential composition.
//
// An optional total budget (SetBudget) turns the accountant into a
// gatekeeper: once the cumulative spend would exceed the study's (ε,δ)
// allowance, further rounds are refused. The round engine consults it
// through Spend, so an operator cannot schedule rounds whose combined
// noise weight breaks the guarantee.
//
// Accountant is safe for concurrent use; the engine authorizes rounds
// from multiple scheduling goroutines.
type Accountant struct {
	mu        sync.Mutex
	perRound  Params
	minGap    time.Duration
	rounds    []roundRecord
	budget    Params
	hasBudget bool
	ledger    string // persistence path; empty disables
	syncs     ledgerSyncs
}

// ledgerSyncs are the two flushes that make a ledger rewrite survive a
// power loss: the temp file's contents before the rename, and the
// directory entry the rename changed after it. Without the first a
// crash can leave the renamed ledger empty; without the second, the
// old ledger back in place — either way a spend the engine already
// acted on is forgotten. Tests substitute failing ones.
type ledgerSyncs struct {
	file func(*os.File) error
	dir  func(path string) error
}

// osSyncs flushes through the operating system.
var osSyncs = ledgerSyncs{file: (*os.File).Sync, dir: syncDir}

// syncDir flushes a directory's entries to stable storage.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

type roundRecord struct {
	name       string
	start, end time.Time
}

// ledgerFile is the on-disk form of the accountant's spent state. The
// per-round parameters and budget stay configuration (flags), so a
// redeployed daemon can tighten them; only the irreversible facts —
// which rounds spent budget — persist.
type ledgerFile struct {
	Rounds []ledgerRecord `json:"rounds"`
}

// ledgerRecord is one authorized round in the ledger.
type ledgerRecord struct {
	Name  string    `json:"name"`
	Start time.Time `json:"start,omitempty"`
	End   time.Time `json:"end,omitempty"`
}

// NewAccountant returns an accountant granting each round the given
// budget and requiring minGap between the end of one round and the start
// of the next round measuring different statistics.
func NewAccountant(perRound Params, minGap time.Duration) (*Accountant, error) {
	if err := perRound.Validate(); err != nil {
		return nil, err
	}
	if minGap < 0 {
		return nil, fmt.Errorf("dp: negative gap %v", minGap)
	}
	return &Accountant{perRound: perRound, minGap: minGap, syncs: osSyncs}, nil
}

// StudyAccountant returns the accountant configured as in the paper:
// per-round (0.3, 10⁻¹¹) and a 24-hour separation rule.
func StudyAccountant() *Accountant {
	a, err := NewAccountant(StudyParams(), 24*time.Hour)
	if err != nil {
		panic(err) // static parameters; cannot fail
	}
	return a
}

// SetBudget caps the cumulative study budget. Authorize and Spend
// refuse rounds that would push the spend past either ε or δ.
func (a *Accountant) SetBudget(total Params) error {
	if err := total.Validate(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.budget, a.hasBudget = total, true
	return nil
}

// ErrBudgetExhausted is wrapped by refusals from a budget-capped
// accountant, so schedulers can tell "out of budget" from other errors.
var ErrBudgetExhausted = errors.New("privacy budget exhausted")

// SetLedger attaches a JSON ledger file: spent rounds recorded there by
// a previous process are loaded immediately (so spent ε survives daemon
// restarts across a months-long epoch), and every subsequent Spend,
// Refund, and Authorize rewrites the file atomically before returning.
// A missing file starts an empty ledger; a corrupt one is an error —
// refusing to guess is the only safe reading of a privacy ledger.
func (a *Accountant) SetLedger(path string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return fmt.Errorf("dp: read ledger %s: %w", path, err)
		}
		a.ledger = path
		return a.persistLocked()
	}
	var lf ledgerFile
	if err := json.Unmarshal(raw, &lf); err != nil {
		return fmt.Errorf("dp: parse ledger %s: %w", path, err)
	}
	rounds := make([]roundRecord, len(lf.Rounds))
	for i, r := range lf.Rounds {
		if r.Name == "" {
			return fmt.Errorf("dp: ledger %s round %d has no name", path, i)
		}
		rounds[i] = roundRecord{name: r.Name, start: r.Start, end: r.End}
	}
	a.rounds = rounds
	a.ledger = path
	return nil
}

// persistLocked rewrites the ledger (holding a.mu). Writes go to a
// temp file in the ledger's directory, which is synced and renamed into
// place, and then the directory is synced, so neither a crash mid-write
// nor a power loss after it can leave a truncated or stale ledger. A
// failed directory sync still fails the write, though the new ledger
// may already be in place: on disk it then overstates the spend, the
// safe direction.
func (a *Accountant) persistLocked() error {
	if a.ledger == "" {
		return nil
	}
	lf := ledgerFile{Rounds: make([]ledgerRecord, len(a.rounds))}
	for i, r := range a.rounds {
		lf.Rounds[i] = ledgerRecord{Name: r.name, Start: r.start, End: r.end}
	}
	raw, err := json.MarshalIndent(lf, "", "  ")
	if err != nil {
		return fmt.Errorf("dp: encode ledger: %w", err)
	}
	dir := filepath.Dir(a.ledger)
	tmp, err := os.CreateTemp(dir, ".ledger-*")
	if err != nil {
		return fmt.Errorf("dp: write ledger: %w", err)
	}
	_, err = tmp.Write(append(raw, '\n'))
	if err == nil {
		err = a.syncs.file(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), a.ledger)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("dp: write ledger: %w", err)
	}
	if err := a.syncs.dir(dir); err != nil {
		return fmt.Errorf("dp: sync ledger directory: %w", err)
	}
	return nil
}

// spent computes (holding a.mu) the cumulative spend of n rounds. It
// multiplies rather than accumulating additions, so a budget set as
// N×perRound compares exactly against N spends — repeated float
// addition drifts by ULPs and would refuse the Nth legitimate round.
func (a *Accountant) spent(n int) Params {
	return Params{Epsilon: a.perRound.Epsilon * float64(n), Delta: a.perRound.Delta * float64(n)}
}

// budgetSlack absorbs rounding in operator-supplied budgets that are
// not an exact float multiple of the per-round parameters.
const budgetSlack = 1e-9

// overBudget reports (holding a.mu) whether spending one more round
// would exceed the configured budget.
func (a *Accountant) overBudget() error {
	if !a.hasBudget {
		return nil
	}
	cum, next := a.spent(len(a.rounds)), a.spent(len(a.rounds)+1)
	if next.Epsilon > a.budget.Epsilon*(1+budgetSlack) || next.Delta > a.budget.Delta*(1+budgetSlack) {
		return fmt.Errorf("dp: %w: %d rounds spent (ε=%.4g, δ=%.3g); one more round needs (ε=%.4g, δ=%.3g) against a budget of (ε=%.4g, δ=%.3g)",
			ErrBudgetExhausted, len(a.rounds), cum.Epsilon, cum.Delta,
			next.Epsilon, next.Delta, a.budget.Epsilon, a.budget.Delta)
	}
	return nil
}

// Spend authorizes one round by budget alone, without the calendar
// rules: the round engine runs concurrent rounds over scaled
// simulations and live feeds, where the paper's no-parallel and
// 24-hour-gap discipline is the operator's job, but the cumulative
// (ε,δ) spend is still hard-enforced. Returns the per-round budget, or
// a refusal when the budget would be exceeded.
func (a *Accountant) Spend(name string) (Params, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.overBudget(); err != nil {
		return Params{}, fmt.Errorf("round %q refused: %w", name, err)
	}
	a.rounds = append(a.rounds, roundRecord{name: name})
	if err := a.persistLocked(); err != nil {
		// A spend that cannot be recorded must not authorize: after a
		// restart it would be invisible and the budget double-spent.
		a.rounds = a.rounds[:len(a.rounds)-1]
		return Params{}, fmt.Errorf("round %q refused: %w", name, err)
	}
	return a.perRound, nil
}

// Refund returns one Spend after a scheduling failure: the refunded
// round never opened a stream or released data, so its budget unit is
// restored. Only the most recent spend of the given name is refundable.
func (a *Accountant) Refund(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := len(a.rounds) - 1; i >= 0; i-- {
		if a.rounds[i].name == name {
			a.rounds = append(a.rounds[:i], a.rounds[i+1:]...)
			// A refund that fails to persist leaves the ledger
			// overstating the spend — the safe direction; the next
			// successful write reconciles it.
			_ = a.persistLocked()
			return
		}
	}
}

// Authorize records a measurement round named name over [start, end) and
// returns its budget. It fails if the round overlaps any prior round, if
// it measures different statistics than the previous round without the
// required separation, or if it would exceed the configured budget.
func (a *Accountant) Authorize(name string, start, end time.Time) (Params, error) {
	if !end.After(start) {
		return Params{}, fmt.Errorf("dp: round %q has non-positive duration", name)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.overBudget(); err != nil {
		return Params{}, err
	}
	for _, r := range a.rounds {
		if start.Before(r.end) && r.start.Before(end) {
			return Params{}, fmt.Errorf("dp: round %q overlaps round %q: measurements must never run in parallel", name, r.name)
		}
		if r.name != name {
			if gap := absDur(start.Sub(r.start)); gap < a.minGap {
				return Params{}, fmt.Errorf("dp: round %q starts %v from distinct round %q; need %v separation",
					name, gap, r.name, a.minGap)
			}
		}
	}
	a.rounds = append(a.rounds, roundRecord{name: name, start: start, end: end})
	sort.Slice(a.rounds, func(i, j int) bool { return a.rounds[i].start.Before(a.rounds[j].start) })
	if err := a.persistLocked(); err != nil {
		for i, r := range a.rounds {
			if r.name == name && r.start.Equal(start) {
				a.rounds = append(a.rounds[:i], a.rounds[i+1:]...)
				break
			}
		}
		return Params{}, err
	}
	return a.perRound, nil
}

// Cumulative returns the total budget consumed so far under basic
// sequential composition.
func (a *Accountant) Cumulative() Params {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent(len(a.rounds))
}

// Rounds reports the number of authorized rounds.
func (a *Accountant) Rounds() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.rounds)
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
