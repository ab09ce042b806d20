package eval

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrBudget is returned when an evaluation exceeds its budget; the
// experiment harness records it as a failed run, mirroring the
// timeouts/failures of the paper's Section 7.
var ErrBudget = errors.New("eval: budget exceeded")

// Budget bounds an evaluation. The zero value means unlimited.
type Budget struct {
	// MaxPairs bounds the number of materialized tuples (intermediate
	// plus final).
	MaxPairs int64
	// Timeout bounds wall-clock time.
	Timeout time.Duration
}

// Meter enforces one Budget for one evaluation, of the reference
// evaluator or of any simulated engine: an atomic count of charged
// units against MaxPairs, and a deadline Timeout after NewMeter. Both
// counters are atomic, so every worker of a parallel evaluation shares
// one meter and the budget bounds the evaluation as a whole, not each
// worker.
//
// This file is the only place in the evaluation stack that reads the
// clock — gmarklint's determinism analyzer allowlists exactly it —
// because timeouts are part of the Section 7 contract while counts,
// not timings, are the deterministic output. Every check that reads it
// is amortized or once per unit of coarse work, so the common path
// costs no syscall.
type Meter struct {
	units    atomic.Int64
	ticks    atomic.Int64
	max      int64
	deadline time.Time
	over     string
}

// NewMeter starts the clock on b (a zero Timeout leaves the deadline
// disarmed and every time check free). over is the cap violation's
// text, a format with one %d for MaxPairs that names what the caller
// charges, e.g. "more than %d tuples".
func NewMeter(b Budget, over string) *Meter {
	m := &Meter{max: b.MaxPairs, over: over}
	if b.Timeout > 0 {
		m.deadline = time.Now().Add(b.Timeout)
	}
	return m
}

// Charge adds n units and checks the cap. The deadline is read
// whenever the running total crosses a multiple of 1024, whatever the
// size of the charges that take it there: the reference evaluator's
// charges are result growth, so a run that grows fast checks often and
// one that grows slowly polls with Check instead.
func (m *Meter) Charge(n int64) error {
	units := m.units.Add(n)
	if m.max > 0 && units > m.max {
		return fmt.Errorf("%w: "+m.over, ErrBudget, m.max)
	}
	if units>>10 != (units-n)>>10 {
		return m.Check()
	}
	return nil
}

// ChargeTick adds n units, checks the cap, and then Ticks: the
// engines' charges are per binding, traversal step or fact, so every
// one of them counts toward the amortized deadline check.
func (m *Meter) ChargeTick(n int64) error {
	if units := m.units.Add(n); m.max > 0 && units > m.max {
		return fmt.Errorf("%w: "+m.over, ErrBudget, m.max)
	}
	return m.Tick()
}

// Check reads the clock and reports ErrBudget once the deadline has
// passed. Callers poll it once per unit of coarse work (a window of
// sources, a star level) that may run long without a charge.
func (m *Meter) Check() error {
	if !m.deadline.IsZero() && time.Now().After(m.deadline) {
		return fmt.Errorf("%w: timeout", ErrBudget)
	}
	return nil
}

// Tick is Check amortized for fine-grained loops: one atomic increment
// per call, the clock read on every 1024th. Deadline overshoot is
// bounded by 1024 ticks, noise against the paper's multi-second
// timeouts.
func (m *Meter) Tick() error {
	if m.deadline.IsZero() || m.ticks.Add(1)&1023 != 0 {
		return nil
	}
	return m.Check()
}
