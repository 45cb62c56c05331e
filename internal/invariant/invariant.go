package invariant

import (
	"fmt"

	"github.com/panic-nic/panic/internal/sim"
)

// DefaultEvery is the default sampling interval in cycles. Checks walk
// every tile and queue, so the interval trades detection latency against
// overhead; 2048 keeps the monitor under a few percent of the hot path's
// cycle cost on the canonical assembly now that the saturated loop itself
// is event-driven (a faster base cycle makes the same fixed-cost pass
// relatively more expensive, so the interval doubled when the event
// engine landed).
const DefaultEvery = 2048

// maxViolations bounds how many violations are retained verbatim; beyond
// it only the count grows. A buggy invariant firing every interval must
// not take the host down with it.
const maxViolations = 16

// Config parameterizes a Monitor.
type Config struct {
	// Every is the sampling interval in cycles (0 = DefaultEvery). An
	// attached monitor registers its schedule with the kernel, which
	// steps the due cycle even when an idle jump would otherwise go over
	// it — passes land on exact interval multiples, as on the reference
	// stepper. (A kernel stepped outside
	// its Run loop still defers a due check to the next stepped cycle
	// rather than losing it.)
	Every uint64
	// FailFast panics on the first violation instead of recording it.
	FailFast bool
}

// A Check is one named invariant: fn returns nil when the property holds
// at the given cycle.
type Check struct {
	Name string
	Fn   func(cycle uint64) error
}

// Violation is one recorded invariant failure.
type Violation struct {
	Cycle uint64
	Check string
	Err   error
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: %v", v.Cycle, v.Check, v.Err)
}

// Monitor evaluates registered checks at the kernel's end-of-cycle
// barrier.
type Monitor struct {
	every    uint64
	failFast bool

	checks      []Check
	lastChecked uint64
	ran         uint64 // check passes executed
	k           *sim.Kernel

	violations []Violation
	total      uint64 // violations seen, including those beyond the cap
}

// New builds a monitor from cfg.
func New(cfg Config) *Monitor {
	every := cfg.Every
	if every == 0 {
		every = DefaultEvery
	}
	return &Monitor{every: every, failFast: cfg.FailFast}
}

// AddCheck registers one invariant. Checks run in registration order.
func (m *Monitor) AddCheck(name string, fn func(cycle uint64) error) {
	m.checks = append(m.checks, Check{Name: name, Fn: fn})
}

// Attach hooks the monitor into the kernel's end-of-cycle barrier. The
// kernel is retained so a due pass can first pull sleeping components'
// deferred bulk counters current (sim.Kernel.SyncAllAt) — checks then see
// exactly the state the reference stepper would show at the same cycle.
// The monitor also registers its sampling schedule (sim.Kernel.Due),
// which clamps the kernel's idle jumps so a due pass lands on exactly the
// interval cycle instead of the first stepped cycle after a jump — pass
// cycles are therefore identical on the kernel and the reference stepper.
func (m *Monitor) Attach(k *sim.Kernel) {
	m.k = k
	k.ObserveCycleEnd(m.observe)
	k.Due(func(uint64) uint64 { return m.lastChecked + m.every })
}

// observe is the per-cycle hook: cheap rejection until a check is due.
func (m *Monitor) observe(cycle uint64) {
	// Interval arithmetic, not modulo: the Due clamp keeps due
	// passes on stepped cycles, but a kernel stepped directly (no Run
	// loop, so no clamp) may still jump past the exact multiple; the
	// first stepped cycle after the gap is equivalent (skipped cycles run
	// no phases, so no state changed in between — sleeping components'
	// deferred counters are reconciled by the sync below before any check
	// reads them).
	if cycle-m.lastChecked < m.every && cycle != 0 {
		return
	}
	m.lastChecked = cycle
	if m.k != nil {
		m.k.SyncAllAt(cycle)
	}
	m.RunNow(cycle)
}

// RunNow evaluates every check immediately, regardless of the sampling
// interval. The chaos runner calls it once more at the end of a scenario
// so violations in the final partial interval are not lost.
func (m *Monitor) RunNow(cycle uint64) {
	m.ran++
	for i := range m.checks {
		c := &m.checks[i]
		if err := c.Fn(cycle); err != nil {
			m.record(Violation{Cycle: cycle, Check: c.Name, Err: err})
		}
	}
}

func (m *Monitor) record(v Violation) {
	if m.failFast {
		panic("invariant: " + v.String())
	}
	m.total++
	if len(m.violations) < maxViolations {
		m.violations = append(m.violations, v)
	}
}

// Passes returns how many full check passes have run.
func (m *Monitor) Passes() uint64 { return m.ran }

// Violations returns the recorded violations (capped; see Total).
func (m *Monitor) Violations() []Violation { return m.violations }

// Total returns the number of violations observed, including any beyond
// the retention cap.
func (m *Monitor) Total() uint64 { return m.total }

// Err summarizes the monitor's verdict: nil when every check passed, or
// an error naming the first violation and the total count.
func (m *Monitor) Err() error {
	if m.total == 0 {
		return nil
	}
	return fmt.Errorf("invariant: %d violation(s); first: %s", m.total, m.violations[0])
}
