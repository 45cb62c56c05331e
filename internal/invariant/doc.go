// Package invariant implements the runtime invariant monitor: a set of
// named, read-only checks evaluated at the simulation kernel's
// end-of-cycle barrier every sampling interval. The checks themselves are
// domain property audits registered by the NIC assembly (message
// conservation per tile and tenant, queue and credit bounds, flow-cache
// coherence, health-monitor legality, trace well-formedness — see
// internal/core/invariants.go and ROBUSTNESS.md); this package provides
// the machinery: sampling, violation capture, and kernel attachment.
//
// The monitor is opt-in. When it is not attached the simulation carries
// zero overhead — no observer is registered, no allocation is made — and
// when it is attached the cost is one integer comparison per stepped
// cycle plus the checks every sampling interval. Checks run after the
// Commit phase, so they see exactly the state the next cycle's Eval phase
// will; they must not mutate anything.
//
// Violations do not stop the simulation: deterministic runs must stay
// bit-identical with the monitor on or off, so the monitor records and
// the harness (cmd/chaos, tests) decides. FailFast panics instead, for
// interactive debugging where the first violation's cycle is what
// matters.
//
// Observability is pull-based, mirroring internal/trace: the monitor
// accumulates into Violations, Passes, and Total — plain values a harness
// reads after (or between) runs — and never writes to a log or stream of
// its own. Each Violation carries the check name, the cycle it fired at,
// and the check's error text; Err flattens the capped list into one error
// for test assertions. Capture is capped (beyond the cap only Total
// grows) so a check firing every interval cannot exhaust memory, and
// because checks run at the end-of-cycle barrier the recorded cycle
// numbers are identical on the kernel and on its reference stepper.
package invariant
