// Package chaos is the seeded chaos/soak harness: it composes
// random-but-deterministic fault plans, tenant mixes, workloads, and
// configuration knobs (queue capacity, replicas) into short scenarios,
// runs each with the runtime invariant monitor armed (internal/invariant),
// and on a violation shrinks the scenario to a minimal reproducer
// serialized as a replayable text file.
//
// The seed is the whole story: Generate(seed, cycles) always builds the
// same scenario, and a scenario file replays bit-identically, so every
// failure the nightly soak finds is a complete reproducer. Shrink
// preserves that property — each candidate it tries is itself a full
// scenario, re-run from scratch, and the minimal failing scenario it
// returns reproduces the original violation class, not merely some
// failure.
//
// Observability follows the repository's determinism contract: a run's
// outcome is a Failure value (seed, cycle, violated invariants, the
// scenario text) rather than a log stream, so harnesses decide what to
// print and CI output is stable across runs. cmd/chaos renders
// Failures as progress lines plus a reproducer file per shrunk failure;
// replaying that file with -replay re-arms the same monitor and must
// reproduce the same violation at the same cycle. See ROBUSTNESS.md for
// the soak methodology and the invariant catalog the monitor enforces.
package chaos
