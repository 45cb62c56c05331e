// Package serve is the control-and-ingest plane for a long-running PANIC
// simulation: a stdlib net/http server wrapped around one NIC whose kernel
// is driven in fixed cycle quanta by a single loop goroutine. HTTP clients
// never touch simulation state directly. Reads are served from an
// atomically published snapshot refreshed at every quantum boundary, and
// every mutation — trace or stream ingest, RMT program edits, tenant
// weight swaps, fault-plan injection — is queued as an operation that the
// loop applies at the next cycle-aligned barrier, strictly between Run
// calls. Because Run(n) always advances the clock by exactly n cycles
// (skipped or stepped), barrier k sits at cycle k*quantum, so an
// operation pinned to a barrier lands on the same cycle whether the kernel
// ticks only the woken components and skips idle cycles or, as its
// reference stepper, ticks every component every cycle — which is what
// keeps a live-reconfigured run bit-identical to a replay.
//
// Observability: the server is built to be watched. GET /statz returns the
// latest published core.StatsSnapshot extended with barrier position,
// per-port ingest counters, and operation backlog; GET /oplog returns the
// applied-operation log (sequence, barrier, cycle, result) that makes a
// live session replayable; GET /trace exports the deterministic span trace
// as Perfetto-loadable Chrome JSON without stopping the run. Liveness
// (/healthz) and readiness (/readyz) split "the loop is alive" from "the
// server accepts work": a draining server is alive but not ready, and
// drain itself is observable as barriers that deliver nothing.
package serve
