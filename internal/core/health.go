package core

import (
	"fmt"
	"strings"

	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/rmt"
	"github.com/panic-nic/panic/internal/trace"
)

// HealthConfig parameterizes the self-healing control plane: a periodic
// health monitor that watches per-tile liveness, declares failure after a
// detection window, and recovers by reprogramming RMT steering toward a
// replica, punting to the host when no replica exists, and draining and
// reintegrating the failed tile.
type HealthConfig struct {
	// Enable turns the monitor on. Off by default: the baseline NIC is
	// byte-identical with and without the health subsystem compiled in.
	Enable bool
	// TenantDomains scopes failover per engine: when a listed engine fails,
	// only the named tenants' chain entries (table entries pinning
	// meta.tenant) are repointed, one rewrite and one log event per tenant,
	// and shared steering keeps its target. Engines without an entry fail
	// over globally as before. Reintegration honors the same scoping.
	TenantDomains map[packet.Addr][]uint16
}

// Health monitor timing.
const (
	// healthCheckPeriod is how often (cycles) the monitor samples tile
	// liveness.
	healthCheckPeriod uint64 = 64
	// healthDetectWindow is how long (cycles) a tile must be stalled —
	// work queued or in service but zero completions — before the monitor
	// declares it failed.
	healthDetectWindow uint64 = 2048
	// healthRecoverProgress is how many completions the failover target
	// must make before the monitor declares service recovered.
	healthRecoverProgress uint64 = 1
)

// DefaultHealthConfig returns the monitor enabled.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{Enable: true}
}

// FailureEvent is one entry in the structured failure log.
type FailureEvent struct {
	// Cycle is when the event was observed.
	Cycle uint64
	// Kind is the event class: fault-injected, fault-lifted (from the
	// fault plan), detected, rerouted, punted, unrecoverable, drained,
	// recovered, reintegrated (from the health monitor).
	Kind string
	// Engine is the tile the event concerns.
	Engine packet.Addr
	// Tenant is the tenant a tenant-scoped action concerned, valid only
	// when Tenanted (tenant-domain reroutes log one event per tenant).
	Tenant   uint16
	Tenanted bool
	// Target is where steering points after a rerouted, punted, or
	// reintegrated action (the standby, the punt alias, or the restored
	// original); AddrInvalid otherwise. The invariant monitor's
	// health-legality check audits reroute targets through it.
	Target packet.Addr
	// Link marks fault-injected/fault-lifted events that concern a mesh
	// link rather than an engine (Engine is meaningless on them).
	Link bool
	// Detail is a human-readable elaboration.
	Detail string
}

// EventLog accumulates failure events in simulation order. It is
// deterministic: two runs with the same seed and fault plan produce
// byte-identical String() output.
type EventLog struct {
	events []FailureEvent
	tb     *trace.Buffer
}

// ctlCodes maps failure-event kinds to KindControl span location codes
// (trace.LocControl). Code 0 is reserved for unknown kinds.
var ctlCodes = map[string]uint32{
	"fault-injected": 1,
	"fault-lifted":   2,
	"detected":       3,
	"rerouted":       4,
	"punted":         5,
	"drained":        6,
	"recovered":      7,
	"reintegrated":   8,
	"unrecoverable":  9,
}

// AttachTracer mirrors the log into the trace as control spans on a
// dedicated buffer. Events are appended only from the sequential event and
// serial phases (fault plans and the health monitor), so one shared buffer
// keeps the single-writer rule.
func (l *EventLog) AttachTracer(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	tr.NameLoc(trace.LocControl, 0, "control")
	for kind, code := range ctlCodes {
		tr.NameLoc(trace.LocControl, code, kind)
	}
	l.tb = tr.Buffer("control")
}

// Append records an event.
func (l *EventLog) Append(e FailureEvent) {
	l.events = append(l.events, e)
	if l.tb != nil {
		sp := trace.Span{
			Kind: trace.KindControl, LocKind: trace.LocControl,
			Loc: ctlCodes[e.Kind], Start: e.Cycle, End: e.Cycle,
			A: uint64(e.Engine),
		}
		if e.Tenanted {
			sp.Tenant = e.Tenant
		}
		l.tb.Emit(sp)
	}
}

// Events returns the recorded events.
func (l *EventLog) Events() []FailureEvent { return l.events }

// String renders the log, one event per line.
func (l *EventLog) String() string {
	var sb strings.Builder
	for _, e := range l.events {
		fmt.Fprintf(&sb, "cycle %8d  %-14s %-10s %s\n", e.Cycle, e.Kind, EngineName(e.Engine), e.Detail)
	}
	return sb.String()
}

// MTTR returns the mean-time-to-recovery for the given engine: cycles from
// the first fault-injected event (or, absent one, the first detection) to
// the first recovered event after it. ok is false when the log does not
// contain a completed failure episode for the engine.
func (l *EventLog) MTTR(addr packet.Addr) (cycles uint64, ok bool) {
	var start uint64
	haveStart := false
	for _, e := range l.events {
		if e.Engine != addr {
			continue
		}
		switch e.Kind {
		case "fault-injected":
			if !haveStart {
				start, haveStart = e.Cycle, true
			}
		case "detected":
			if !haveStart {
				start, haveStart = e.Cycle, true
			}
		case "recovered":
			if haveStart {
				return e.Cycle - start, true
			}
		}
	}
	return 0, false
}

type watchState int

const (
	watchHealthy watchState = iota
	watchFailed
	watchRecovered
)

// watch is the monitor's per-tile state machine.
type watch struct {
	tile     *engine.Tile
	standbys []packet.Addr // failover candidates in preference order

	state         watchState
	lastProcessed uint64
	stalledSince  uint64
	stalled       bool

	// Failure episode state.
	reroutedTo   packet.Addr  // where steering now points (replica or punt alias)
	targetTile   *engine.Tile // tile serving the rerouted traffic
	targetBase   uint64       // target's Processed at reroute time
	faultyAtFail bool         // tile had an injected fault when declared failed
	punted       bool
}

// HealthMonitor is the self-healing control plane. It implements
// sim.Ticker and must be registered with RegisterSerial, after every tile:
// each check samples the cycle's final state, and its probes and recovery
// actions read and rewrite state owned by many tiles (steering tables,
// queue resets), which must not interleave with the cycle's Eval ticks.
// NewNIC does this and declares the check cycles with sim.Kernel.Due.
// All recovery actions go through the same control interfaces real
// hardware exposes: RMT table rewrites, route-table binds, and tile
// resets.
type HealthMonitor struct {
	b        *Builder
	prog     *rmt.Program
	log      *EventLog
	watches  []*watch
	byAddr   map[packet.Addr]*watch
	nextPunt packet.Addr
	domains  map[packet.Addr][]uint16
}

// NewHealthMonitor builds a monitor watching every engine tile placed so
// far. Standby groups are declared afterwards with SetStandbys.
func NewHealthMonitor(cfg HealthConfig, b *Builder, prog *rmt.Program, log *EventLog) *HealthMonitor {
	m := &HealthMonitor{
		b:        b,
		prog:     prog,
		log:      log,
		byAddr:   make(map[packet.Addr]*watch),
		nextPunt: AddrPuntBase,
		domains:  cfg.TenantDomains,
	}
	for _, t := range b.Tiles {
		w := &watch{tile: t}
		m.watches = append(m.watches, w)
		m.byAddr[t.Addr()] = w
	}
	return m
}

// SetStandbys declares the failover candidates for an engine, in
// preference order (e.g. the other members of its replica group).
func (m *HealthMonitor) SetStandbys(addr packet.Addr, standbys []packet.Addr) {
	w := m.byAddr[addr]
	if w == nil {
		panic(fmt.Sprintf("core: SetStandbys for unwatched engine %d", addr))
	}
	w.standbys = standbys
}

// nextCheck is the monitor's step schedule (see sim.Kernel.Due): it acts
// only on multiples of healthCheckPeriod, and those check cycles are never
// skippable — the watchdog's stall clock must observe quiet periods
// exactly as the reference stepper would.
func (m *HealthMonitor) nextCheck(now uint64) uint64 {
	return now + (healthCheckPeriod-now%healthCheckPeriod)%healthCheckPeriod
}

// Tick implements sim.Ticker.
func (m *HealthMonitor) Tick(cycle uint64) {
	if cycle%healthCheckPeriod != 0 {
		return
	}
	for _, w := range m.watches {
		switch w.state {
		case watchHealthy:
			m.checkLiveness(w, cycle)
		case watchFailed:
			if m.tryReintegrate(w, cycle) {
				continue
			}
			m.redrain(w, cycle)
			m.checkRecovery(w, cycle)
		case watchRecovered:
			if m.tryReintegrate(w, cycle) {
				continue
			}
			m.redrain(w, cycle)
		}
	}
}

// checkLiveness advances the stall watchdog: a tile with work pending
// (queued or in service) but no completions since the last check is
// stalled; a stall outlasting healthDetectWindow is a failure. A wedged
// tile with an empty queue and nothing in service is indistinguishable
// from an idle one and is (correctly) not flagged — there is no service to
// heal.
func (m *HealthMonitor) checkLiveness(w *watch, cycle uint64) {
	st := w.tile.Stats()
	stalledNow := (w.tile.QueueLen() > 0 || w.tile.Busy()) && st.Processed == w.lastProcessed
	w.lastProcessed = st.Processed
	if !stalledNow {
		w.stalled = false
		return
	}
	if !w.stalled {
		w.stalled = true
		w.stalledSince = cycle
		return
	}
	if cycle-w.stalledSince >= healthDetectWindow {
		m.fail(w, cycle)
	}
}

// fail declares the tile failed and executes recovery: reroute to the
// first healthy standby, else punt to the host, then drain the wedge.
func (m *HealthMonitor) fail(w *watch, cycle uint64) {
	addr := w.tile.Addr()
	w.state = watchFailed
	w.stalled = false
	w.faultyAtFail = !w.tile.FaultState().Clean()
	m.log.Append(FailureEvent{Cycle: cycle, Kind: "detected", Engine: addr,
		Detail: fmt.Sprintf("stalled since cycle %d (queue=%d busy=%v)", w.stalledSince, w.tile.QueueLen(), w.tile.Busy())})

	if target, ok := m.pickStandby(w); ok {
		w.reroutedTo = target
		w.targetTile = m.b.TileByAddr(target)
		w.targetBase = w.targetTile.Stats().Processed
		w.punted = false
		for _, r := range m.rewriteSteering(addr, addr, target) {
			m.log.Append(FailureEvent{Cycle: cycle, Kind: "rerouted", Engine: addr,
				Tenant: r.tenant, Tenanted: r.tenanted, Target: target,
				Detail: r.prefix() + fmt.Sprintf("steering -> %s (%d table actions rewritten)", EngineName(target), r.n)})
		}
	} else if alias, ok := m.bindPuntAlias(addr); ok {
		w.reroutedTo = alias
		w.targetTile = m.b.TileByAddr(AddrDMA)
		w.targetBase = w.targetTile.Stats().Processed
		w.punted = true
		for _, r := range m.rewriteSteering(addr, addr, alias) {
			m.log.Append(FailureEvent{Cycle: cycle, Kind: "punted", Engine: addr,
				Tenant: r.tenant, Tenanted: r.tenanted, Target: alias,
				Detail: r.prefix() + fmt.Sprintf("steering -> host via DMA alias %d (%d table actions rewritten)", alias, r.n)})
		}
	} else {
		w.reroutedTo = packet.AddrInvalid
		w.targetTile = nil
		m.log.Append(FailureEvent{Cycle: cycle, Kind: "unrecoverable", Engine: addr,
			Detail: "no healthy standby and no DMA path to punt to"})
	}
	m.redrain(w, cycle)
}

// rewriteResult is one steering rewrite performed during failover or
// reintegration: global (tenanted false) or scoped to a single tenant.
type rewriteResult struct {
	tenant   uint16
	tenanted bool
	n        int
}

// prefix returns the tenant-qualifying log-detail prefix.
func (r rewriteResult) prefix() string {
	if !r.tenanted {
		return ""
	}
	return fmt.Sprintf("tenant %d ", r.tenant)
}

// rewriteSteering repoints chain hops from old to new. When the failed
// engine has a tenant domain declared, each domain tenant gets its own
// scoped rewrite (only entries pinning meta.tenant to it move) and the
// results come back one per tenant; otherwise a single global rewrite.
func (m *HealthMonitor) rewriteSteering(failed, old, new packet.Addr) []rewriteResult {
	tenants := m.domains[failed]
	if len(tenants) == 0 {
		return []rewriteResult{{n: m.prog.RewriteEngine(old, new)}}
	}
	out := make([]rewriteResult, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, rewriteResult{tenant: t, tenanted: true,
			n: m.prog.RewriteEngineTenant(old, new, rmt.FieldMetaTenant, uint64(t))})
	}
	return out
}

// pickStandby returns the first standby that is a safe failover target:
// watched-healthy, no injected fault, not mid-stall, and not behind a
// faulted mesh link. The last two are what prevent the ping-pong failure
// mode: a replica that is itself degraded by an active fault plan — its
// watchdog clock running but detection not yet expired, or its links
// severed so traffic steered at it blackholes — must not receive the
// failed engine's traffic only to fail over again moments later. With no
// safe standby the caller falls through to the punt-to-host path.
func (m *HealthMonitor) pickStandby(w *watch) (packet.Addr, bool) {
	for _, s := range w.standbys {
		sw := m.byAddr[s]
		if sw == nil || sw.state != watchHealthy || sw.stalled {
			continue
		}
		if !sw.tile.FaultState().Clean() {
			continue
		}
		if m.b.Mesh.NodeLinkFaulted(sw.tile.Node()) {
			continue
		}
		return s, true
	}
	return packet.AddrInvalid, false
}

// bindPuntAlias binds a fresh alias address to the DMA engine's node —
// the Fig 2c degraded mode where the failed offload's traffic goes to host
// software instead. A fresh alias per punt keeps reintegration unambiguous
// (rewriting the alias back cannot touch legitimate DMA hops).
func (m *HealthMonitor) bindPuntAlias(failed packet.Addr) (packet.Addr, bool) {
	if failed == AddrDMA || !m.b.Routes.Has(AddrDMA) {
		return packet.AddrInvalid, false
	}
	dw := m.byAddr[AddrDMA]
	if dw != nil && dw.state != watchHealthy {
		return packet.AddrInvalid, false
	}
	alias := m.nextPunt
	m.nextPunt++
	m.b.Routes.Bind(alias, m.b.Routes.Lookup(AddrDMA))
	return alias, true
}

// redrain evicts queued/in-service messages from a failed tile toward its
// default route (the RMT pipelines), where they are reclassified under the
// rewritten steering tables and follow the failover path. Stragglers that
// were already in the NoC keep arriving at the failed tile, so this runs
// every check while the episode lasts.
func (m *HealthMonitor) redrain(w *watch, cycle uint64) {
	if n := w.tile.Reset(packet.AddrInvalid); n > 0 {
		m.log.Append(FailureEvent{Cycle: cycle, Kind: "drained", Engine: w.tile.Addr(),
			Detail: fmt.Sprintf("%d messages evicted to reclassification", n)})
	}
}

// checkRecovery declares service recovered once the failover target has
// made healthRecoverProgress completions since the reroute. For a punted
// engine the DMA tile's progress is the proxy: the host is absorbing the
// traffic.
func (m *HealthMonitor) checkRecovery(w *watch, cycle uint64) {
	if w.targetTile == nil {
		return
	}
	if w.targetTile.Stats().Processed-w.targetBase < healthRecoverProgress {
		return
	}
	w.state = watchRecovered
	m.log.Append(FailureEvent{Cycle: cycle, Kind: "recovered", Engine: w.tile.Addr(),
		Detail: fmt.Sprintf("%s made %d completions since reroute", EngineName(w.targetTile.Addr()), w.targetTile.Stats().Processed-w.targetBase)})
}

// tryReintegrate restores steering to the original tile once its injected
// fault has been lifted, returning the watch to healthy. Only episodes
// that began with an injected fault reintegrate automatically — a stall
// with no known fault has no "fault cleared" edge to key on.
func (m *HealthMonitor) tryReintegrate(w *watch, cycle uint64) bool {
	if !w.faultyAtFail || w.reroutedTo == packet.AddrInvalid {
		return false
	}
	if !w.tile.FaultState().Clean() {
		return false
	}
	addr := w.tile.Addr()
	for _, r := range m.rewriteSteering(addr, w.reroutedTo, addr) {
		m.log.Append(FailureEvent{Cycle: cycle, Kind: "reintegrated", Engine: addr,
			Tenant: r.tenant, Tenanted: r.tenanted, Target: addr,
			Detail: r.prefix() + fmt.Sprintf("steering restored from %s (%d table actions rewritten)", EngineName(w.reroutedTo), r.n)})
	}
	w.state = watchHealthy
	w.stalled = false
	w.lastProcessed = w.tile.Stats().Processed
	w.reroutedTo = packet.AddrInvalid
	w.targetTile = nil
	w.faultyAtFail = false
	w.punted = false
	return true
}
