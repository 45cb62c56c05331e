// Package trace is the simulator's opt-in, deterministic, per-message
// tracing subsystem: the observability layer over the cycle-level kernel.
//
// Every packet.Message carries a TraceID, stamped at ingress by the
// Ethernet MAC and propagated onto every derived message (DMA completions,
// host responses, LSO segments), so one wire request and everything it
// spawns share an identity. Instrumented points — RMT pipeline stages,
// mesh router hops and ejections, engine scheduling-queue enqueue/dequeue
// (with depth and slack), service occupancy, fabric injections, terminal
// deliveries, drops, and control-plane failover actions — emit
// cycle-stamped Span records describing the message's journey.
//
// # Determinism contract
//
// The kernel's contract is that tick order within a cycle is unobservable,
// so instrumented components cannot append to one shared stream in tick
// order. Instead, every emitting component owns a private Buffer (one per
// tile, one per mesh router, one per sequential-phase group such as the
// staged terminal sinks or the control plane), obtained from the Tracer at
// assembly time. During a cycle each component appends
// spans only to its own buffer — single writer, program order. The Tracer
// itself is a sim.Committer registered LAST on the kernel: at the Commit
// phase, after every staged sink has flushed, it drains all buffers into
// the master span stream in buffer-creation order. Creation order is fixed
// by NIC assembly, so the resulting stream is byte-identical on the kernel
// and on its reference stepper (skipped cycles run no phases and can emit
// nothing — a component with a non-empty buffer is never asleep, because
// it emitted while doing work).
//
// # Cost contract
//
// Tracing disabled (a nil *Buffer on the component, or a message whose
// TraceID fails the sampling filter) adds zero allocations and a single
// predictable branch per instrumented point; internal/engine's
// zero-allocation guard test enforces this. Enabled, a span is one struct
// append into a reused buffer — no formatting, no maps, no time.Now.
//
// # Analysis
//
// On top of the raw stream, Set provides a Chrome trace_event / Perfetto
// JSON exporter (WriteChrome/ReadChrome), per-stage and end-to-end latency
// breakdowns backed by stats histograms, a collapsed-stack flamegraph
// rendering, and a per-message timeline. cmd/tracetool filters and
// aggregates exported files; OBSERVABILITY.md documents the schema and
// workflow.
package trace

import (
	"fmt"
	"sort"
)

// Kind classifies a span: what happened to the message at this point.
type Kind uint8

// Span kinds. Instant kinds (Gen, Enq, Inject, Hop, Deliver, Drop,
// Control) have Start == End; the rest are closed cycle intervals.
const (
	// KindGen marks a message entering the simulation at a generating
	// engine (MAC RX, TX-DMA response fetch). B = wire length in bytes.
	KindGen Kind = iota
	// KindEnq marks a scheduling-queue push that was accepted.
	// A = rank, B = queue depth after the push.
	KindEnq
	// KindWait spans the scheduling-queue residency, enqueue to dequeue.
	// A = queue depth before the pop, B = chain slack at dequeue.
	KindWait
	// KindService spans engine service occupancy, start to completion.
	KindService
	// KindRMTParse spans the RMT pipeline's parser stage. A = 1 when the
	// pipeline's flow cache replayed the verdict instead of walking the
	// tables (timing is identical; this flags the fast path).
	KindRMTParse
	// KindRMTStage spans one match+action stage. A = stage index.
	KindRMTStage
	// KindRMTDeparse spans the RMT deparser stage.
	KindRMTDeparse
	// KindRMTStall spans the extra cycles a message sat frozen in the RMT
	// pipeline because the downstream fabric backpressured it.
	KindRMTStall
	// KindInject marks a fabric injection. A = destination node,
	// B = flit count.
	KindInject
	// KindHop marks a head flit forwarded by a mesh router toward a
	// neighbor. A = output port (see PortName), B = destination node.
	KindHop
	// KindEject spans fabric transit: injection enqueue to ejection at
	// the destination router.
	KindEject
	// KindDeliver marks a terminal sink delivery (host memory or wire).
	// B = wire length in bytes. The cycle may lie in the future relative
	// to emission: DMA writes deliver at now + host-memory latency.
	KindDeliver
	// KindDrop marks a message leaving the simulation involuntarily.
	// A = reason code (see DropReason).
	KindDrop
	// KindControl marks a control-plane event (fault injected/lifted,
	// failure detected, rerouted, punted, drained, recovered,
	// reintegrated). Msg is 0; Loc is the event code; A = engine address.
	KindControl
	numKinds
)

var kindNames = [numKinds]string{
	"gen", "enqueue", "queue-wait", "service",
	"rmt-parse", "rmt-stage", "rmt-deparse", "rmt-stall",
	"inject", "hop", "mesh-transit", "deliver", "drop", "control",
}

// String returns the kind's stable name (used in exports).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// kindByName is the reverse of String, for ReadChrome.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, numKinds)
	for k, n := range kindNames {
		m[n] = Kind(k)
	}
	return m
}()

// Instant reports whether the kind is a point event (Start == End).
func (k Kind) Instant() bool {
	switch k {
	case KindGen, KindEnq, KindInject, KindHop, KindDeliver, KindDrop, KindControl:
		return true
	}
	return false
}

// Drop reason codes carried in a KindDrop span's A field.
const (
	// DropQueueShed: evicted by a scheduling queue under the
	// drop-lowest-priority policy.
	DropQueueShed = iota
	// DropFault: discarded by an injected every-Nth drop fault.
	DropFault
	// DropCorrupt: discarded by an injected corruption fault (bad
	// checksum detected at the engine front end).
	DropCorrupt
	// DropRMT: dropped by the RMT program or a parse error.
	DropRMT
	// DropDrained: evicted by a control-plane drain-and-reset (the
	// message re-enters the fabric toward the drain target; the drop
	// span marks the eviction, not a loss).
	DropDrained
)

// DropReason names a drop reason code.
func DropReason(code uint64) string {
	switch code {
	case DropQueueShed:
		return "queue-shed"
	case DropFault:
		return "fault-drop"
	case DropCorrupt:
		return "corrupt"
	case DropRMT:
		return "rmt-drop"
	case DropDrained:
		return "drained"
	}
	return fmt.Sprintf("reason-%d", code)
}

// PortName names a mesh router output port carried in a KindHop span's A
// field (internal/noc's port order).
func PortName(port uint64) string {
	switch port {
	case 0:
		return "local"
	case 1:
		return "north"
	case 2:
		return "east"
	case 3:
		return "south"
	case 4:
		return "west"
	}
	return fmt.Sprintf("port-%d", port)
}

// LocKind is the namespace of a span's location.
type LocKind uint8

// Location kinds.
const (
	// LocEngine: Loc is a packet.Addr (a tile or RMT pipeline).
	LocEngine LocKind = iota
	// LocNode: Loc is a noc.NodeID (a mesh router).
	LocNode
	// LocSink: Loc is a terminal sink index (0 = host, 1 = wire).
	LocSink
	// LocControl: Loc is a control-plane event code.
	LocControl
	numLocKinds
)

var locPrefixes = [numLocKinds]string{"engine", "node", "sink", "ctl"}

// Span is one trace record: something happened to message Msg over the
// cycle interval [Start, End] at location (LocKind, Loc). A and B carry
// kind-specific detail (see the Kind constants). The struct is flat and
// pointer-free so buffers of spans cost the allocator nothing to grow and
// nothing to scan.
type Span struct {
	// Msg is the message's TraceID (0 for KindControl).
	Msg uint64
	// Start and End are cycles; Start == End for instant kinds.
	Start, End uint64
	// A and B are kind-specific details.
	A, B uint64
	// Kind classifies the span.
	Kind Kind
	// LocKind and Loc identify where it happened.
	LocKind LocKind
	Loc     uint32
	// Tenant is the message's accounting tenant at emission time (0 when
	// the emitting point has no tenant in hand, e.g. most control spans).
	// Tenant-scoped control-plane events carry the tenant they acted on.
	Tenant uint16
}

// Dur returns the span length in cycles.
func (s Span) Dur() uint64 { return s.End - s.Start }

type locKey struct {
	kind LocKind
	id   uint32
}

// Options parameterizes a Tracer.
type Options struct {
	// FreqHz converts cycles to wall time in exports. 0 means 500 MHz
	// (the paper's operating point).
	FreqHz float64
	// Sample keeps one message in N: a message is traced when
	// TraceID % Sample == 0. 0 or 1 traces everything. Sampling is a
	// pure function of the ID, so the same messages are traced on every
	// run and on every worker count.
	Sample uint64
	// MaxSpans caps the master stream; further spans are counted in
	// Set.Dropped instead of stored (no silent truncation: exports and
	// summaries surface the count). 0 means 2^21 (~118 MB of spans).
	MaxSpans int
	// NIC tags the span stream with a NIC identifier for multi-NIC fleet
	// runs: Chrome exports use it as the process id (pid = NIC+1) and
	// process name, so traces from several NICs load side by side in one
	// Perfetto view. Standalone runs leave it 0 (pid 1, unchanged output).
	NIC int
}

// Tracer owns the master span stream and hands out per-component buffers.
// It implements sim.Committer and must be registered on the kernel AFTER
// every instrumented component and staged sink (core.NewNIC does this), so
// each cycle's Commit drains every buffer filled that cycle.
type Tracer struct {
	set    Set
	sample uint64
	max    int
	bufs   []*Buffer
}

// New builds a Tracer.
func New(o Options) *Tracer {
	if o.FreqHz <= 0 {
		o.FreqHz = 500e6
	}
	if o.MaxSpans <= 0 {
		o.MaxSpans = 1 << 21
	}
	return &Tracer{
		set:    Set{FreqHz: o.FreqHz, NIC: o.NIC, names: make(map[locKey]string)},
		sample: o.Sample,
		max:    o.MaxSpans,
	}
}

// Want reports whether spans for the given TraceID should be emitted.
// ID 0 (a message never stamped) is never traced. Safe on a nil Tracer.
func (t *Tracer) Want(id uint64) bool {
	if t == nil || id == 0 {
		return false
	}
	return t.sample <= 1 || id%t.sample == 0
}

// Buffer allocates a new per-component span buffer. Call order defines
// drain order, so assembly must create buffers deterministically. name
// labels the buffer for debugging only; span locations are named with
// NameLoc.
func (t *Tracer) Buffer(name string) *Buffer {
	b := &Buffer{tr: t, name: name, spans: make([]Span, 0, 16)}
	t.bufs = append(t.bufs, b)
	return b
}

// NameLoc registers a human-readable name for a span location, used by
// exporters ("eth0", "router(2,3)", "host").
func (t *Tracer) NameLoc(k LocKind, id uint32, name string) {
	t.set.names[locKey{k, id}] = name
}

// Commit implements sim.Committer: drain every buffer into the master
// stream in buffer-creation order.
func (t *Tracer) Commit() {
	for _, b := range t.bufs {
		if len(b.spans) == 0 {
			continue
		}
		take := b.spans
		if room := t.max - len(t.set.Spans); room < len(take) {
			t.set.Dropped += uint64(len(take) - room)
			take = take[:room]
		}
		t.set.Spans = append(t.set.Spans, take...)
		b.spans = b.spans[:0]
	}
}

// Set returns the collected spans. Valid any time; the stream grows until
// MaxSpans.
func (t *Tracer) Set() *Set { return &t.set }

// Snapshot returns a copy of the collected spans that stays stable while
// the simulation keeps running — the on-demand export hook for the serve
// control plane's trace download. The span slice is copied; the location
// name table is shared (it is written only during NIC assembly). Call it
// from the goroutine driving the kernel, between cycles (the serve loop
// does it at its command barrier), never concurrently with Commit.
func (t *Tracer) Snapshot() *Set {
	out := &Set{FreqHz: t.set.FreqHz, Dropped: t.set.Dropped, NIC: t.set.NIC, names: t.set.names}
	out.Spans = append([]Span(nil), t.set.Spans...)
	return out
}

// Buffer is one component's private span staging area. The owning
// component is the only writer during a cycle; the Tracer drains it at
// Commit. All methods are safe on a nil *Buffer (tracing disabled), which
// is how instrumented code avoids any cost when no tracer is attached.
type Buffer struct {
	tr    *Tracer
	name  string
	spans []Span
}

// Want reports whether spans for the TraceID should be emitted here.
func (b *Buffer) Want(id uint64) bool {
	return b != nil && b.tr.Want(id)
}

// Emit appends a span. Callers must gate on Want (Emit on a nil buffer
// panics, by design: an unguarded emission is an instrumentation bug).
func (b *Buffer) Emit(sp Span) { b.spans = append(b.spans, sp) }

// Set is a collection of spans plus the metadata needed to interpret
// them: the clock frequency and the location name table.
type Set struct {
	// FreqHz converts cycles to wall time.
	FreqHz float64
	// Spans is the stream, in commit order.
	Spans []Span
	// Dropped counts spans discarded after MaxSpans filled.
	Dropped uint64
	// NIC is the fleet NIC identifier the stream was recorded on (see
	// Options.NIC); 0 for standalone runs.
	NIC int

	names map[locKey]string
}

// LocName returns the registered name for a location, or a stable
// "engine34"-style fallback.
func (s *Set) LocName(k LocKind, id uint32) string {
	if n, ok := s.names[locKey{k, id}]; ok {
		return n
	}
	prefix := "loc"
	if int(k) < len(locPrefixes) {
		prefix = locPrefixes[k]
	}
	return fmt.Sprintf("%s%d", prefix, id)
}

// setName is ReadChrome's hook to rebuild the name table.
func (s *Set) setName(k LocKind, id uint32, name string) {
	if s.names == nil {
		s.names = make(map[locKey]string)
	}
	s.names[locKey{k, id}] = name
}

// Messages returns the distinct TraceIDs present, ascending.
func (s *Set) Messages() []uint64 {
	seen := make(map[uint64]bool)
	var ids []uint64
	for _, sp := range s.Spans {
		if sp.Msg != 0 && !seen[sp.Msg] {
			seen[sp.Msg] = true
			ids = append(ids, sp.Msg)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Filter returns a new Set holding only spans the predicate keeps,
// sharing the name table and frequency.
func (s *Set) Filter(keep func(Span) bool) *Set {
	out := &Set{FreqHz: s.FreqHz, names: s.names, Dropped: s.Dropped}
	for _, sp := range s.Spans {
		if keep(sp) {
			out.Spans = append(out.Spans, sp)
		}
	}
	return out
}
