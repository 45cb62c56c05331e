// Package engine implements PANIC's offload-engine tiles (Figure 3a of the
// paper): each tile couples an offload's compute model with the local
// pieces of the logical switch and logical scheduler — a lightweight lookup
// table for chain steering, a slack-ordered scheduling queue, and the
// router attachment to the on-chip network.
//
// The package provides the tile framework plus the offload library the
// paper discusses: Ethernet MACs, DMA and PCIe engines, IPSec,
// an on-NIC key-value cache, RDMA, compression, checksum, regex, and
// embedded-CPU engines.
//
// Every tile is an instrumentation point for internal/trace: with a trace
// buffer in its TileConfig it emits spans for queue enqueue/dequeue (with
// depth and slack), service occupancy, fabric injection, and drops; the
// RMT tile additionally reconstructs per-stage pipeline spans. A nil
// buffer costs one branch and zero allocations per point — the ingress MAC
// stamps TraceIDs unconditionally so enabling tracing never perturbs the
// simulation.
package engine

import (
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
)

// Ctx is passed to engine callbacks.
type Ctx struct {
	// Now is the current cycle.
	Now uint64
	// RNG is the tile's private random stream (for variable-latency
	// models).
	RNG *sim.RNG
	// Addr is the tile's logical address.
	Addr packet.Addr
	// Pool is the NIC's message pool (nil outside a NIC). Engines build
	// the messages they create from it and release to it every message
	// they consume (see packet.MessagePool for the ownership rule).
	Pool *packet.MessagePool
}

// Out is a message an engine wants to send.
type Out struct {
	Msg *packet.Message
	// To is an explicit destination engine; AddrInvalid means "follow
	// the message's chain, falling back to the default route" (§3.1.2:
	// a default route back to the heavyweight RMT pipeline).
	To packet.Addr
	// Delay defers the send by the given number of cycles (e.g. a DMA
	// completion arriving after host-memory latency).
	Delay uint64
}

// Engine is the offload compute model plugged into a Tile. Engines are
// self-contained (§3.1.1): the framework imposes no line-rate constraint.
type Engine interface {
	// Name identifies the engine in stats and traces.
	Name() string
	// ServiceCycles returns how long the engine occupies itself with the
	// message (its service time). Zero-cost engines still take one cycle.
	ServiceCycles(msg *packet.Message) uint64
	// Process runs when service completes. It may transform msg, emit it
	// onward, emit new messages, or consume it (return no Out carrying
	// it, and release it to ctx.Pool). The returned slice is only read
	// until the next call, so engines return one reused buffer.
	Process(ctx *Ctx, msg *packet.Message) []Out
}

// Generator is implemented by engines that create messages spontaneously
// (the Ethernet MAC RX path). Generate is called once per cycle.
type Generator interface {
	Generate(ctx *Ctx) []Out
}

// TimedEngine is an optional refinement of Engine for service times that
// depend on the current cycle (e.g. token buckets). When implemented, the
// tile calls ServiceCyclesAt instead of ServiceCycles.
type TimedEngine interface {
	Engine
	ServiceCyclesAt(ctx *Ctx, msg *packet.Message) uint64
}

// Source supplies packets to an ingress engine. Poll returns a message
// whose arrival time is at or before now, or nil. Implementations pace
// arrivals (workload generators live in internal/workload).
type Source interface {
	Poll(now uint64) *packet.Message
}

// ArrivalSource is an optional refinement of Source for generators that
// know when their next packet becomes available, enabling idle-cycle
// fast-forward. NextArrival returns the earliest cycle at which Poll may
// return non-nil; ok == false means the source is exhausted and will never
// produce again. The returned cycle must exactly match the first cycle at
// which Poll succeeds: skipped polling cycles must be provable no-ops.
type ArrivalSource interface {
	Source
	NextArrival(now uint64) (cycle uint64, ok bool)
}

// IdleReporter is an optional refinement of Engine reporting when its
// private state next changes: idle == true means nothing happens until an
// input arrives; otherwise every cycle in [now, next) is a no-op for the
// engine. The tile combines it with its own queue and service-loop
// occupancy to declare its wake cycle (see Tile.EndCycle). Engines that
// hold no hidden time-dependent state (most of the library) need not
// implement it; the tile then treats the engine as quiescent whenever the
// tile itself is drained — except for Generators, which are assumed
// always-busy unless they report otherwise.
type IdleReporter interface {
	NextWork(now uint64) (next uint64, idle bool)
}

// Sink receives messages leaving the simulated NIC (host delivery, wire
// transmission). Implementations record latency and throughput. A sink at
// a terminal point owns what it receives and releases it to the NIC's
// pool (see packet.MessagePool).
type Sink interface {
	Deliver(msg *packet.Message, now uint64)
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(msg *packet.Message, now uint64)

// Deliver implements Sink.
func (f SinkFunc) Deliver(msg *packet.Message, now uint64) { f(msg, now) }

// NullSink discards messages.
type NullSink struct{}

// Deliver implements Sink.
func (NullSink) Deliver(*packet.Message, uint64) {}

// outBuf is the reused slice an engine returns from Process or Generate.
type outBuf []Out

// one refills the buffer with the single Out o and returns it.
func (b *outBuf) one(o Out) []Out {
	*b = append((*b)[:0], o)
	return *b
}
