// Package noc models PANIC's on-chip interconnect at flit granularity: a
// lossless 2D-mesh network of wormhole routers with credit-based flow
// control and XY dimension-order routing (§3.1.2 of the paper), plus a
// single central crossbar used as an ablation baseline for the paper's
// wire-length argument against large crossbars.
//
// Timing model, following the paper: "The routers add one cycle of latency
// at each hop." A flit moves from one router's input buffer to the next
// router's input buffer in exactly one cycle; ejection into the local
// port's delivery queue also takes one cycle. Messages are segmented into
// width-bit flits; a message of b bits occupies ceil(b/width) consecutive
// flits that travel as a wormhole: the head flit reserves each output port
// and the tail flit releases it.
//
// The network is lossless: routers never drop flits, and backpressure is
// credit-based — an upstream router forwards a flit only when the
// downstream input buffer has space. Drops, when policy requires them,
// happen in the logical scheduler (internal/sched), never here.
//
// The host's work need not be per flit even though the model is. From the
// moment a long message's head flit leaves its source, the routers route
// only the head: the mesh advances the body behind it as one count per
// buffer lane (worm advance, worm.go), adding a lane at each hop the head
// takes, instead of ticking every router on its path. Timing is
// unchanged: each count moves exactly when the flit it stands for would,
// so per-flit link occupancy, credits and FlitHops stay exact at every
// cycle.
//
// With a tracer attached (Mesh.AttachTracer), every router owns a private
// span buffer and emits hop instants for forwarded head flits plus one
// mesh-transit span per delivered message (injection enqueue to tail-flit
// ejection) — see internal/trace for the determinism and cost contracts.
package noc

import (
	"fmt"

	"github.com/panic-nic/panic/internal/packet"
)

// NodeID identifies a tile on the fabric.
type NodeID int

// Coord is a mesh coordinate.
type Coord struct{ X, Y int }

// String formats the coordinate.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Flit is the unit of flow control. Only the head flit carries the message
// pointer; body flits model wire occupancy.
type Flit struct {
	// Msg is non-nil on the head flit only.
	Msg *packet.Message
	// Dst is the destination node, present on every flit of the packet so
	// body flits can follow the wormhole.
	Dst NodeID
	// Head and Tail mark the first and last flit (both set for a
	// single-flit message).
	Head, Tail bool
	// Flits is the message's length in flits (head flit only), so its
	// destination knows how many body flits follow without reading the
	// message.
	Flits int32
	// Enq is the cycle the message was injected (head flit only), for
	// latency accounting.
	Enq uint64
	// VC is the virtual channel the packet was assigned at injection; it
	// selects the buffer lane at every hop.
	VC int
}

// Fabric is an interconnect that moves messages between tiles. Both the 2D
// mesh and the crossbar baseline implement it, so higher layers are
// topology-agnostic.
type Fabric interface {
	// Nodes returns the number of attachment points.
	Nodes() int
	// CanInject reports whether the source tile can start injecting a
	// message to dst this cycle (with virtual channels, each VC lane has
	// its own injection queue, so admission depends on the destination).
	CanInject(src, dst NodeID) bool
	// Inject queues a message for delivery; the caller must check
	// CanInject first. Latency and bandwidth are simulated by the fabric.
	Inject(src, dst NodeID, msg *packet.Message)
	// TryEject removes and returns the next message delivered to the
	// node, if any.
	TryEject(node NodeID) (*packet.Message, bool)
	// HasEjectable reports whether TryEject would currently succeed,
	// without consuming the message. Event-aware tiles use it to decide
	// whether a pending arrival forces them to stay awake.
	HasEjectable(node NodeID) bool
	// FlitsFor returns the number of flits a message occupies.
	FlitsFor(msg *packet.Message) int
}

// flitsFor segments a message of the given wire length into width-bit flits.
func flitsFor(wireBytes, widthBits int) int {
	bits := wireBytes * 8
	n := (bits + widthBits - 1) / widthBits
	if n < 1 {
		n = 1
	}
	return n
}

// Stats aggregates fabric-level measurements.
type Stats struct {
	// Injected and Delivered count messages.
	Injected, Delivered uint64
	// FlitHops counts flit-link traversals (for utilization).
	FlitHops uint64
	// TotalLatency accumulates inject-to-eject cycles over delivered
	// messages.
	TotalLatency uint64
}

// MeanLatency returns the mean delivery latency in cycles.
func (s Stats) MeanLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Delivered)
}
