package engine

import (
	"github.com/panic-nic/panic/internal/noc"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sched"
	"github.com/panic-nic/panic/internal/sim"
	"github.com/panic-nic/panic/internal/trace"
)

// TileConfig parameterizes a tile.
type TileConfig struct {
	// Addr is the tile's logical engine address (must be bound in the
	// route table).
	Addr packet.Addr
	// Node is the tile's attachment point on the fabric.
	Node noc.NodeID
	// QueueCap is the scheduling queue capacity in messages.
	QueueCap int
	// Policy is the queue's overflow policy (lossless backpressure or
	// priority drop).
	Policy sched.Policy
	// Rank orders the scheduling queue; nil means LSTF on chain slack.
	Rank sched.RankFunc
	// DefaultSpread, when non-empty, sprays chainless traffic across the
	// given addresses round-robin per message — how ingress hardware
	// load-balances across parallel RMT pipelines — in place of the route
	// table's default route.
	DefaultSpread []packet.Addr
	// Trace, when non-nil, receives cycle-stamped span records for
	// sampled messages (see internal/trace): queue enqueue/dequeue with
	// depth and slack, service occupancy, fabric injections, and drops.
	// Nil disables tracing at zero cost on the hot path.
	Trace *trace.Buffer
}

// TileStats are one tile's counters.
type TileStats struct {
	// Processed counts messages whose service completed.
	Processed uint64
	// BusyCycles counts cycles the engine was serving a message.
	BusyCycles uint64
	// Dropped counts messages shed by the scheduling queue.
	Dropped uint64
	// Emitted counts messages sent into the fabric.
	Emitted uint64
	// QueueWaitTotal accumulates enqueue-to-service-start cycles.
	QueueWaitTotal uint64
	// StallCycles counts cycles the tile wanted to inject but the
	// fabric had no space.
	StallCycles uint64
	// FaultDropped counts arrivals discarded by an injected drop fault
	// (included in Dropped).
	FaultDropped uint64
	// Corrupted counts arrivals discarded by an injected corruption fault
	// (included in Dropped).
	Corrupted uint64
	// Drained counts messages evicted by a control-plane Reset.
	Drained uint64

	// Custody counters for the conservation audit: every message enters
	// the tile's custody through exactly one of Ejected (pulled from the
	// fabric), Generated (spontaneous generation), or ProcOut (emitted by
	// Process), and leaves through Emitted, Processed, Dropped, or
	// Refused. See AuditConservation.
	Ejected   uint64
	Generated uint64
	ProcOut   uint64
	// Refused counts lossless arrivals a full lossy queue could not admit
	// (every resident also lossless): the push is refused and the message
	// is lost without reaching the DropSink. Kept out of Dropped so the
	// existing drop accounting is unchanged; the conservation audit counts
	// it as an exit.
	Refused uint64
}

// MeanQueueWait returns the mean scheduling-queue wait in cycles.
func (s TileStats) MeanQueueWait() float64 {
	if s.Processed == 0 {
		return 0
	}
	return float64(s.QueueWaitTotal) / float64(s.Processed)
}

// TenantTally is one tenant's share of a tile's work: how much of the
// queue and the service pipeline that tenant consumed. The control plane
// reads these to check isolation (an aggressor's ServiceCycles should not
// grow at a victim's expense beyond its weight share).
type TenantTally struct {
	// Enqueued counts messages accepted into the scheduling queue.
	Enqueued uint64
	// Processed counts messages whose service completed.
	Processed uint64
	// ServiceCycles accumulates cycles spent serving this tenant.
	ServiceCycles uint64
	// QueueWaitTotal accumulates enqueue-to-service-start cycles.
	QueueWaitTotal uint64
	// Dropped counts messages shed by queue policy or injected faults
	// (drains re-inject rather than discard, so they are not counted).
	Dropped uint64
	// Rejected counts the subset of Dropped that died before entering the
	// scheduling queue: fault sheds and overflow self-drops. Dropped −
	// Rejected is therefore the number of resident messages evicted from
	// the queue, which the per-tenant conservation audit balances against
	// Enqueued.
	Rejected uint64
	// Drained counts this tenant's messages evicted from the queue (or
	// mid-service) by a control-plane Reset.
	Drained uint64
}

// Tile is an offload engine attached to the fabric: scheduling queue +
// compute + lightweight route lookup (Figure 3a). The queue and the router
// interface are its port; it implements sim.Ticker.
type Tile struct {
	port
	eng Engine
	ctx Ctx

	// Service state.
	cur      *packet.Message
	busyLeft uint64
	curStart uint64

	// Send state beyond the port's outbox: delayed emissions ordered by
	// due cycle, and the round-robin cursor over DefaultSpread.
	pending    []delayedOut
	spreadNext int

	// stats holds the tile's own counters; Stats merges in the port's.
	stats TileStats
	// tenants holds the tallies indexed by tenant ID. The table grows on
	// first sight of a tenant past its end (at most 2^16 slots), so
	// steady-state traffic never allocates, and a tally is one index
	// instead of a map lookup.
	tenants []tenantSlot
	// DropSink, when set, receives messages shed by the queue or by
	// injected faults, and owns them; without one the tile releases them
	// to its pool.
	DropSink Sink

	// Injected fault condition (zero = healthy) and the deterministic
	// arrival counters behind the every-Nth flake faults.
	fault       FaultState
	dropSeen    uint64
	corruptSeen uint64

	// pace is the token bucket of a generating engine with a source (nil
	// for others).
	pace *pacer

	// Sleep state beyond the port's (see EndCycle): wake and clk let
	// control-plane mutators (SetFault, Reset) force a tick and stamp
	// traces while the tile sleeps; sleepBusy and sleepRefill are the busy
	// accrual and the bucket refill captured at the sleep decision,
	// deferred like the port's stalls.
	wake        sim.Poker
	clk         *sim.Clock
	sleepBusy   bool
	sleepRefill bool
}

// tenantSlot is one entry of a tile's tally table; seen marks a tenant
// the tile has tallied, the ones TenantStats reports.
type tenantSlot struct {
	TenantTally
	seen bool
}

type delayedOut struct {
	due uint64
	out Out
}

// NewTile builds a tile around an engine. The tile's address must already
// be bound to its node in the route table.
func NewTile(cfg TileConfig, eng Engine, fab noc.Fabric, routes *RouteTable, rng *sim.RNG) *Tile {
	t := &Tile{
		port: newPort(eng.Name(), cfg, fab, routes, sched.RankLSTF),
		eng:  eng,
		ctx:  Ctx{RNG: rng, Addr: cfg.Addr},
		// Delay-list churn is per-message; regrowing it is allocator noise.
		pending: make([]delayedOut, 0, 8),
	}
	if p, ok := eng.(interface{ pace() *pacer }); ok {
		t.pace = p.pace()
	}
	return t
}

// UsePool hands the tile, and through its Ctx the engine, the NIC's
// message pool.
func (t *Tile) UsePool(p *packet.MessagePool) {
	t.pool = p
	t.ctx.Pool = p
}

// Name returns the engine name.
func (t *Tile) Name() string { return t.eng.Name() }

// Engine returns the wrapped engine (for test inspection).
func (t *Tile) Engine() Engine { return t.eng }

// Stats returns a copy of the tile's counters, the port's included: its
// queue sheds count in Dropped next to the fault sheds.
func (t *Tile) Stats() TileStats {
	s := t.stats
	s.Ejected, s.Emitted, s.Refused, s.StallCycles = t.ejected, t.emitted, t.refused, t.stalls
	s.Dropped += t.shed
	return s
}

// TenantStats returns a copy of the per-tenant tallies. Tiles that never
// saw traffic return an empty (possibly nil-backed) map.
func (t *Tile) TenantStats() map[uint16]TenantTally {
	out := make(map[uint16]TenantTally)
	for id, ts := range t.tenants {
		if ts.seen {
			out[uint16(id)] = ts.TenantTally
		}
	}
	return out
}

// tally returns the tenant's counter block, creating it on first use. The
// pointer is valid until the next tally call, which may grow the table.
func (t *Tile) tally(tenant uint16) *TenantTally {
	if n := int(tenant) + 1; n > len(t.tenants) {
		t.tenants = append(t.tenants, make([]tenantSlot, n-len(t.tenants))...)
	}
	ts := &t.tenants[tenant]
	ts.seen = true
	return &ts.TenantTally
}

// QueueStats exposes the scheduling queue's counters.
func (t *Tile) QueueStats() (pushed, popped, drops, rejects uint64, highWater int) {
	return t.queue.Stats()
}

// Busy reports whether a message is in service (liveness probes need this
// to tell "wedged mid-service with an empty queue" from "idle").
func (t *Tile) Busy() bool { return t.cur != nil }

// Idle reports whether the tile has no work in flight (for drain checks).
func (t *Tile) Idle() bool {
	return t.cur == nil && t.queue.Len() == 0 && t.outLen() == 0 && len(t.pending) == 0
}

// EnableEventSleep lets EndCycle return real sleep wakes. The builder
// calls it only when the fabric can poke the tile about arrivals (a mesh
// with a node waker wired); on other fabrics the tile conservatively wakes
// every cycle, which also keeps the kernel from skipping any cycle. The
// poker wakes the tile after control-plane mutations; the clock stamps
// trace spans emitted while the tile sleeps.
func (t *Tile) EnableEventSleep(wake sim.Poker, clk *sim.Clock) {
	t.eventOK = true
	t.wake = wake
	t.clk = clk
}

// EndCycle implements sim.EventAware: after each ticked cycle the tile
// declares the next cycle it must run. Sleeping is sound because every
// state change below is self-scheduled (service completion, delayed
// emissions, engine arrivals, a paced message's payable cycle) or arrives
// with a poke (fabric deliveries and credits via the mesh node waker,
// control-plane mutations via the tile's own waker); the per-cycle
// busy/stall counters and bucket refills a sleeping tile would have made
// are captured as rates and applied by SyncTo. A wedged tile never calls
// Generate, so its bucket does not refill.
func (t *Tile) EndCycle(cycle uint64) uint64 {
	if t.eventOK {
		if w := t.nextWake(cycle); w > cycle+1 {
			t.sleep(cycle)
			t.sleepBusy = t.cur != nil && !t.fault.Wedged
			t.sleepRefill = t.pace != nil && !t.fault.Wedged
			return w
		}
	}
	return cycle + 1
}

// nextWake computes the earliest cycle at which a tick could change
// anything. A blocked outbox, a mid-service engine or a refilling token
// bucket does not pin the tile awake: stalls, busy cycles and refills
// accrue in bulk, and the completion and payable cycles are known. A
// wedged tile is frozen by construction — generation and service are
// gated off and its queue is never popped — so only its outbox and delay
// list can wake it.
func (t *Tile) nextWake(cycle uint64) uint64 {
	wake := uint64(sim.WakeNever)
	if t.canDrain() {
		return cycle + 1
	}
	// A blocked outbox sleeps: stalls accrue via SyncTo and the freeing
	// fabric credit pokes the tile.
	if !t.fault.Wedged {
		if t.cur != nil {
			if w := cycle + t.busyLeft; w > cycle { // overflow → never
				wake = w
			}
		} else if t.queue.Len() > 0 {
			return cycle + 1
		}
	}
	if t.fab.HasEjectable(t.cfg.Node) {
		return cycle + 1
	}
	for _, d := range t.pending {
		if d.due < wake {
			wake = d.due
		}
	}
	if !t.fault.Wedged {
		if g, ok := t.eng.(Generator); ok {
			if n, idle := g.NextWork(cycle + 1); !idle && n < wake {
				wake = n
			}
		}
	}
	return wake
}

// SyncTo implements sim.EventAware: it applies the bulk per-cycle work a
// sleeping tile deferred, through the given cycle, using the rates
// captured at the sleep decision.
func (t *Tile) SyncTo(cycle uint64) { t.catchUp(t.syncTo(cycle)) }

// catchUp applies n slept cycles of service and bucket refills at the
// captured rates.
func (t *Tile) catchUp(n uint64) {
	if t.sleepBusy {
		t.stats.BusyCycles += n
		t.busyLeft -= n
	}
	if t.sleepRefill {
		t.pace.refill(n)
	}
}

// Tick implements sim.Ticker.
func (t *Tile) Tick(cycle uint64) {
	if t.sleeping {
		t.catchUp(t.wakeUp(cycle))
	}
	t.ctx.Now = cycle

	// 1. Spontaneous generation (ingress MACs). A wedged tile generates
	// nothing.
	if g, ok := t.eng.(Generator); ok && !t.fault.Wedged {
		for _, out := range g.Generate(&t.ctx) {
			t.stats.Generated++
			if t.cfg.Trace.Want(out.Msg.TraceID) {
				t.cfg.Trace.Emit(trace.Span{
					Msg: out.Msg.TraceID, Kind: trace.KindGen,
					LocKind: trace.LocEngine, Loc: uint32(t.cfg.Addr),
					Start: cycle, End: cycle, B: uint64(out.Msg.WireLen()),
					Tenant: out.Msg.Tenant,
				})
			}
			t.stage(out)
		}
	}

	// 2. Promote due delayed emissions, preserving emission order.
	kept := t.pending[:0]
	for _, d := range t.pending {
		if d.due <= cycle {
			d.out.Delay = 0
			t.stage(d.out)
		} else {
			kept = append(kept, d)
		}
	}
	t.pending = kept

	// 3. Drain the outbox into the fabric.
	t.drain(cycle)

	// 4. Advance service. A wedged engine freezes mid-service: the
	// in-flight message is held and no progress counter moves — the
	// liveness signature the health monitor keys on.
	if t.cur != nil && !t.fault.Wedged {
		t.stats.BusyCycles++
		t.busyLeft--
		if t.busyLeft == 0 {
			msg := t.cur
			t.cur = nil
			t.stats.Processed++
			ta := t.tally(msg.Tenant)
			ta.Processed++
			ta.ServiceCycles += cycle - t.curStart
			if t.cfg.Trace.Want(msg.TraceID) {
				t.cfg.Trace.Emit(trace.Span{
					Msg: msg.TraceID, Kind: trace.KindService,
					LocKind: trace.LocEngine, Loc: uint32(t.cfg.Addr),
					Start: t.curStart, End: cycle,
					Tenant: msg.Tenant,
				})
			}
			for _, out := range t.eng.Process(&t.ctx, msg) {
				t.stats.ProcOut++
				t.stage(out)
			}
		}
	}

	// 5. Start the next message (never on a wedged engine).
	if t.cur == nil && !t.fault.Wedged {
		if msg, ok := t.pop(cycle); ok {
			t.cur = msg
			t.curStart = cycle
			var svc uint64
			if te, ok := t.eng.(TimedEngine); ok {
				svc = te.ServiceCyclesAt(&t.ctx, msg)
			} else {
				svc = t.eng.ServiceCycles(msg)
			}
			if svc == 0 {
				svc = 1
			}
			t.busyLeft = t.scaleService(svc)
			t.stats.QueueWaitTotal += cycle - msg.EnqueuedAt
			t.tally(msg.Tenant).QueueWaitTotal += cycle - msg.EnqueuedAt
		}
	}

	// 6. Accept arrivals from the fabric into the scheduling queue.
	t.eject(cycle, t.admit)
}

// admit applies the flake faults to an arrival, then pushes it into the
// scheduling queue and keeps the tenant tallies.
func (t *Tile) admit(msg *packet.Message, cycle uint64) {
	if t.shedFaulted(msg, cycle) {
		return
	}
	shed, ok := t.push(msg, cycle)
	if !ok {
		return
	}
	if shed == msg {
		t.tally(msg.Tenant).Rejected++
	} else {
		t.tally(msg.Tenant).Enqueued++
	}
	if shed != nil {
		t.tally(shed.Tenant).Dropped++
		t.discard(shed, cycle)
	}
}

// discard hands a shed message to the DropSink, or releases it when the
// tile has none.
func (t *Tile) discard(msg *packet.Message, cycle uint64) {
	if t.DropSink != nil {
		t.DropSink.Deliver(msg, cycle)
		return
	}
	t.pool.Put(msg)
}

// stage routes an Out and places it in the outbox (or the delay list).
func (t *Tile) stage(out Out) {
	if out.Delay > 0 {
		t.pending = append(t.pending, delayedOut{due: t.ctx.Now + out.Delay, out: Out{Msg: out.Msg, To: out.To}})
		return
	}
	to := out.To
	if to == packet.AddrInvalid {
		to = t.nextFromChain(out.Msg)
	}
	t.outbox = append(t.outbox, resolvedOut{msg: out.Msg, dst: t.routes.Lookup(to)})
}

// nextFromChain advances the message's chain past this tile's hop and
// returns the next engine, or the default route when the chain is absent,
// exhausted, or positioned elsewhere (§3.1.2: unknown continuations return
// to the heavyweight RMT pipeline).
func (t *Tile) nextFromChain(msg *packet.Message) packet.Addr {
	c := msg.Chain()
	if c == nil {
		return t.defaultRoute()
	}
	hop, ok := c.Current()
	if !ok {
		return t.defaultRoute()
	}
	if hop.Engine != t.cfg.Addr {
		// A chain built by the RMT pipeline whose first hop is not this
		// tile: forward toward that hop.
		return hop.Engine
	}
	next, ok := c.Advance()
	msg.Pkt.Serialize() // cursor moved; keep wire bytes consistent
	if !ok {
		return t.defaultRoute()
	}
	return next.Engine
}

func (t *Tile) defaultRoute() packet.Addr {
	if len(t.cfg.DefaultSpread) > 0 {
		a := t.cfg.DefaultSpread[t.spreadNext%len(t.cfg.DefaultSpread)]
		t.spreadNext++
		return a
	}
	return t.routes.Default()
}
