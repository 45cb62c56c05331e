package engine

import (
	"fmt"

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
	// DefaultTo overrides the route table's default route for this tile;
	// AddrInvalid uses the table default.
	DefaultTo packet.Addr
	// DefaultSpread, when non-empty, sprays chainless traffic across the
	// given addresses round-robin per message — how ingress hardware
	// load-balances across parallel RMT pipelines. Takes precedence over
	// DefaultTo.
	DefaultSpread []packet.Addr
	// TraceVisits records per-engine Visit entries on messages (tests
	// and examples; costs an append per hop).
	TraceVisits bool
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
// compute + lightweight route lookup (Figure 3a). It implements
// sim.Ticker.
type Tile struct {
	cfg    TileConfig
	eng    Engine
	fab    noc.Fabric
	routes *RouteTable
	queue  *sched.Queue
	rank   sched.RankFunc
	ctx    Ctx

	// Service state.
	cur      *packet.Message
	busyLeft uint64
	curStart uint64

	// Send state: resolved messages awaiting fabric space, plus delayed
	// emissions ordered by due cycle. The outbox drains from outHead
	// instead of compacting every tick: under backpressure the backlog can
	// run to hundreds of entries, and re-copying it each cycle (plus the
	// pointer-slice write barrier, even for a zero-length copy) was ~24%
	// of the saturated hot path. Sent slots are zeroed for the GC and
	// reclaimed in bulk.
	outbox     []resolvedOut
	outHead    int
	pending    []delayedOut
	spreadNext int

	stats TileStats
	// tenants maps tenant ID to its tally; entries are created lazily on
	// first sight of a tenant, so steady-state traffic never allocates.
	tenants map[uint16]*TenantTally
	// DropSink, when set, receives messages shed by the queue or by
	// injected faults, and owns them; without one the tile releases them
	// to its pool.
	DropSink Sink

	// Injected fault condition (zero = healthy) and the deterministic
	// arrival counters behind the every-Nth flake faults.
	fault       FaultState
	dropSeen    uint64
	corruptSeen uint64

	// Event-driven sleep state (see EndCycle). eventOK is set by the
	// builder only when the fabric pokes the tile about arrivals; wake and
	// clk let control-plane mutators (SetFault, Reset) force a tick and
	// stamp traces while the tile sleeps. While sleeping, the captured
	// sleepBusy/sleepStall rates plus the syncedThrough watermark defer the
	// per-cycle busy/stall accrual the ticked oracle would have made; the
	// flags are snapshots, so a mutation after the sleep decision cannot
	// corrupt the accounting for cycles that elapsed before it.
	eventOK       bool
	wake          sim.Poker
	clk           *sim.Clock
	sleeping      bool
	sleepBusy     bool
	sleepStall    bool
	syncedThrough uint64
}

type resolvedOut struct {
	msg *packet.Message
	dst noc.NodeID
}

type delayedOut struct {
	due uint64
	out Out
}

// NewTile builds a tile around an engine. The tile's address must already
// be bound to its node in the route table.
func NewTile(cfg TileConfig, eng Engine, fab noc.Fabric, routes *RouteTable, rng *sim.RNG) *Tile {
	if cfg.QueueCap < 1 {
		panic(fmt.Sprintf("engine: tile %q queue capacity %d", eng.Name(), cfg.QueueCap))
	}
	if !routes.Has(cfg.Addr) {
		panic(fmt.Sprintf("engine: tile %q address %d not bound in route table", eng.Name(), cfg.Addr))
	}
	if routes.Lookup(cfg.Addr) != cfg.Node {
		panic(fmt.Sprintf("engine: tile %q bound to node %d but configured at %d", eng.Name(), routes.Lookup(cfg.Addr), cfg.Node))
	}
	rank := cfg.Rank
	if rank == nil {
		rank = sched.RankLSTF
	}
	return &Tile{
		cfg:    cfg,
		eng:    eng,
		fab:    fab,
		routes: routes,
		queue:  sched.NewQueue(cfg.QueueCap, cfg.Policy),
		rank:   rank,
		ctx:    Ctx{RNG: rng, Addr: cfg.Addr},
		// Pre-size the send-side buffers: outbox and delay-list churn is
		// per-message, and regrowing them is pure allocator noise.
		outbox:  make([]resolvedOut, 0, 8),
		pending: make([]delayedOut, 0, 8),
	}
}

// UsePool hands the tile, and through its Ctx the engine, the NIC's
// message pool.
func (t *Tile) UsePool(p *packet.MessagePool) { t.ctx.Pool = p }

// Name returns the engine name.
func (t *Tile) Name() string { return t.eng.Name() }

// Addr returns the tile's logical address.
func (t *Tile) Addr() packet.Addr { return t.cfg.Addr }

// Node returns the tile's fabric node.
func (t *Tile) Node() noc.NodeID { return t.cfg.Node }

// Engine returns the wrapped engine (for test inspection).
func (t *Tile) Engine() Engine { return t.eng }

// Stats returns a copy of the tile's counters.
func (t *Tile) Stats() TileStats { return t.stats }

// TenantStats returns a copy of the per-tenant tallies. Tiles that never
// saw traffic return an empty (possibly nil-backed) map.
func (t *Tile) TenantStats() map[uint16]TenantTally {
	out := make(map[uint16]TenantTally, len(t.tenants))
	for id, ta := range t.tenants {
		out[id] = *ta
	}
	return out
}

// tally returns the tenant's counter block, creating it on first use.
func (t *Tile) tally(tenant uint16) *TenantTally {
	if ta, ok := t.tenants[tenant]; ok {
		return ta
	}
	if t.tenants == nil {
		t.tenants = make(map[uint16]*TenantTally)
	}
	ta := &TenantTally{}
	t.tenants[tenant] = ta
	return ta
}

// QueueStats exposes the scheduling queue's counters.
func (t *Tile) QueueStats() (pushed, popped, drops, rejects uint64, highWater int) {
	return t.queue.Stats()
}

// QueueLen returns the current scheduling-queue occupancy.
func (t *Tile) QueueLen() int { return t.queue.Len() }

// Busy reports whether a message is in service (liveness probes need this
// to tell "wedged mid-service with an empty queue" from "idle").
func (t *Tile) Busy() bool { return t.cur != nil }

// Idle reports whether the tile has no work in flight (for drain checks).
func (t *Tile) Idle() bool {
	return t.cur == nil && t.queue.Len() == 0 && t.outLen() == 0 && len(t.pending) == 0
}

// outLen returns the number of undelivered outbox entries.
func (t *Tile) outLen() int { return len(t.outbox) - t.outHead }

// compactOutbox reclaims the drained prefix: free when the outbox empties,
// and amortized-O(1) per message otherwise (each entry moves at most once
// per 64 sends), so a standing backlog never pays a per-cycle copy.
func (t *Tile) compactOutbox() {
	if t.outHead == len(t.outbox) {
		t.outbox = t.outbox[:0]
		t.outHead = 0
	} else if t.outHead >= 64 {
		t.outbox = t.outbox[:copy(t.outbox, t.outbox[t.outHead:])]
		t.outHead = 0
	}
}

// NextWork implements sim.Quiescer. The tile accounts only for its own
// state: pending fabric arrivals are vetoed by the fabric's NextWork, so a
// drained tile need not (and cannot) see them. Counters make the rules
// strict — an outbox blocked on fabric backpressure accrues StallCycles
// and an in-service message accrues BusyCycles, so both veto the skip.
//
// A wedged tile is frozen by construction: generation and service are
// gated off and the queue is never popped, so its queued and in-service
// messages impose no work. Its outbox and delay list still drain, though,
// and those keep their usual rules.
func (t *Tile) NextWork(now uint64) (uint64, bool) {
	if t.outLen() > 0 {
		return now, false
	}
	if !t.fault.Wedged && (t.cur != nil || t.queue.Len() > 0) {
		return now, false
	}
	var next uint64
	have := false
	for _, d := range t.pending {
		if d.due <= now {
			return now, false
		}
		if !have || d.due < next {
			next, have = d.due, true
		}
	}
	if !t.fault.Wedged {
		if ir, ok := t.eng.(IdleReporter); ok {
			n, idle := ir.NextWork(now)
			if !idle {
				if n <= now {
					return now, false
				}
				if !have || n < next {
					next, have = n, true
				}
			}
		} else if _, ok := t.eng.(Generator); ok {
			// An opaque generator may produce any cycle: never skip it.
			return now, false
		}
	}
	if !have {
		return 0, true
	}
	return next, false
}

// EnableEventSleep lets EndCycle return real sleep wakes. The builder
// calls it only when the fabric can poke the tile about arrivals (a mesh
// with a node waker wired); on other fabrics the tile conservatively wakes
// every cycle and event mode degrades to the ticked schedule for it. The
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
// emissions, engine arrivals) or arrives with a poke (fabric deliveries
// and credits via the mesh node waker, control-plane mutations via the
// tile's own waker); the per-cycle busy/stall counters a sleeping tile
// would have accrued are captured as rates and applied by SyncTo.
func (t *Tile) EndCycle(cycle uint64) uint64 {
	if t.eventOK {
		if w := t.nextWake(cycle); w > cycle+1 {
			t.sleeping = true
			t.sleepBusy = t.cur != nil && !t.fault.Wedged
			t.sleepStall = t.outLen() > 0
			t.syncedThrough = cycle + 1
			return w
		}
	}
	return cycle + 1
}

// nextWake computes the earliest cycle at which a tick could change
// anything, mirroring NextWork's rules but with the event engine's extra
// powers: a blocked outbox or a mid-service engine no longer pins the tile
// awake, because stalls and busy cycles accrue in bulk and the completion
// cycle is known.
func (t *Tile) nextWake(cycle uint64) uint64 {
	wake := uint64(sim.WakeNever)
	if t.outLen() > 0 && t.fab.CanInject(t.cfg.Node, t.outbox[t.outHead].dst) {
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
	for _, d := range t.pending {
		if d.due < wake {
			wake = d.due
		}
	}
	if !t.fault.Wedged {
		if ir, ok := t.eng.(IdleReporter); ok {
			if n, idle := ir.NextWork(cycle + 1); !idle && n < wake {
				wake = n
			}
		} else if _, ok := t.eng.(Generator); ok {
			// An opaque generator may produce any cycle: never sleep.
			return cycle + 1
		}
	}
	if t.fab.HasEjectable(t.cfg.Node) {
		return cycle + 1
	}
	return wake
}

// SyncTo implements sim.EventAware: it applies the bulk per-cycle counters
// a sleeping tile deferred, through the given cycle, using the rates
// captured at the sleep decision.
func (t *Tile) SyncTo(cycle uint64) {
	if !t.sleeping || cycle+1 <= t.syncedThrough {
		return
	}
	n := cycle + 1 - t.syncedThrough
	if t.sleepBusy {
		t.stats.BusyCycles += n
		t.busyLeft -= n
	}
	if t.sleepStall {
		t.stats.StallCycles += n
	}
	t.syncedThrough = cycle + 1
}

// wakeSync ends a sleep at the start of a live tick: deferred accounting
// is brought current through cycle-1; the tick itself covers cycle.
func (t *Tile) wakeSync(cycle uint64) {
	t.SyncTo(cycle - 1)
	t.sleeping = false
}

// Tick implements sim.Ticker.
func (t *Tile) Tick(cycle uint64) {
	if t.sleeping {
		t.wakeSync(cycle)
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
	for t.outHead < len(t.outbox) {
		o := t.outbox[t.outHead]
		if !t.fab.CanInject(t.cfg.Node, o.dst) {
			t.stats.StallCycles++
			break
		}
		t.fab.Inject(t.cfg.Node, o.dst, o.msg)
		if t.cfg.Trace.Want(o.msg.TraceID) {
			t.cfg.Trace.Emit(trace.Span{
				Msg: o.msg.TraceID, Kind: trace.KindInject,
				LocKind: trace.LocEngine, Loc: uint32(t.cfg.Addr),
				Start: cycle, End: cycle,
				A: uint64(o.dst), B: uint64(t.fab.FlitsFor(o.msg)),
				Tenant: o.msg.Tenant,
			})
		}
		t.outbox[t.outHead] = resolvedOut{}
		t.outHead++
		t.stats.Emitted++
	}
	t.compactOutbox()

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
		depth := 0
		if t.cfg.Trace != nil {
			depth = t.queue.Len()
		}
		if msg, ok := t.queue.Pop(); ok {
			if t.cfg.Trace.Want(msg.TraceID) {
				t.cfg.Trace.Emit(trace.Span{
					Msg: msg.TraceID, Kind: trace.KindWait,
					LocKind: trace.LocEngine, Loc: uint32(t.cfg.Addr),
					Start: msg.EnqueuedAt, End: cycle,
					A: uint64(depth), B: uint64(chainSlack(msg, t.cfg.Addr)),
					Tenant: msg.Tenant,
				})
			}
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
			if t.cfg.TraceVisits && len(msg.Trace) > 0 {
				msg.Trace[len(msg.Trace)-1].Started = cycle
			}
			t.stats.QueueWaitTotal += cycle - msg.EnqueuedAt
			t.tally(msg.Tenant).QueueWaitTotal += cycle - msg.EnqueuedAt
		}
	}

	// 6. Accept arrivals from the fabric into the scheduling queue. Under
	// backpressure policy a full queue leaves messages in the network
	// (lossless); under drop policy the queue sheds the worst-ranked.
	for {
		if t.queue.Full() && t.queue.Cap() > 0 && t.cfg.Policy == sched.Backpressure {
			break
		}
		msg, ok := t.fab.TryEject(t.cfg.Node)
		if !ok {
			break
		}
		t.stats.Ejected++
		t.admit(msg, cycle)
	}
}

// admit pushes an arrived message into the scheduling queue.
func (t *Tile) admit(msg *packet.Message, cycle uint64) {
	msg.AssertLive()
	if t.shedFaulted(msg, cycle) {
		return
	}
	slack := chainSlack(msg, t.cfg.Addr)
	msg.EnqueuedAt = cycle
	if t.cfg.TraceVisits {
		msg.Trace = append(msg.Trace, packet.Visit{Engine: t.cfg.Addr, Enqueued: cycle})
	}
	rank := t.rank(msg, slack, cycle)
	res := t.queue.Push(msg, rank)
	if !res.Accepted {
		// Lossless arrival refused by a full lossy queue whose residents
		// are all lossless too: the message is lost (see TileStats.Refused).
		t.stats.Refused++
		t.ctx.Pool.Put(msg)
		return
	}
	if res.Dropped == msg {
		t.tally(msg.Tenant).Rejected++
	}
	if res.Accepted && res.Dropped != msg {
		t.tally(msg.Tenant).Enqueued++
		if t.cfg.Trace.Want(msg.TraceID) {
			t.cfg.Trace.Emit(trace.Span{
				Msg: msg.TraceID, Kind: trace.KindEnq,
				LocKind: trace.LocEngine, Loc: uint32(t.cfg.Addr),
				Start: cycle, End: cycle,
				A: rank, B: uint64(t.queue.Len()),
				Tenant: msg.Tenant,
			})
		}
	}
	if res.Dropped != nil {
		t.stats.Dropped++
		t.tally(res.Dropped.Tenant).Dropped++
		if t.cfg.Trace.Want(res.Dropped.TraceID) {
			t.cfg.Trace.Emit(trace.Span{
				Msg: res.Dropped.TraceID, Kind: trace.KindDrop,
				LocKind: trace.LocEngine, Loc: uint32(t.cfg.Addr),
				Start: cycle, End: cycle, A: trace.DropQueueShed,
				Tenant: res.Dropped.Tenant,
			})
		}
		t.discard(res.Dropped, cycle)
	}
}

// discard hands a shed message to the DropSink, or releases it when the
// tile has none.
func (t *Tile) discard(msg *packet.Message, cycle uint64) {
	if t.DropSink != nil {
		t.DropSink.Deliver(msg, cycle)
		return
	}
	t.ctx.Pool.Put(msg)
}

// chainSlack returns the slack the RMT program stamped for this engine's
// hop, or 0 when the message has no chain positioned here.
func chainSlack(msg *packet.Message, addr packet.Addr) uint32 {
	if c := msg.Chain(); c != nil {
		if hop, ok := c.Current(); ok && hop.Engine == addr {
			return hop.Slack
		}
	}
	return 0
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
	if t.cfg.DefaultTo != packet.AddrInvalid {
		return t.cfg.DefaultTo
	}
	return t.routes.Default()
}
