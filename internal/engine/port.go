package engine

import (
	"fmt"

	"github.com/panic-nic/panic/internal/noc"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sched"
	"github.com/panic-nic/panic/internal/trace"
)

// port is the fabric-facing half of a tile, the same for every engine in
// Figure 3: a scheduling queue that admits arrivals in rank order (the
// logical scheduler) and a router interface that ejects arrivals from the
// fabric and injects resolved outputs into it. Tile and RMTTile embed it
// and keep only what is their own: offload service for a Tile, the timed
// match+action pipeline for an RMTTile. The port's counters surface
// through each tile's Stats.
type port struct {
	cfg    TileConfig
	fab    noc.Fabric
	routes *RouteTable
	queue  *sched.Queue
	rank   sched.RankFunc
	// pool receives the messages the port releases (refused arrivals) and
	// those its tile sheds without a sink.
	pool *packet.MessagePool

	// outbox holds resolved messages awaiting fabric space. It drains from
	// outHead instead of compacting every tick: under backpressure the
	// backlog can run to hundreds of entries, and re-copying it each cycle
	// (plus the pointer-slice write barrier, even for a zero-length copy)
	// was ~24% of the saturated hot path. Sent slots are zeroed for the GC
	// and reclaimed in bulk.
	outbox  []resolvedOut
	outHead int

	// Counters: arrivals pulled from the fabric, messages injected into
	// it, lossless arrivals a full lossy queue refused, messages the queue
	// shed, and cycles a blocked outbox stalled the tile.
	ejected, emitted, refused, shed, stalls uint64

	// Sleep state. eventOK is set by the builder only when the fabric
	// pokes the tile about arrivals. While sleeping, the captured
	// sleepStall rate plus the syncedThrough watermark defer the per-cycle
	// stall accrual the reference stepper would make; the rate is a
	// snapshot, so a mutation after the sleep decision cannot corrupt the
	// accounting for cycles that elapsed before it.
	eventOK       bool
	sleeping      bool
	sleepStall    bool
	syncedThrough uint64
}

type resolvedOut struct {
	msg *packet.Message
	dst noc.NodeID
}

// newPort checks that the tile's address is bound to its node and builds
// its port; rank stands in when the config names no rank function.
func newPort(name string, cfg TileConfig, fab noc.Fabric, routes *RouteTable, rank sched.RankFunc) port {
	if cfg.QueueCap < 1 {
		panic(fmt.Sprintf("engine: tile %q queue capacity %d", name, cfg.QueueCap))
	}
	if !routes.Has(cfg.Addr) {
		panic(fmt.Sprintf("engine: tile %q address %d not bound in route table", name, cfg.Addr))
	}
	if routes.Lookup(cfg.Addr) != cfg.Node {
		panic(fmt.Sprintf("engine: tile %q bound to node %d but configured at %d", name, routes.Lookup(cfg.Addr), cfg.Node))
	}
	if cfg.Rank != nil {
		rank = cfg.Rank
	}
	return port{
		cfg:    cfg,
		fab:    fab,
		routes: routes,
		queue:  sched.NewQueue(cfg.QueueCap, cfg.Policy),
		rank:   rank,
		// Outbox churn is per-message; regrowing it is allocator noise.
		outbox: make([]resolvedOut, 0, 8),
	}
}

// UsePool hands the port the NIC's message pool.
func (p *port) UsePool(pool *packet.MessagePool) { p.pool = pool }

// Addr returns the tile's logical address.
func (p *port) Addr() packet.Addr { return p.cfg.Addr }

// Node returns the tile's fabric node.
func (p *port) Node() noc.NodeID { return p.cfg.Node }

// QueueLen returns the scheduling-queue occupancy.
func (p *port) QueueLen() int { return p.queue.Len() }

// outLen returns the number of undelivered outbox entries.
func (p *port) outLen() int { return len(p.outbox) - p.outHead }

// canDrain reports whether the fabric would take the outbox's head now.
func (p *port) canDrain() bool {
	return p.outHead < len(p.outbox) && p.fab.CanInject(p.cfg.Node, p.outbox[p.outHead].dst)
}

// compactOutbox reclaims the drained prefix: free when the outbox empties,
// and otherwise a copy of the whole undelivered backlog once 64 entries
// have drained. That is O(1) per send only while the backlog stays short:
// under a standing backlog of B entries every 64 sends copy B, so each
// send pays B/64 entry moves (in a saturated NIC whose RX outboxes pile up
// tens of thousands of frames, a few percent of the kernel's CPU).
func (p *port) compactOutbox() {
	if p.outHead == len(p.outbox) {
		p.outbox = p.outbox[:0]
		p.outHead = 0
	} else if p.outHead >= 64 {
		p.outbox = p.outbox[:copy(p.outbox, p.outbox[p.outHead:])]
		p.outHead = 0
	}
}

// drain injects the outbox into the fabric in order until it empties or
// the fabric refuses its head. A refusal is a stall cycle for the tile,
// and drain reports it. Every tick drains, and most find the outbox empty,
// so that check stays small enough to inline into the tiles' Tick.
func (p *port) drain(cycle uint64) (blocked bool) {
	if p.outHead == len(p.outbox) {
		return false
	}
	return p.drainOutbox(cycle)
}

func (p *port) drainOutbox(cycle uint64) (blocked bool) {
	for p.outHead < len(p.outbox) {
		o := p.outbox[p.outHead]
		if !p.fab.CanInject(p.cfg.Node, o.dst) {
			p.stalls++
			blocked = true
			break
		}
		p.fab.Inject(p.cfg.Node, o.dst, o.msg)
		if p.cfg.Trace.Want(o.msg.TraceID) {
			p.cfg.Trace.Emit(trace.Span{
				Msg: o.msg.TraceID, Kind: trace.KindInject,
				LocKind: trace.LocEngine, Loc: uint32(p.cfg.Addr),
				Start: cycle, End: cycle,
				A: uint64(o.dst), B: uint64(p.fab.FlitsFor(o.msg)),
				Tenant: o.msg.Tenant,
			})
		}
		p.outbox[p.outHead] = resolvedOut{}
		p.outHead++
		p.emitted++
	}
	p.compactOutbox()
	return blocked
}

// eject pulls arrivals from the fabric and hands each to admit. Under the
// backpressure policy a full queue leaves them in the network (lossless);
// under drop policy the queue sheds the worst-ranked on push.
func (p *port) eject(cycle uint64, admit func(msg *packet.Message, cycle uint64)) {
	for !p.queue.Full() || p.cfg.Policy != sched.Backpressure {
		msg, ok := p.fab.TryEject(p.cfg.Node)
		if !ok {
			return
		}
		p.ejected++
		msg.AssertLive()
		admit(msg, cycle)
	}
}

// push ranks an arrival on the slack its chain stamped for this engine
// and pushes it into the scheduling queue. A refused arrival (lossless,
// and every resident lossless too) is lost: push releases it and reports
// false. Otherwise it returns the message the queue shed to make room —
// possibly msg itself — or nil; the shed message is counted and traced,
// and the caller disposes of it.
func (p *port) push(msg *packet.Message, cycle uint64) (shed *packet.Message, ok bool) {
	slack := chainSlack(msg, p.cfg.Addr)
	msg.EnqueuedAt = cycle
	rank := p.rank(msg, slack, cycle)
	res := p.queue.Push(msg, rank)
	if !res.Accepted {
		p.refused++
		p.pool.Put(msg)
		return nil, false
	}
	if res.Dropped != msg {
		p.mark(msg, trace.KindEnq, cycle, rank, uint64(p.queue.Len()))
	}
	if res.Dropped != nil {
		p.shed++
		p.mark(res.Dropped, trace.KindDrop, cycle, trace.DropQueueShed, 0)
	}
	return res.Dropped, true
}

// pop dequeues the best-ranked message, tracing how long it waited and
// how deep the queue was.
func (p *port) pop(cycle uint64) (*packet.Message, bool) {
	depth := 0
	if p.cfg.Trace != nil {
		depth = p.queue.Len()
	}
	msg, ok := p.queue.Pop()
	if ok && p.cfg.Trace.Want(msg.TraceID) {
		p.cfg.Trace.Emit(trace.Span{
			Msg: msg.TraceID, Kind: trace.KindWait,
			LocKind: trace.LocEngine, Loc: uint32(p.cfg.Addr),
			Start: msg.EnqueuedAt, End: cycle,
			A: uint64(depth), B: uint64(chainSlack(msg, p.cfg.Addr)),
			Tenant: msg.Tenant,
		})
	}
	return msg, ok
}

// mark emits an instant span at this engine when msg is traced.
func (p *port) mark(msg *packet.Message, kind trace.Kind, cycle, a, b uint64) {
	if p.cfg.Trace.Want(msg.TraceID) {
		p.cfg.Trace.Emit(trace.Span{
			Msg: msg.TraceID, Kind: kind,
			LocKind: trace.LocEngine, Loc: uint32(p.cfg.Addr),
			Start: cycle, End: cycle, A: a, B: b,
			Tenant: msg.Tenant,
		})
	}
}

// sleep starts deferring the port's stall accrual after a ticked cycle
// whose tile declared its next wake past cycle+1. A blocked outbox keeps
// stalling every slept cycle until the freeing fabric credit pokes the
// tile awake.
func (p *port) sleep(cycle uint64) {
	p.sleeping = true
	p.sleepStall = p.outLen() > 0
	p.syncedThrough = cycle + 1
}

// syncTo applies the stalls a sleeping port deferred, through the given
// cycle. It returns how many slept cycles it brought current (0 when the
// port is awake or already current), so the tile can catch up its own
// deferred counters over the same cycles.
func (p *port) syncTo(cycle uint64) uint64 {
	if !p.sleeping || cycle+1 <= p.syncedThrough {
		return 0
	}
	n := cycle + 1 - p.syncedThrough
	if p.sleepStall {
		p.stalls += n
	}
	p.syncedThrough = cycle + 1
	return n
}

// wakeUp ends a sleep at the start of a live tick: deferred accounting is
// brought current through cycle-1, and the tick itself covers cycle. It
// returns the cycles caught up, as syncTo does.
func (p *port) wakeUp(cycle uint64) uint64 {
	n := p.syncTo(cycle - 1)
	p.sleeping = false
	return n
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
