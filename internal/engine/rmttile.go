package engine

import (
	"fmt"

	"github.com/panic-nic/panic/internal/noc"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/rmt"
	"github.com/panic-nic/panic/internal/sched"
	"github.com/panic-nic/panic/internal/sim"
	"github.com/panic-nic/panic/internal/trace"
)

// RMTTile is an RMT engine (Figure 3b): a timed match+action pipeline
// attached to the fabric through the same scheduling queue and router
// interface as an offload tile. It accepts one message per cycle and holds
// each for the pipeline latency; when the downstream fabric stalls, the
// whole pipeline stalls.
type RMTTile struct {
	cfg    TileConfig
	pipe   *rmt.Pipeline
	fab    noc.Fabric
	routes *RouteTable
	queue  *sched.Queue
	rank   sched.RankFunc
	// pool receives every message the tile sheds: queue drops, refusals,
	// program drops and unrouted outputs reach no sink.
	pool *packet.MessagePool

	// outbox drains from outHead with amortized compaction, mirroring
	// Tile's scheme (a standing backlog must not pay a per-cycle copy).
	outbox  []resolvedOut
	outHead int
	stats   RMTStats

	// Event-driven sleep state, mirroring Tile's: the pipeline advances
	// every cycle it holds messages, so the only sleeps are full idleness
	// and an outbox frozen by fabric backpressure (whose per-cycle stall
	// accrual is captured and applied by SyncTo).
	eventOK       bool
	sleeping      bool
	sleepStall    bool
	syncedThrough uint64
}

// RMTStats are an RMT tile's counters.
type RMTStats struct {
	// Accepted counts messages admitted into the pipeline.
	Accepted uint64
	// Emitted counts messages sent onward into the fabric.
	Emitted uint64
	// Dropped counts program drops plus parse errors.
	Dropped uint64
	// Unrouted counts pipeline outputs whose program built no chain
	// (a program bug; they are discarded and counted).
	Unrouted uint64
	// StallCycles counts cycles the pipeline was frozen by fabric
	// backpressure.
	StallCycles uint64
	// QueueDropped counts messages shed by the scheduling queue.
	QueueDropped uint64
	// Ejected counts messages pulled from the fabric — the tile's only
	// custody entry point (see AuditConservation).
	Ejected uint64
	// Refused counts lossless arrivals a full lossy queue could not admit
	// (every resident also lossless); they are lost, mirroring
	// TileStats.Refused.
	Refused uint64
}

// NewRMTTile builds an RMT engine tile. The rank function defaults to FIFO
// — most traffic reaching the pipeline carries no slack yet.
func NewRMTTile(cfg TileConfig, pipe *rmt.Pipeline, fab noc.Fabric, routes *RouteTable) *RMTTile {
	if cfg.QueueCap < 1 {
		panic(fmt.Sprintf("engine: RMT tile queue capacity %d", cfg.QueueCap))
	}
	if !routes.Has(cfg.Addr) || routes.Lookup(cfg.Addr) != cfg.Node {
		panic("engine: RMT tile address not bound to its node")
	}
	rank := cfg.Rank
	if rank == nil {
		rank = sched.RankFIFO
	}
	return &RMTTile{
		cfg:    cfg,
		pipe:   pipe,
		fab:    fab,
		routes: routes,
		queue:  sched.NewQueue(cfg.QueueCap, cfg.Policy),
		rank:   rank,
		outbox: make([]resolvedOut, 0, 8),
	}
}

// UsePool hands the tile the NIC's message pool.
func (t *RMTTile) UsePool(p *packet.MessagePool) { t.pool = p }

// Name identifies the tile.
func (t *RMTTile) Name() string { return fmt.Sprintf("rmt@%d", t.cfg.Addr) }

// Addr returns the tile's logical address.
func (t *RMTTile) Addr() packet.Addr { return t.cfg.Addr }

// Node returns the tile's fabric node.
func (t *RMTTile) Node() noc.NodeID { return t.cfg.Node }

// Stats returns a copy of the counters.
func (t *RMTTile) Stats() RMTStats { return t.stats }

// Pipeline exposes the wrapped pipeline (for test inspection).
func (t *RMTTile) Pipeline() *rmt.Pipeline { return t.pipe }

// QueueLen returns the scheduling-queue occupancy.
func (t *RMTTile) QueueLen() int { return t.queue.Len() }

// Idle reports whether the tile has no work in flight.
func (t *RMTTile) Idle() bool {
	processed, _, _ := t.pipe.Stats()
	return t.queue.Len() == 0 && t.outLen() == 0 && t.stats.Accepted <= processed
}

// outLen returns the number of undelivered outbox entries.
func (t *RMTTile) outLen() int { return len(t.outbox) - t.outHead }

// compactOutbox reclaims the drained prefix (see Tile.compactOutbox).
func (t *RMTTile) compactOutbox() {
	if t.outHead == len(t.outbox) {
		t.outbox = t.outbox[:0]
		t.outHead = 0
	} else if t.outHead >= 64 {
		t.outbox = t.outbox[:copy(t.outbox, t.outbox[t.outHead:])]
		t.outHead = 0
	}
}

// EnableEventSleep lets EndCycle return real sleep wakes; the builder
// calls it only when the fabric pokes the tile about arrivals.
func (t *RMTTile) EnableEventSleep() { t.eventOK = true }

// EndCycle implements sim.EventAware.
func (t *RMTTile) EndCycle(cycle uint64) uint64 {
	if t.eventOK {
		if w := t.nextWake(cycle); w > cycle+1 {
			t.sleeping = true
			t.sleepStall = t.outLen() > 0
			t.syncedThrough = cycle + 1
			return w
		}
	}
	return cycle + 1
}

// nextWake: a blocked outbox freezes the whole pipeline, so the tile can
// sleep until the fabric credit pokes it, deferring one stall per cycle;
// anything else in flight advances every cycle.
func (t *RMTTile) nextWake(cycle uint64) uint64 {
	if t.outLen() > 0 {
		if t.fab.CanInject(t.cfg.Node, t.outbox[t.outHead].dst) {
			return cycle + 1
		}
	} else if !t.Idle() {
		return cycle + 1
	}
	if t.fab.HasEjectable(t.cfg.Node) {
		return cycle + 1
	}
	return sim.WakeNever
}

// SyncTo implements sim.EventAware: deferred stall cycles are applied
// through the given cycle.
func (t *RMTTile) SyncTo(cycle uint64) {
	if !t.sleeping || cycle+1 <= t.syncedThrough {
		return
	}
	if t.sleepStall {
		t.stats.StallCycles += cycle + 1 - t.syncedThrough
	}
	t.syncedThrough = cycle + 1
}

// wakeSync ends a sleep at the start of a live tick.
func (t *RMTTile) wakeSync(cycle uint64) {
	t.SyncTo(cycle - 1)
	t.sleeping = false
}

// Tick implements sim.Ticker.
func (t *RMTTile) Tick(cycle uint64) {
	if t.sleeping {
		t.wakeSync(cycle)
	}
	// 1. Drain the outbox; a blocked outbox freezes the pipeline below.
	for t.outHead < len(t.outbox) {
		o := t.outbox[t.outHead]
		if !t.fab.CanInject(t.cfg.Node, o.dst) {
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

	// 2. Advance the pipeline unless backpressured.
	if t.outLen() == 0 {
		if res, ok := t.pipe.Tick(); ok {
			t.emitRMT(res, cycle)
			t.route(res.Msg)
		} else if res.Msg != nil && res.Drop {
			t.emitRMT(res, cycle)
			if t.cfg.Trace.Want(res.Msg.TraceID) {
				t.cfg.Trace.Emit(trace.Span{
					Msg: res.Msg.TraceID, Kind: trace.KindDrop,
					LocKind: trace.LocEngine, Loc: uint32(t.cfg.Addr),
					Start: cycle, End: cycle, A: trace.DropRMT,
					Tenant: res.Msg.Tenant,
				})
			}
			t.pool.Put(res.Msg)
		}
		// 3. Admit one message per cycle.
		if t.pipe.CanAccept() {
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
				t.pipe.Accept(msg, cycle)
				t.stats.Accepted++
			}
		}
	} else {
		t.stats.StallCycles++
	}
	_, dropped, _ := t.pipe.Stats() // parse errors are counted as drops
	t.stats.Dropped = dropped

	// 4. Accept arrivals from the fabric.
	for {
		if t.queue.Full() && t.cfg.Policy == sched.Backpressure {
			break
		}
		msg, ok := t.fab.TryEject(t.cfg.Node)
		if !ok {
			break
		}
		t.stats.Ejected++
		msg.AssertLive()
		slack := uint32(0)
		if c := msg.Chain(); c != nil {
			if hop, hok := c.Current(); hok && hop.Engine == t.cfg.Addr {
				slack = hop.Slack
			}
		}
		msg.EnqueuedAt = cycle
		if t.cfg.TraceVisits {
			msg.Trace = append(msg.Trace, packet.Visit{Engine: t.cfg.Addr, Enqueued: cycle})
		}
		rank := t.rank(msg, slack, cycle)
		res := t.queue.Push(msg, rank)
		if !res.Accepted {
			t.stats.Refused++
			t.pool.Put(msg)
			continue
		}
		if res.Accepted && res.Dropped != msg && t.cfg.Trace.Want(msg.TraceID) {
			t.cfg.Trace.Emit(trace.Span{
				Msg: msg.TraceID, Kind: trace.KindEnq,
				LocKind: trace.LocEngine, Loc: uint32(t.cfg.Addr),
				Start: cycle, End: cycle,
				A: rank, B: uint64(t.queue.Len()),
				Tenant: msg.Tenant,
			})
		}
		if res.Dropped != nil {
			t.stats.QueueDropped++
			if t.cfg.Trace.Want(res.Dropped.TraceID) {
				t.cfg.Trace.Emit(trace.Span{
					Msg: res.Dropped.TraceID, Kind: trace.KindDrop,
					LocKind: trace.LocEngine, Loc: uint32(t.cfg.Addr),
					Start: cycle, End: cycle, A: trace.DropQueueShed,
					Tenant: res.Dropped.Tenant,
				})
			}
			t.pool.Put(res.Dropped)
		}
	}
}

// emitRMT synthesizes the pipeline-phase spans for a message exiting the
// RMT pipeline at cycle. The timed pipeline is a shift register, so the
// phase boundaries are reconstructed from the accept cycle (res.Enq) and
// the fixed phase lengths; an exit later than Enq + Latency means fabric
// backpressure froze the pipeline, which becomes an explicit stall span.
func (t *RMTTile) emitRMT(res rmt.Result, cycle uint64) {
	if res.Msg == nil || !t.cfg.Trace.Want(res.Msg.TraceID) {
		return
	}
	id := res.Msg.TraceID
	tenant := res.Msg.Tenant
	loc := uint32(t.cfg.Addr)
	pc := uint64(t.pipe.ParserCycles())
	dc := uint64(t.pipe.DeparserCycles())
	lat := uint64(t.pipe.Latency())
	stages := lat - pc - dc
	enq := res.Enq
	var hit uint64
	if res.CacheHit {
		hit = 1
	}
	t.cfg.Trace.Emit(trace.Span{
		Msg: id, Kind: trace.KindRMTParse, LocKind: trace.LocEngine, Loc: loc,
		Start: enq, End: enq + pc, A: hit, Tenant: tenant,
	})
	for i := uint64(0); i < stages; i++ {
		t.cfg.Trace.Emit(trace.Span{
			Msg: id, Kind: trace.KindRMTStage, LocKind: trace.LocEngine, Loc: loc,
			Start: enq + pc + i, End: enq + pc + i + 1, A: i, Tenant: tenant,
		})
	}
	t.cfg.Trace.Emit(trace.Span{
		Msg: id, Kind: trace.KindRMTDeparse, LocKind: trace.LocEngine, Loc: loc,
		Start: enq + pc + stages, End: enq + lat, Tenant: tenant,
	})
	if cycle > enq+lat {
		t.cfg.Trace.Emit(trace.Span{
			Msg: id, Kind: trace.KindRMTStall, LocKind: trace.LocEngine, Loc: loc,
			Start: enq + lat, End: cycle, Tenant: tenant,
		})
	}
}

// route forwards a pipeline output toward its chain's current hop. If the
// chain's current hop is this RMT tile itself (the pipeline listed itself
// to regenerate a chain remainder later, §3.1.2), the cursor advances past
// it first.
func (t *RMTTile) route(msg *packet.Message) {
	c := msg.Chain()
	if c == nil {
		t.stats.Unrouted++
		t.pool.Put(msg)
		return
	}
	hop, ok := c.Current()
	if ok && hop.Engine == t.cfg.Addr {
		hop, ok = c.Advance()
		msg.Pkt.Serialize()
	}
	if !ok {
		t.stats.Unrouted++
		t.pool.Put(msg)
		return
	}
	t.outbox = append(t.outbox, resolvedOut{msg: msg, dst: t.routes.Lookup(hop.Engine)})
}
