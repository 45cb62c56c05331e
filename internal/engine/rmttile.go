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
// attached to the fabric through the same port — scheduling queue and
// router interface — as an offload tile. It accepts one message per cycle
// and holds each for the pipeline latency; when the downstream fabric
// stalls, the whole pipeline stalls.
type RMTTile struct {
	port
	pipe *rmt.Pipeline
	// stats holds the tile's own counters; Stats merges in the port's.
	stats RMTStats
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
	return &RMTTile{
		port: newPort(fmt.Sprintf("rmt@%d", cfg.Addr), cfg, fab, routes, sched.RankFIFO),
		pipe: pipe,
	}
}

// Name identifies the tile.
func (t *RMTTile) Name() string { return fmt.Sprintf("rmt@%d", t.cfg.Addr) }

// Stats returns a copy of the counters, the port's included.
func (t *RMTTile) Stats() RMTStats {
	s := t.stats
	s.Ejected, s.Emitted, s.Refused, s.StallCycles = t.ejected, t.emitted, t.refused, t.stalls
	s.QueueDropped = t.shed
	return s
}

// Pipeline exposes the wrapped pipeline (for test inspection).
func (t *RMTTile) Pipeline() *rmt.Pipeline { return t.pipe }

// Idle reports whether the tile has no work in flight.
func (t *RMTTile) Idle() bool {
	processed, _, _ := t.pipe.Stats()
	return t.queue.Len() == 0 && t.outLen() == 0 && t.stats.Accepted <= processed
}

// EnableEventSleep lets EndCycle return real sleep wakes; the builder
// calls it only when the fabric pokes the tile about arrivals.
func (t *RMTTile) EnableEventSleep() { t.eventOK = true }

// EndCycle implements sim.EventAware. A tile that sleeps with an empty
// outbox keeps its pipeline shifting; the slept shifts are applied in one
// Skip on wake or in SyncTo.
func (t *RMTTile) EndCycle(cycle uint64) uint64 {
	if t.eventOK {
		if w := t.nextWake(cycle); w > cycle+1 {
			t.sleep(cycle)
			return w
		}
	}
	return cycle + 1
}

// nextWake: a blocked outbox freezes the whole pipeline, so the tile can
// sleep until the fabric credit pokes it, deferring one stall per cycle.
// With the outbox and the queue empty, the pipeline's shifts change
// nothing until its next exit, so the tile sleeps until that cycle.
func (t *RMTTile) nextWake(cycle uint64) uint64 {
	if t.canDrain() || t.fab.HasEjectable(t.cfg.Node) {
		return cycle + 1
	}
	if t.outLen() > 0 {
		return sim.WakeNever
	}
	if t.queue.Len() > 0 {
		return cycle + 1
	}
	if n, ok := t.pipe.UntilExit(); ok {
		return cycle + n
	}
	return sim.WakeNever
}

// SyncTo implements sim.EventAware: deferred stall cycles and pipeline
// shifts are applied through the given cycle.
func (t *RMTTile) SyncTo(cycle uint64) { t.catchUp(t.syncTo(cycle)) }

// catchUp applies n slept cycles of pipeline shifts. Only a blocked
// outbox, which the port's stall accrual records, freezes the pipeline.
func (t *RMTTile) catchUp(n uint64) {
	if n > 0 && !t.sleepStall {
		t.pipe.Skip(n)
	}
}

// Tick implements sim.Ticker.
func (t *RMTTile) Tick(cycle uint64) {
	if t.sleeping {
		t.catchUp(t.wakeUp(cycle))
	}
	// 1. Drain the outbox; a blocked outbox freezes the pipeline.
	if !t.drain(cycle) {
		// 2. Advance the pipeline.
		if res, ok := t.pipe.Tick(); ok {
			t.emitRMT(res, cycle)
			t.route(res.Msg)
		} else if res.Msg != nil && res.Drop {
			t.emitRMT(res, cycle)
			t.mark(res.Msg, trace.KindDrop, cycle, trace.DropRMT, 0)
			t.pool.Put(res.Msg)
		}
		// 3. Admit one message per cycle.
		if t.pipe.CanAccept() {
			if msg, ok := t.pop(cycle); ok {
				t.pipe.Accept(msg, cycle)
				t.stats.Accepted++
			}
		}
	}
	_, dropped, _ := t.pipe.Stats() // parse errors are counted as drops
	t.stats.Dropped = dropped

	// 4. Accept arrivals from the fabric.
	t.eject(cycle, t.admit)
}

// admit pushes an arrival into the scheduling queue; whatever the queue
// sheds reaches no sink and is released.
func (t *RMTTile) admit(msg *packet.Message, cycle uint64) {
	if shed, _ := t.push(msg, cycle); shed != nil {
		t.pool.Put(shed)
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
