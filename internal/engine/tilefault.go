package engine

import (
	"fmt"
	"math"

	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/trace"
)

// FaultState is the injectable fault condition on a tile. The zero value
// is a healthy tile. Faults model a misbehaving or broken offload engine
// from the fabric's point of view: the tile keeps its fabric contract
// (arrivals are still accepted per policy, staged output still drains) but
// the compute behind it misbehaves, which is exactly what the health
// monitor must detect from liveness signals alone.
type FaultState struct {
	// Wedged freezes the engine: no new service starts, in-progress
	// service stops advancing, and generators stop generating. Queued and
	// in-flight messages are stranded until the control plane drains the
	// tile or the fault is lifted.
	Wedged bool
	// SlowFactor > 1 multiplies every service time (a thermally throttled
	// or grey-failing engine). 0 or 1 means nominal speed.
	SlowFactor float64
	// DropEveryN >= 1 silently discards every Nth arriving message before
	// it reaches the scheduling queue (a flaky input path). Discards are
	// counted in TileStats.FaultDropped and delivered to DropSink so
	// conservation accounting still holds.
	DropEveryN int
	// DropTenantOnly restricts DropEveryN to arrivals whose accounting
	// tenant is DropTenant; other tenants pass unharmed and do not advance
	// the every-Nth counter. This models a fault confined to one tenant's
	// flow state (a poisoned per-tenant context) rather than the whole
	// engine, and drives the tenant-scoped failover tests.
	DropTenantOnly bool
	DropTenant     uint16
	// CorruptEveryN >= 1 corrupts every Nth arriving message; the engine
	// front-end detects the bad checksum and discards it (counted in
	// TileStats.Corrupted, delivered to DropSink).
	CorruptEveryN int
}

// Clean reports whether the state is the healthy zero value.
func (f FaultState) Clean() bool {
	return !f.Wedged && (f.SlowFactor == 0 || f.SlowFactor == 1) && f.DropEveryN == 0 && f.CorruptEveryN == 0 &&
		!f.DropTenantOnly && f.DropTenant == 0
}

// SetFault installs (or, with the zero FaultState, lifts) a fault on the
// tile. It validates the state so fault plans fail loudly.
func (t *Tile) SetFault(f FaultState) {
	if f.SlowFactor != 0 && (math.IsNaN(f.SlowFactor) || math.IsInf(f.SlowFactor, 0) || f.SlowFactor < 1) {
		panic(fmt.Sprintf("engine: tile %q fault slow factor %v (want >= 1, or 0 for nominal)", t.eng.Name(), f.SlowFactor))
	}
	if f.DropEveryN < 0 || f.CorruptEveryN < 0 {
		panic(fmt.Sprintf("engine: tile %q negative fault period", t.eng.Name()))
	}
	if f.DropTenantOnly && f.DropEveryN < 1 {
		panic(fmt.Sprintf("engine: tile %q tenant-scoped drop without a drop period", t.eng.Name()))
	}
	t.fault = f
	// A sleeping tile must re-evaluate its schedule under the new fault
	// state (wedging freezes service; lifting it resumes). Deferred
	// counters stay correct without a sync here: the accrual rates were
	// captured at the sleep decision, so the cycles that elapsed before
	// this call are charged under the old state when the poked tick's
	// catch-up runs.
	t.wake.Poke()
}

// FaultState returns the tile's current fault condition.
func (t *Tile) FaultState() FaultState { return t.fault }

// Reset is the control plane's drain-and-reset action on a failed tile:
// the in-service message (aborted mid-flight) and everything in the
// scheduling queue are re-addressed to drainTo and staged for emission, so
// they re-enter the fabric and get reclassified — with whatever steering
// the control plane has installed by then. drainTo == AddrInvalid drains
// toward the tile's default route (the RMT pipelines). It returns the
// number of messages drained. Reset does not clear the fault: a wedged
// tile stays wedged (and its outbox still drains) until the fault is
// lifted, but it no longer holds messages hostage.
func (t *Tile) Reset(drainTo packet.Addr) int {
	dst := drainTo
	if dst == packet.AddrInvalid {
		dst = t.defaultRoute()
	}
	n := 0
	if t.cur != nil {
		t.traceDrained(t.cur)
		t.tally(t.cur.Tenant).Drained++
		t.outbox = append(t.outbox, resolvedOut{msg: t.cur, dst: t.routes.Lookup(dst)})
		t.cur = nil
		t.busyLeft = 0
		n++
	}
	for {
		msg, ok := t.queue.Pop()
		if !ok {
			break
		}
		t.traceDrained(msg)
		t.tally(msg.Tenant).Drained++
		t.outbox = append(t.outbox, resolvedOut{msg: msg, dst: t.routes.Lookup(dst)})
		n++
	}
	t.stats.Drained += uint64(n)
	// The drained outbox needs a tick to start flowing; on a sleeping tile
	// the poke provides it (the pre-Reset sleep cycles are charged under
	// the rates captured when the sleep began, see SetFault).
	t.wake.Poke()
	return n
}

// traceDrained marks a message evicted by a control-plane drain. Reset
// runs from the serial phase, so on a tile ticking every cycle ctx.Now is
// the current cycle; a sleeping tile's ctx.Now is stale, so the kernel
// clock (wired with event sleep) supplies the stamp the oracle would use.
func (t *Tile) traceDrained(msg *packet.Message) {
	now := t.ctx.Now
	if t.sleeping && t.clk != nil {
		now = t.clk.Now()
	}
	if t.cfg.Trace.Want(msg.TraceID) {
		t.cfg.Trace.Emit(trace.Span{
			Msg: msg.TraceID, Kind: trace.KindDrop,
			LocKind: trace.LocEngine, Loc: uint32(t.cfg.Addr),
			Start: now, End: now, A: trace.DropDrained,
			Tenant: msg.Tenant,
		})
	}
}

// shedFaulted applies the flake faults to an arriving message; it reports
// whether the message was consumed (dropped or corrupted-and-discarded).
func (t *Tile) shedFaulted(msg *packet.Message, cycle uint64) bool {
	if n := t.fault.CorruptEveryN; n >= 1 {
		t.corruptSeen++
		if t.corruptSeen%uint64(n) == 0 {
			t.stats.Corrupted++
			t.stats.Dropped++
			ta := t.tally(msg.Tenant)
			ta.Dropped++
			ta.Rejected++
			t.traceShed(msg, cycle, trace.DropCorrupt)
			t.discard(msg, cycle)
			return true
		}
	}
	if n := t.fault.DropEveryN; n >= 1 {
		if t.fault.DropTenantOnly && msg.Tenant != t.fault.DropTenant {
			return false
		}
		t.dropSeen++
		if t.dropSeen%uint64(n) == 0 {
			t.stats.FaultDropped++
			t.stats.Dropped++
			ta := t.tally(msg.Tenant)
			ta.Dropped++
			ta.Rejected++
			t.traceShed(msg, cycle, trace.DropFault)
			t.discard(msg, cycle)
			return true
		}
	}
	return false
}

// traceShed marks a fault-injected discard.
func (t *Tile) traceShed(msg *packet.Message, cycle uint64, reason uint64) {
	if t.cfg.Trace.Want(msg.TraceID) {
		t.cfg.Trace.Emit(trace.Span{
			Msg: msg.TraceID, Kind: trace.KindDrop,
			LocKind: trace.LocEngine, Loc: uint32(t.cfg.Addr),
			Start: cycle, End: cycle, A: reason,
			Tenant: msg.Tenant,
		})
	}
}

// scaleService applies the slow-factor fault to a service time.
func (t *Tile) scaleService(svc uint64) uint64 {
	if f := t.fault.SlowFactor; f > 1 {
		scaled := math.Ceil(float64(svc) * f)
		if scaled >= math.MaxUint64 {
			return math.MaxUint64
		}
		svc = uint64(scaled)
	}
	return svc
}
