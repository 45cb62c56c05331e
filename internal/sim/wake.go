package sim

import (
	"math"
	"math/bits"
)

// WakeNever is the EndCycle return value meaning "I have no self-scheduled
// work: do not tick me again until something pokes me."
const WakeNever = math.MaxUint64

// EventAware is an optional refinement of Ticker for components that
// declare when they next need to run, letting the kernel skip *individual
// components* while others stay busy — a tile 300 cycles into a 400-cycle
// encryption declares its completion cycle and sleeps through the silence —
// and jump the clock when every component sleeps. A Ticker that is not
// EventAware ticks every cycle and so keeps every cycle live.
//
// The contract is strict about observable state ("would change nothing"
// includes statistics counters), but splits it in two because a sleeping
// component's statistics may lag:
//
//   - EndCycle(cycle) runs sequentially after the Commit phase of every
//     cycle in which the component ticked. It returns the next cycle at
//     which the component must tick: cycle+1 if it may act next cycle, a
//     later cycle for a self-scheduled wake (service completion, timed
//     fault window), or WakeNever to sleep until poked. Sleeping through
//     [cycle+1, wake) must be *reconcilable*: either those ticks would
//     change nothing, or their entire effect is a closed-form function of
//     the gap length that SyncTo can apply (e.g. BusyCycles += gap).
//   - SyncTo(cycle) brings all deferred bulk effects current through the
//     given cycle, as if the component had ticked every skipped cycle up
//     to and including it. It must be idempotent and cheap when already
//     current. The kernel calls it before any external observation point
//     (end of Run/RunUntil, RunUntil predicates, invariant passes) so the
//     kernel is byte-identical to the reference stepper everywhere state
//     can leak out.
//
// Sleeping is only sound if every external input that could give the
// component work is paired with a Poke: the poke forces a tick on the next
// cycle, exactly when the staged input becomes visible. A missed poke is a
// lost wakeup and shows up as a fingerprint divergence against the
// reference stepper, which is why the determinism tests run every
// configuration both ways.
type EventAware interface {
	Ticker
	EndCycle(cycle uint64) uint64
	SyncTo(cycle uint64)
}

// Poker wakes one registered component of a kernel. Pokes are
// level-triggered bits in the kernel's poke bitset, not queued messages:
// any number of pokes during a cycle mean "tick on the next cycle" (or this
// cycle, when poked by a start-of-cycle event callback). The zero Poker is
// a no-op, so wiring can be unconditional. Poke may be called from Eval,
// event callbacks, and Commit alike.
type Poker struct {
	k *Kernel
	i int
}

// Poke marks the component as having pending external input.
func (p Poker) Poke() {
	if p.k != nil {
		p.k.pokes[p.i>>6] |= 1 << (p.i & 63)
	}
}

// UseReference turns the kernel into the reference stepper from the next
// cycle on: every Eval ticker ticks every cycle, wake declarations are
// never consulted, and no cycle is skipped. Its result is byte-identical
// to the normal loop by contract; tests compare the two to catch lost
// wakeups and unreconciled sleeps. There is no way back.
func (k *Kernel) UseReference() {
	k.reference = true
	k.wakeAllNext = true
}

// PokerFor returns a Poker for a component previously passed to Register.
// It panics on an unregistered component: a poke wired to nothing is a
// lost-wakeup bug. Serial tickers are never gated (they tick every stepped
// cycle), so they have no pokers.
func (k *Kernel) PokerFor(c any) Poker {
	idx, ok := k.tickerIdx[c]
	if !ok {
		panic("sim: PokerFor on a component not registered as an Eval-phase Ticker")
	}
	return Poker{k: k, i: idx}
}

// BulkWaker is implemented by EventAware components that are internally a
// collection of sub-machines with their own liveness tracking (a mesh of
// routers). On a wake-all cycle — the first cycle of every Run, and every
// cycle of the reference stepper — the kernel calls WakeAll before Begin
// so the component marks every sub-machine live for that cycle, matching
// the kernel-level guarantee that externally mutated state needs no pokes
// across Run boundaries.
type BulkWaker interface {
	WakeAll()
}

// sampleLiveness decides, sequentially and before Eval, which tickers run
// this cycle: the poked ones, plus those whose wake cycle has arrived
// (wakeAt is scanned only when nextWake says one has). Pokes consumed here
// (the component will tick this cycle) are cleared; pokes that land later
// in the cycle stay up for endCycle. Start-of-cycle event callbacks have
// already run, so an event that pokes a sleeping component wakes it within
// the same cycle. Under the reference stepper every cycle is a wake-all
// cycle.
func (k *Kernel) sampleLiveness(cycle uint64) {
	wakeAll := k.wakeAllNext
	k.wakeAllNext = k.reference
	if wakeAll {
		for _, a := range k.aware {
			if bw, ok := a.(BulkWaker); ok {
				bw.WakeAll()
			}
		}
		for w := range k.liveNow {
			k.liveNow[w] = math.MaxUint64
		}
		if n := len(k.wakeAt) & 63; n != 0 {
			k.liveNow[len(k.liveNow)-1] = 1<<n - 1
		}
		clear(k.pokes)
		return
	}
	copy(k.liveNow, k.pokes)
	clear(k.pokes)
	if k.nextWake > cycle {
		return
	}
	for i, at := range k.wakeAt {
		if at <= cycle {
			k.liveNow[i>>6] |= 1 << (i & 63)
		}
	}
}

// endCycle runs after Commit: every ticker that ran declares its next wake
// cycle (one without a declaration wakes next cycle), and any poke that
// landed during the cycle (Eval, Serial, or Commit) forces a wake next
// cycle — the poked-about state commits at the end of this cycle, so next
// cycle is exactly when the component can see it. Waking a component that
// turns out to have nothing to do is always safe (its tick reconciles and
// it sleeps again); only a missed wake can diverge from the reference.
// Only live or poked tickers are visited; the earliest wake for skipIdle
// is then a minimum over the contiguous wakeAt.
func (k *Kernel) endCycle(cycle uint64) {
	for w := range k.liveNow {
		live, poked := k.liveNow[w], k.pokes[w]
		for word := live | poked; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			i := w<<6 | b
			wake := cycle + 1
			if a := k.aware[i]; live>>b&1 != 0 && a != nil {
				wake = a.EndCycle(cycle)
			}
			if poked>>b&1 != 0 {
				// The bit stays up for sampleLiveness to consume.
				wake = min(wake, cycle+1)
			}
			k.wakeAt[i] = wake
		}
	}
	next := uint64(WakeNever)
	for _, at := range k.wakeAt {
		next = min(next, at)
	}
	k.nextWake = next
}

// skipIdle jumps the clock to the earliest cycle in (now, end] at which
// anything may act: the earliest declared wake, the next scheduled event,
// or the earliest Due cycle. It can jump *through* a busy component's
// silent service window — the wake declarations already say when each
// component next acts, and SyncTo reconciles the skipped accounting. A
// ticker due now (including a poked one or one without a declaration), a
// wake-all cycle, an event or a Due schedule at the current cycle vetoes
// the jump. Skipped cycles are, by construction, cycles in which Step
// would have changed no state.
func (k *Kernel) skipIdle(end uint64) {
	now := k.clock.cycle
	if k.wakeAllNext || k.nextWake <= now {
		return
	}
	target := min(end, k.nextWake)
	if ec, ok := k.events.nextCycle(); ok {
		if ec <= now {
			return
		}
		target = min(target, ec)
	}
	for _, fn := range k.due {
		c := fn(now)
		if c <= now {
			return
		}
		target = min(target, c)
	}
	k.skipped += target - now
	k.clock.cycle = target
	k.clock.started = true
}

// syncAll brings every EventAware component's deferred statistics current
// through the last executed cycle. Called at every external observation
// boundary; a no-op for components already current.
func (k *Kernel) syncAll() {
	if k.clock.cycle == 0 {
		return
	}
	k.SyncAllAt(k.clock.cycle - 1)
}

// SyncAllAt brings deferred statistics current through the given cycle.
// End-of-cycle observers (the invariant monitor) call it with the cycle
// being observed: that cycle has fully executed but the clock has not
// advanced yet, so syncAll's clock-derived boundary would stop one cycle
// short. A no-op for components already current.
func (k *Kernel) SyncAllAt(cycle uint64) {
	for _, a := range k.aware {
		if a != nil {
			a.SyncTo(cycle)
		}
	}
}
