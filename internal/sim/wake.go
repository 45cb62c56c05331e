package sim

import "math"

// WakeNever is the EndCycle return value meaning "I have no self-scheduled
// work: do not tick me again until something pokes me."
const WakeNever = math.MaxUint64

// EventAware is an optional refinement of Ticker for components that
// participate in the event-driven loaded path. Where Quiescer only lets the
// kernel skip *globally* idle cycles, EventAware lets it skip *individual
// components* while others stay busy: a tile 300 cycles into a 400-cycle
// encryption declares its completion cycle and sleeps through the silence.
//
// The contract extends Quiescer's, with the same strictness about
// observable state, but splits it in two because a sleeping component's
// statistics may lag:
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
//     event engine is byte-identical to the ticked oracle everywhere state
//     can leak out.
//
// Sleeping is only sound if every external input that could give the
// component work is paired with a Poke: the poke forces a tick on the next
// cycle, exactly when the staged input becomes visible. A missed poke is a
// lost wakeup and shows up as a fingerprint divergence against the ticked
// oracle, which is why the determinism matrix runs every configuration in
// both modes.
type EventAware interface {
	Ticker
	EndCycle(cycle uint64) uint64
	SyncTo(cycle uint64)
}

// DirtyCommitter is an optional refinement of Committer for staged state
// that can prove its Commit is a no-op. The flag is raised by any staging
// operation since the last commit and cleared by the kernel after calling
// Commit; while it is down the kernel skips the call entirely. This is a
// pure optimization, active in both kernel modes: a clean committer's
// Commit must be provably side-effect free.
type DirtyCommitter interface {
	Committer
	DirtyFlag() *bool
}

// Poker wakes one registered component of an event-driven kernel. Pokes are
// level-triggered flags, not queued messages: any number of pokes during a
// cycle mean "tick on the next cycle" (or this cycle, when poked by a
// start-of-cycle event callback). The zero Poker is a no-op, so wiring can
// be unconditional. Poke may be called from Eval, event callbacks, and
// Commit alike.
type Poker struct{ f *bool }

// Poke marks the component as having pending external input.
func (p Poker) Poke() {
	if p.f != nil {
		*p.f = true
	}
}

// SetEventDriven switches the kernel between the ticked oracle loop
// (every Ticker, every cycle) and the event-driven loop (only components
// whose wake cycle has arrived or that were poked). The two are
// byte-identical in all observable state; event mode is the fast path under
// load. Enabling it forces a full tick on the next cycle so every
// component's wake schedule is rebuilt from live state.
func (k *Kernel) SetEventDriven(on bool) {
	if on == k.eventDriven {
		return
	}
	k.eventDriven = on
	if on {
		k.wakeAllNext = true
	}
}

// EventDriven reports whether the event-driven loop is active.
func (k *Kernel) EventDriven() bool { return k.eventDriven }

// PokerFor returns a Poker for a component previously passed to Register.
// It panics on an unregistered component: a poke wired to nothing is a
// lost-wakeup bug waiting for event mode to expose it. Serial tickers are
// never gated (they tick every cycle), so they have no pokers.
func (k *Kernel) PokerFor(c any) Poker {
	idx, ok := k.tickerIdx[c]
	if !ok {
		panic("sim: PokerFor on a component not registered as an Eval-phase Ticker")
	}
	return Poker{f: k.pokes[idx]}
}

// BulkWaker is implemented by EventAware components that are internally a
// collection of sub-machines with their own liveness tracking (a mesh of
// routers). On a wake-all cycle — the first cycle of every Run — the
// kernel calls WakeAll before Begin so the component marks every
// sub-machine live for that cycle, matching the kernel-level guarantee
// that externally mutated state needs no pokes across Run boundaries.
type BulkWaker interface {
	WakeAll()
}

// sampleLiveness decides, sequentially and before Eval, which tickers run
// this cycle. A poke consumed here (the component will tick this cycle)
// is cleared; pokes that land later in the cycle stay up for endCycle.
// Start-of-cycle event callbacks have already run, so an event that pokes
// a sleeping component wakes it within the same cycle.
func (k *Kernel) sampleLiveness(cycle uint64) {
	wakeAll := k.wakeAllNext
	k.wakeAllNext = false
	if wakeAll {
		for _, a := range k.aware {
			if bw, ok := a.(BulkWaker); ok {
				bw.WakeAll()
			}
		}
	}
	for i := range k.liveNow {
		live := wakeAll || k.wakeAt[i] <= cycle
		if *k.pokes[i] {
			*k.pokes[i] = false
			live = true
		}
		k.liveNow[i] = live
	}
}

// endCycle runs after Commit: every ticker that ran declares its next wake
// cycle, and any poke that landed during the cycle (Eval, Serial, or
// Commit) forces a wake next cycle — the poked-about state commits at the
// end of this cycle, so next cycle is exactly when the component can see
// it. Waking a component that turns out to have nothing to do is always
// safe (its tick reconciles and it sleeps again); only a missed wake can
// diverge from the oracle.
func (k *Kernel) endCycle(cycle uint64) {
	for i := range k.liveNow {
		poked := *k.pokes[i]
		if !k.liveNow[i] && !poked {
			continue
		}
		wake := cycle + 1
		if k.liveNow[i] {
			if a := k.aware[i]; a != nil {
				wake = a.EndCycle(cycle)
			}
		}
		if poked {
			// The flag stays up for sampleLiveness to consume: a pending
			// poke also vetoes fast-forward, which matters because the
			// poked-about input may be invisible to the component's own
			// NextWork until it ticks.
			if wake > cycle+1 {
				wake = cycle + 1
			}
		}
		k.wakeAt[i] = wake
	}
}

// syncAll brings every EventAware component's deferred statistics current
// through the last executed cycle. Called at every external observation
// boundary; a no-op for components already current, and in ticked mode.
func (k *Kernel) syncAll() {
	if k.clock.cycle == 0 {
		return
	}
	k.SyncAllAt(k.clock.cycle - 1)
}

// SyncAll exposes syncAll for observers outside the kernel's own Run loop.
func (k *Kernel) SyncAll() { k.syncAll() }

// SyncAllAt brings deferred statistics current through the given cycle.
// End-of-cycle observers (the invariant monitor) call it with the cycle
// being observed: that cycle has fully executed but the clock has not
// advanced yet, so syncAll's clock-derived boundary would stop one cycle
// short. A no-op in ticked mode and for components already current.
func (k *Kernel) SyncAllAt(cycle uint64) {
	if !k.eventDriven {
		return
	}
	for _, a := range k.aware {
		if a != nil {
			a.SyncTo(cycle)
		}
	}
}

// skipIdleEvent is fast-forward for the event-driven loop: jump to the
// earliest wake among scheduled events, per-ticker wake cycles, and serial
// tickers' NextWork. Unlike the oracle's skipIdle it can jump *through* a
// busy component's silent service window — the wake array already encodes
// when each component next acts, and SyncTo reconciles the skipped
// accounting. A pending poke or a forced full tick vetoes the jump.
func (k *Kernel) skipIdleEvent(end uint64) {
	if k.wakeAllNext {
		return
	}
	now := k.clock.cycle
	target := end
	if !k.clampObserverDue(now, &target) {
		return // a sampling observer is due this cycle
	}
	if ec, ok := k.events.nextCycle(); ok {
		if ec <= now {
			return
		}
		if ec < target {
			target = ec
		}
	}
	for i, t := range k.tickers {
		if *k.pokes[i] {
			return
		}
		w := k.wakeAt[i]
		if k.aware[i] == nil || w <= now {
			// Either not event-aware, or scheduled to tick immediately —
			// which means "really has per-cycle work" for a sleeper but
			// only "conservatively awake" for a component that never
			// sleeps (a tile on a fabric with no waker path). NextWork
			// disambiguates; an opaque ticker pins every cycle live.
			// Trusting idle here is sound for the same reason legacy
			// skipIdle may: inputs invisible to the component (in-flight
			// fabric arrivals, staged sink flushes) keep their *source*
			// busy or leave a poke pending, both of which veto the jump.
			q, ok := t.(Quiescer)
			if !ok {
				return
			}
			next, idle := q.NextWork(now)
			if idle {
				continue
			}
			w = next
		}
		if w <= now {
			return
		}
		if w < target {
			target = w
		}
	}
	for _, t := range k.serial {
		q, ok := t.(Quiescer)
		if !ok {
			return
		}
		next, idle := q.NextWork(now)
		if idle {
			continue
		}
		if next <= now {
			return
		}
		if next < target {
			target = next
		}
	}
	if target > now {
		k.skipped += target - now
		k.clock.cycle = target
		k.clock.started = true
	}
}
