// Package sim provides a deterministic synchronous (cycle-level) simulation
// kernel used by every hardware model in this repository.
//
// The kernel advances a global clock one cycle at a time. Each cycle has
// these phases:
//
//  1. Events: callbacks scheduled with At/After run, in (cycle, seq) order.
//  2. Begin: registered Preparers observe the new cycle (used to publish
//     the cycle number to state shared read-only in Eval).
//  3. Eval: every registered Ticker observes the state committed at the end
//     of the previous cycle and stages its outputs.
//  4. Serial: Tickers registered with RegisterSerial run one by one in
//     registration order — the escape hatch for control-plane components
//     that read or rewrite state shared across many tiles (e.g. a health
//     monitor rewriting steering tables) and therefore must run after
//     every Eval tick, where their unstaged writes cannot depend on tick
//     order.
//  5. Commit: every registered Committer makes the staged writes visible,
//     in registration order.
//
// Because Eval never observes same-cycle writes, the result of a cycle is
// independent of the order in which components are ticked, which makes the
// simulation deterministic and lets hardware models be written as if all
// components evaluated in parallel, exactly like synchronous digital logic.
// The kernel itself runs on one goroutine: a per-cycle barrier costs more
// than a cycle of Eval, so host parallelism lives one level up, in
// EpochSet's shards of whole kernels.
//
// When every registered Ticker also implements Quiescer, Run and RunUntil
// can fast-forward the clock over provably idle cycles (see Quiescer).
//
// Observability rides on the same phase structure: internal/trace's Tracer
// is a Committer registered last, so per-component span buffers filled
// during Eval (single writer each) drain into one deterministic stream
// after every other commit of the cycle — byte-identical across kernel
// loops and with fast-forward on or off, because skipped cycles run no
// phases and so can emit nothing.
package sim

import (
	"fmt"
	"math"
	"reflect"
)

// Ticker is a synchronous component evaluated once per cycle.
type Ticker interface {
	// Tick evaluates the component for the given cycle. It must read only
	// state committed in previous cycles and stage writes through Links (or
	// private double-buffered state) so that ordering between Tickers within
	// a cycle does not matter.
	Tick(cycle uint64)
}

// Committer is anything with staged state that becomes visible at the end of
// a cycle. Links implement it; components with private double-buffered state
// may register themselves too.
type Committer interface {
	Commit()
}

// Preparer is an optional component hook that runs sequentially at the start
// of every cycle, before Eval. It exists so a component can publish the
// cycle number (or other broadcast state) that neighboring tickers then
// read regardless of whether they tick before or after the component.
type Preparer interface {
	Begin(cycle uint64)
}

// TickFunc adapts a function to the Ticker interface.
type TickFunc func(cycle uint64)

// Tick implements Ticker.
func (f TickFunc) Tick(cycle uint64) { f(cycle) }

// KernelConfig parameterizes a Kernel beyond its clock frequency.
type KernelConfig struct {
	// Freq is the clock frequency.
	Freq Frequency
	// FastForward lets Run/RunUntil jump the clock over cycles in which no
	// registered component has work. It only ever engages when every
	// registered Ticker implements Quiescer; otherwise it is inert.
	FastForward bool
	// EventDriven selects the event-driven loop: each cycle only ticks
	// components whose declared wake cycle has arrived or that were poked,
	// instead of every registered Ticker. Byte-identical to the ticked
	// loop; see EventAware.
	EventDriven bool
	// EventCap pre-sizes the event heap (an allocation hint; 0 is fine).
	EventCap int
}

// Kernel drives a set of Tickers and Committers with a shared clock.
type Kernel struct {
	clock      Clock
	tickers    []Ticker
	serial     []Ticker
	preparers  []Preparer
	committers []Committer
	quiescers  []Quiescer
	// allQuiesce tracks whether every registered Ticker (parallel and
	// serial) implements Quiescer; fast-forward requires it.
	nonQuiescers int
	events       eventList
	stopped      bool

	fastForward bool
	skipped     uint64

	// commitFlags parallels committers: non-nil entries are DirtyCommitter
	// flags letting the Commit phase skip provably clean committers. Active
	// in both kernel modes.
	commitFlags []*bool

	// Event-driven mode state; the four slices parallel tickers.
	eventDriven bool
	wakeAt      []uint64     // next cycle each ticker must run (0 = now)
	aware       []EventAware // nil for tickers without deferred sync
	pokes       []*bool      // level-triggered external wake requests
	liveNow     []bool       // sampled once per cycle before Eval
	tickerIdx   map[any]int  // component -> index, for PokerFor
	// wakeAllNext forces every ticker live for one cycle. Raised on entry
	// to Run/RunUntil and when event mode switches on, it makes state
	// mutated from outside the kernel (between runs, from tests, by fleet
	// control planes) safe without pokes: the first cycle of any run
	// re-derives every wake schedule from committed state.
	wakeAllNext bool

	// observers run at the very end of every stepped cycle — after all
	// committers, before the clock advances — so they see exactly the state
	// the next cycle's Eval phase will. An empty list costs nothing.
	observers []func(cycle uint64)
	// obsDue holds observer schedules (see ObserverDue): fast-forward jumps
	// clamp to the earliest due cycle so sampled observer passes land on
	// deterministic cycles in every kernel mode.
	obsDue []func(now uint64) uint64
}

// NewKernel returns a kernel whose clock runs at the given frequency.
func NewKernel(freq Frequency) *Kernel {
	return NewKernelWithConfig(KernelConfig{Freq: freq})
}

// NewKernelWithConfig returns a kernel with the given configuration.
func NewKernelWithConfig(cfg KernelConfig) *Kernel {
	k := &Kernel{clock: Clock{freq: cfg.Freq}, tickerIdx: make(map[any]int)}
	k.fastForward = cfg.FastForward
	k.SetEventDriven(cfg.EventDriven)
	if cfg.EventCap > 0 {
		k.events.h = make(eventHeap, 0, cfg.EventCap)
	}
	return k
}

// Clock returns the kernel's clock (current cycle plus frequency).
func (k *Kernel) Clock() *Clock { return &k.clock }

// Now returns the current cycle.
func (k *Kernel) Now() uint64 { return k.clock.cycle }

// SetFastForward enables or disables idle-cycle fast-forward for Run and
// RunUntil. It only ever engages when every registered Ticker implements
// Quiescer.
func (k *Kernel) SetFastForward(on bool) { k.fastForward = on }

// FastForwardEnabled reports whether fast-forward is configured on.
func (k *Kernel) FastForwardEnabled() bool { return k.fastForward }

// SkippedCycles returns how many cycles fast-forward has jumped over. Every
// skipped cycle is one the kernel proved no component would act in.
func (k *Kernel) SkippedCycles() uint64 { return k.skipped }

// Committers returns how many components the Commit phase visits each
// stepped cycle.
func (k *Kernel) Committers() int { return len(k.committers) }

// register adds one component to the given ticker slice (returned updated)
// and the committer/preparer/quiescer lists. Eval-phase (non-serial) tickers
// additionally get event-mode bookkeeping: a wake slot, a poke flag, and an
// index for PokerFor. wakeAt starts at 0 so a fresh component always runs
// on its first cycle and declares its own schedule.
func (k *Kernel) register(c any, tickers []Ticker, serial bool) []Ticker {
	ok := false
	if t, isT := c.(Ticker); isT {
		tickers = append(tickers, t)
		ok = true
		if q, isQ := c.(Quiescer); isQ {
			k.quiescers = append(k.quiescers, q)
		} else {
			k.nonQuiescers++
		}
		if !serial {
			// Function-typed tickers (TickFunc) are not hashable and cannot
			// be poked; every pokeable component is a pointer.
			if reflect.TypeOf(c).Comparable() {
				k.tickerIdx[c] = len(k.wakeAt)
			}
			k.wakeAt = append(k.wakeAt, 0)
			a, _ := c.(EventAware)
			k.aware = append(k.aware, a)
			k.pokes = append(k.pokes, new(bool))
			k.liveNow = append(k.liveNow, false)
		}
	}
	if p, isP := c.(Preparer); isP {
		k.preparers = append(k.preparers, p)
		ok = true
	}
	if cm, isC := c.(Committer); isC {
		k.committers = append(k.committers, cm)
		var flag *bool
		if dc, isD := c.(DirtyCommitter); isD {
			flag = dc.DirtyFlag()
		}
		if flag != nil {
			*flag = true // commit once before the first skip
		}
		k.commitFlags = append(k.commitFlags, flag)
		ok = true
	}
	if !ok {
		panic(fmt.Sprintf("sim: Register(%T): neither Ticker, Preparer, nor Committer", c))
	}
	return tickers
}

// Register adds components to the kernel. Arguments may implement Ticker,
// Preparer, Committer, or any combination; anything else panics, since
// silently ignoring a component is a model bug.
func (k *Kernel) Register(components ...any) {
	for _, c := range components {
		k.tickers = k.register(c, k.tickers, false)
	}
}

// RegisterSerial adds components whose Tick must run after every other
// Ticker of the cycle: they run after the Eval phase, one by one, in
// registration order. Use it for control-plane components that read or mutate state
// owned by many tiles (steering tables, cross-tile health probes). Serial
// tickers are never skipped by the event-driven loop.
func (k *Kernel) RegisterSerial(components ...any) {
	for _, c := range components {
		k.serial = k.register(c, k.serial, true)
	}
}

// ObserveCycleEnd registers fn to run at the end of every stepped cycle,
// after the Commit phase and before the clock advances: fn sees the fully
// committed state of the cycle, exactly what the next cycle's Eval phase
// will read. Observers run in registration order, after every Committer
// regardless of when the Committers were registered, and may read any
// state but must not mutate it — they are the kernel's invariant/audit
// barrier, not a modeling phase.
//
// Observers are not Tickers: they never affect quiescence, and they are
// not called for cycles fast-forward skips (no phase runs in a skipped
// cycle, so no state can have changed since the last stepped one).
func (k *Kernel) ObserveCycleEnd(fn func(cycle uint64)) {
	k.observers = append(k.observers, fn)
}

// ObserverDue registers a schedule for a sampling observer: fn returns the
// next cycle at which the observer needs the kernel to actually step (e.g.
// an invariant monitor's lastChecked + interval). Both fast-forward skips
// — the ticked oracle's global-idle jump and the event engine's bulk
// advance — clamp their jump target so that cycle is stepped rather than
// skipped. A due pass therefore lands on exactly the same cycle in every
// kernel mode instead of on whatever post-jump cycle happens to step
// next. Stepping a cycle inside a proven-idle window runs no component
// work (that is what the skip proved), so the clamp cannot perturb
// simulation state, only where the observer fires. A return value <= now
// means "due this very cycle" and vetoes the jump entirely.
func (k *Kernel) ObserverDue(fn func(now uint64) uint64) {
	k.obsDue = append(k.obsDue, fn)
}

// clampObserverDue narrows a fast-forward jump target to the earliest
// observer-due cycle. It reports false when an observer is due at the
// current cycle, which vetoes the jump.
func (k *Kernel) clampObserverDue(now uint64, target *uint64) bool {
	for _, fn := range k.obsDue {
		c := fn(now)
		if c <= now {
			return false
		}
		if c < *target {
			*target = c
		}
	}
	return true
}

// At schedules fn to run at the start of the given absolute cycle, before
// Tickers are evaluated. Scheduling in the past (or the current cycle, which
// has already started) panics: time travel is a model bug.
func (k *Kernel) At(cycle uint64, fn func()) {
	if cycle <= k.clock.cycle && !(cycle == 0 && k.clock.cycle == 0 && !k.clock.started) {
		panic(fmt.Sprintf("sim: At(%d) scheduled at or before current cycle %d", cycle, k.clock.cycle))
	}
	k.events.push(event{cycle: cycle, seq: k.events.nextSeq(), fn: fn})
}

// After schedules fn to run d cycles from now.
func (k *Kernel) After(d uint64, fn func()) {
	if d == 0 {
		panic("sim: After(0) would run in the current cycle")
	}
	k.events.push(event{cycle: k.clock.cycle + d, seq: k.events.nextSeq(), fn: fn})
}

// Stop makes Run and RunUntil return at the end of the current cycle.
func (k *Kernel) Stop() { k.stopped = true }

// Step advances the simulation by exactly one cycle. In event-driven mode
// the Eval phase only runs tickers whose wake cycle has arrived or that
// were poked (liveness is sampled sequentially after start-of-cycle events,
// so an event callback's poke takes effect the same cycle); serial tickers,
// Begin, and observers always run, and the Commit phase skips committers
// whose dirty flag proves them clean in either mode.
func (k *Kernel) Step() {
	k.clock.started = true
	cycle := k.clock.cycle
	for k.events.ready(cycle) {
		k.events.pop().fn()
	}
	if k.eventDriven {
		k.sampleLiveness(cycle)
	}
	for _, p := range k.preparers {
		p.Begin(cycle)
	}
	if k.eventDriven {
		for i, t := range k.tickers {
			if k.liveNow[i] {
				t.Tick(cycle)
			}
		}
	} else {
		for _, t := range k.tickers {
			t.Tick(cycle)
		}
	}
	for _, t := range k.serial {
		t.Tick(cycle)
	}
	for i, c := range k.committers {
		if f := k.commitFlags[i]; f != nil {
			if !*f {
				continue
			}
			c.Commit()
			*f = false
			continue
		}
		c.Commit()
	}
	if k.eventDriven {
		k.endCycle(cycle)
	}
	for _, o := range k.observers {
		o(cycle)
	}
	k.clock.cycle++
}

// Run advances the simulation by n cycles, or until Stop is called. With
// fast-forward enabled, provably idle cycles inside the window are skipped
// (they still count toward n: the clock lands exactly where sequential
// stepping would).
//
// In event-driven mode the first cycle of every Run ticks all components
// (state mutated between runs needs no pokes) and deferred statistics are
// brought current before returning, so callers observe oracle-exact state.
func (k *Kernel) Run(n uint64) {
	k.stopped = false
	k.wakeAllNext = k.eventDriven
	end := k.clock.cycle + n
	for k.clock.cycle < end && !k.stopped {
		if k.fastForward {
			if k.eventDriven {
				k.skipIdleEvent(end)
			} else {
				k.skipIdle(end)
			}
			if k.clock.cycle >= end {
				break
			}
		}
		k.Step()
	}
	k.syncAll()
}

// RunUntil advances the simulation until the predicate returns true at the
// start of a cycle, until Stop is called, or until maxCycles have elapsed.
// It reports whether the predicate was satisfied. Deferred event-mode
// statistics are synchronized before every predicate evaluation, so
// predicates over component state read oracle-exact values.
//
// With fast-forward enabled the predicate is evaluated only at cycles the
// kernel actually steps; skipped cycles cannot change any component state,
// so a predicate over simulation state is unaffected. A predicate that
// watches the raw clock value may observe it later than with sequential
// stepping.
func (k *Kernel) RunUntil(pred func() bool, maxCycles uint64) bool {
	k.stopped = false
	k.wakeAllNext = k.eventDriven
	end := k.clock.cycle + maxCycles
	for k.clock.cycle < end && !k.stopped {
		k.syncAll()
		if pred() {
			return true
		}
		if k.fastForward {
			if k.eventDriven {
				k.skipIdleEvent(end)
			} else {
				k.skipIdle(end)
			}
			if k.clock.cycle >= end {
				break
			}
		}
		k.Step()
	}
	k.syncAll()
	return pred()
}

// Frequency is a clock frequency in hertz.
type Frequency float64

// Common frequencies.
const (
	MHz Frequency = 1e6
	GHz Frequency = 1e9
)

// String formats the frequency in the largest convenient unit.
func (f Frequency) String() string {
	switch {
	case f >= GHz:
		return fmt.Sprintf("%.6gGHz", float64(f/GHz))
	case f >= MHz:
		return fmt.Sprintf("%.6gMHz", float64(f/MHz))
	default:
		return fmt.Sprintf("%.6gHz", float64(f))
	}
}

// Clock tracks the current cycle and converts between cycles and wall time
// at a fixed frequency.
type Clock struct {
	cycle   uint64
	freq    Frequency
	started bool
}

// NewClock returns a standalone clock (useful outside a Kernel).
func NewClock(freq Frequency) *Clock { return &Clock{freq: freq} }

// Now returns the current cycle.
func (c *Clock) Now() uint64 { return c.cycle }

// Freq returns the clock frequency.
func (c *Clock) Freq() Frequency { return c.freq }

// Nanos converts a cycle count to nanoseconds at the clock frequency.
func (c *Clock) Nanos(cycles uint64) float64 {
	return float64(cycles) / float64(c.freq) * 1e9
}

// Cycles converts nanoseconds to a cycle count (rounded up) at the clock
// frequency.
func (c *Clock) Cycles(nanos float64) uint64 {
	return uint64(math.Ceil(nanos * float64(c.freq) / 1e9))
}
