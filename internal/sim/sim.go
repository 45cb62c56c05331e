// Package sim provides a deterministic synchronous (cycle-level) simulation
// kernel used by every hardware model in this repository.
//
// The kernel advances a global clock one cycle at a time. Each cycle has
// these phases:
//
//  1. Events: callbacks scheduled with At/After run, in (cycle, seq) order.
//  2. Begin: registered Preparers observe the new cycle (used to publish
//     the cycle number to state shared read-only in Eval).
//  3. Eval: every live Ticker (see below) observes the state committed at
//     the end of the previous cycle and stages its outputs.
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
// There is one loop. Eval only ticks components whose declared wake cycle
// has arrived or that were poked (see EventAware and Poker); a Ticker that
// declares nothing ticks every cycle. When no Eval ticker is due, no poke
// is pending, and no event or Due schedule falls on the current cycle, Run
// and RunUntil jump the clock to the earliest declared wake. The reference
// stepper (UseReference) is the same loop with every Eval ticker live every
// cycle and no jump; tests hold the two byte-identical.
//
// Observability rides on the same phase structure: internal/trace's Tracer
// is a Committer registered last, so per-component span buffers filled
// during Eval (single writer each) drain into one deterministic stream
// after every other commit of the cycle — byte-identical to the reference
// stepper's stream, because skipped cycles run no phases and so can emit
// nothing.
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

// Kernel drives a set of Tickers and Committers with a shared clock.
type Kernel struct {
	clock      Clock
	tickers    []Ticker
	serial     []Ticker
	preparers  []Preparer
	committers []Committer
	events     eventList
	stopped    bool
	skipped    uint64

	// Liveness state; the four slices parallel tickers.
	wakeAt    []uint64     // next cycle each ticker must run (0 = now)
	aware     []EventAware // nil for tickers without a wake declaration
	pokes     []*bool      // level-triggered external wake requests
	liveNow   []bool       // sampled once per cycle before Eval
	tickerIdx map[any]int  // component -> index, for PokerFor
	// nextWake is the minimum of wakeAt, kept by endCycle so the skip
	// decision never scans the tickers.
	nextWake uint64
	// wakeAllNext forces every ticker live for one cycle. Raised on entry
	// to Run/RunUntil, it makes state mutated from outside the kernel
	// (between runs, from tests, by fleet control planes) safe without
	// pokes: the first cycle of any run re-derives every wake schedule
	// from committed state.
	wakeAllNext bool
	// reference pins every cycle to a wake-all cycle (see UseReference).
	reference bool

	// observers run at the very end of every stepped cycle — after all
	// committers, before the clock advances — so they see exactly the state
	// the next cycle's Eval phase will. An empty list costs nothing.
	observers []func(cycle uint64)
	// due holds Due schedules: skips clamp to the earliest due cycle.
	due []func(now uint64) uint64
}

// NewKernel returns a kernel whose clock runs at the given frequency.
func NewKernel(freq Frequency) *Kernel {
	return &Kernel{clock: Clock{freq: freq}, tickerIdx: make(map[any]int), wakeAllNext: true}
}

// Clock returns the kernel's clock (current cycle plus frequency).
func (k *Kernel) Clock() *Clock { return &k.clock }

// Now returns the current cycle.
func (k *Kernel) Now() uint64 { return k.clock.cycle }

// SkippedCycles returns how many cycles the kernel has jumped over. Every
// skipped cycle is one the kernel proved no component would act in.
func (k *Kernel) SkippedCycles() uint64 { return k.skipped }

// Committers returns how many components the Commit phase visits each
// stepped cycle.
func (k *Kernel) Committers() int { return len(k.committers) }

// register adds one component to the given ticker slice (returned updated)
// and the committer/preparer lists. Eval-phase (non-serial) tickers
// additionally get liveness bookkeeping: a wake slot, a poke flag, and an
// index for PokerFor. wakeAt starts at 0 so a fresh component always runs
// on its first cycle and declares its own schedule.
func (k *Kernel) register(c any, tickers []Ticker, serial bool) []Ticker {
	ok := false
	if t, isT := c.(Ticker); isT {
		tickers = append(tickers, t)
		ok = true
		if !serial {
			// Function-typed tickers (TickFunc) are not hashable and cannot
			// be poked; every pokeable component is a pointer.
			if reflect.TypeOf(c).Comparable() {
				k.tickerIdx[c] = len(k.wakeAt)
			}
			k.wakeAt = append(k.wakeAt, 0)
			k.nextWake = 0
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
// registration order. Use it for control-plane components that read or
// mutate state owned by many tiles (steering tables, cross-tile health
// probes). Serial tickers tick on every stepped cycle but never keep a
// cycle live: one that must act at a particular cycle declares it with
// Due, or the kernel may jump over that cycle.
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
// Observers are not Tickers: they never keep a cycle live, and they are
// not called for skipped cycles (no phase runs in a skipped cycle, so no
// state can have changed since the last stepped one).
func (k *Kernel) ObserveCycleEnd(fn func(cycle uint64)) {
	k.observers = append(k.observers, fn)
}

// Due registers a step schedule for a component outside the Eval phase —
// a sampling observer or a serial ticker: fn returns the next cycle at
// which it needs the kernel to actually step (e.g. an invariant monitor's
// lastChecked + interval). Skips clamp their jump target so that cycle is
// stepped rather than skipped, so a due pass lands on exactly the same
// cycle as under the reference stepper. Stepping a cycle inside a
// proven-idle window runs no Eval work (that is what the skip proved), so
// the clamp cannot perturb Eval state. A return value <= now means "due
// this very cycle" and vetoes the jump entirely.
func (k *Kernel) Due(fn func(now uint64) uint64) {
	k.due = append(k.due, fn)
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

// Step advances the simulation by exactly one cycle. The Eval phase only
// runs tickers whose wake cycle has arrived or that were poked (liveness
// is sampled sequentially after start-of-cycle events, so an event
// callback's poke takes effect the same cycle); serial tickers, Begin,
// every committer and the observers always run.
func (k *Kernel) Step() {
	k.clock.started = true
	cycle := k.clock.cycle
	for k.events.ready(cycle) {
		k.events.pop().fn()
	}
	k.sampleLiveness(cycle)
	for _, p := range k.preparers {
		p.Begin(cycle)
	}
	for i, t := range k.tickers {
		if k.liveNow[i] {
			t.Tick(cycle)
		}
	}
	for _, t := range k.serial {
		t.Tick(cycle)
	}
	for _, c := range k.committers {
		c.Commit()
	}
	if !k.reference {
		k.endCycle(cycle)
	}
	for _, o := range k.observers {
		o(cycle)
	}
	k.clock.cycle++
}

// Run advances the simulation by n cycles, or until Stop is called.
// Provably idle cycles inside the window are skipped (they still count
// toward n: the clock lands exactly where sequential stepping would).
//
// The first cycle of every Run ticks all components (state mutated between
// runs needs no pokes) and deferred statistics are brought current before
// returning, so callers observe reference-exact state.
func (k *Kernel) Run(n uint64) {
	k.stopped = false
	k.wakeAllNext = true
	end := k.clock.cycle + n
	for k.clock.cycle < end && !k.stopped {
		k.skipIdle(end)
		if k.clock.cycle >= end {
			break
		}
		k.Step()
	}
	k.syncAll()
}

// RunUntil advances the simulation until the predicate returns true at the
// start of a cycle, until Stop is called, or until maxCycles have elapsed.
// It reports whether the predicate was satisfied. Deferred statistics are
// synchronized before every predicate evaluation, so predicates over
// component state read reference-exact values.
//
// The predicate is evaluated only at cycles the kernel actually steps;
// skipped cycles cannot change any component state, so a predicate over
// simulation state is unaffected. A predicate that watches the raw clock
// value may observe it later than with sequential stepping.
func (k *Kernel) RunUntil(pred func() bool, maxCycles uint64) bool {
	k.stopped = false
	k.wakeAllNext = true
	end := k.clock.cycle + maxCycles
	for k.clock.cycle < end && !k.stopped {
		k.syncAll()
		if pred() {
			return true
		}
		k.skipIdle(end)
		if k.clock.cycle >= end {
			break
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
