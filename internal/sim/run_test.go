package sim

import (
	"slices"
	"testing"
)

// chainStage is a pipeline stage: it moves values from its input FIFO to
// its output FIFO, one per cycle, counting what it forwarded. Stages obey
// the package contract (committed reads, staged writes), so any tick order
// must produce identical results.
type chainStage struct {
	in, out *FIFO[int]
	moved   uint64
	sum     uint64
}

func (s *chainStage) Tick(cycle uint64) {
	if s.in.CanPop() && s.out.CanPush() {
		v := s.in.Pop()
		s.out.Push(v)
		s.moved++
		s.sum += uint64(v)
	}
}

// buildChain wires nStages stages in a line feeding from a producer FIFO,
// registers everything with the kernel (in reverse order when reverse is
// set), and pre-loads the first FIFO via scheduled events (one value every
// other cycle).
func buildChain(k *Kernel, nStages, nValues int, reverse bool) []*chainStage {
	fifos := make([]*FIFO[int], nStages+1)
	var comps []any
	for i := range fifos {
		fifos[i] = NewFIFO[int](4)
		comps = append(comps, fifos[i])
	}
	stages := make([]*chainStage, nStages)
	for i := range stages {
		stages[i] = &chainStage{in: fifos[i], out: fifos[i+1]}
		comps = append(comps, stages[i])
	}
	if reverse {
		slices.Reverse(comps)
	}
	k.Register(comps...)
	for v := 0; v < nValues; v++ {
		v := v
		k.At(uint64(1+2*v), func() {
			if fifos[0].CanPush() {
				fifos[0].Push(v + 1)
			}
		})
	}
	return stages
}

// runChain executes the chain, on the reference stepper when reference is
// set, and returns the per-stage (moved, sum) fingerprint.
func runChain(reference, reverse bool, cycles uint64) []uint64 {
	k := NewKernel(GHz)
	if reference {
		k.UseReference()
	}
	stages := buildChain(k, 12, 40, reverse)
	k.Run(cycles)
	var fp []uint64
	for _, s := range stages {
		fp = append(fp, s.moved, s.sum)
	}
	return fp
}

// TestTickOrderUnobservable runs the same staged pipeline with its
// components registered forwards and in reverse, on the kernel and on the
// reference stepper: the staged-write contract makes tick order
// unobservable, so every counter must match exactly.
func TestTickOrderUnobservable(t *testing.T) {
	want := runChain(true, false, 300)
	if want[len(want)-2] == 0 {
		t.Fatal("no value reached the end of the chain")
	}
	for _, c := range []struct{ reference, reverse bool }{{true, true}, {false, false}, {false, true}} {
		if got := runChain(c.reference, c.reverse, 300); !slices.Equal(got, want) {
			t.Fatalf("reference=%v reverse=%v: fingerprint %v, forward reference %v", c.reference, c.reverse, got, want)
		}
	}
}

// TestRunUntilHonorsStop is the regression test for RunUntil ignoring
// Stop(): a component that calls Stop mid-run must end RunUntil at that
// cycle even though the predicate never becomes true.
func TestRunUntilHonorsStop(t *testing.T) {
	k := NewKernel(GHz)
	ticks := 0
	k.Register(TickFunc(func(cycle uint64) {
		ticks++
		if cycle == 7 {
			k.Stop()
		}
	}))
	ok := k.RunUntil(func() bool { return false }, 1000)
	if ok {
		t.Fatal("predicate never true, RunUntil returned true")
	}
	if ticks != 8 {
		t.Fatalf("RunUntil ran %d cycles after Stop at cycle 7, want 8", ticks)
	}
	// A subsequent RunUntil must not see the stale stop flag.
	ok = k.RunUntil(func() bool { return k.Now() >= 20 }, 1000)
	if !ok {
		t.Fatal("second RunUntil saw stale stopped flag")
	}
}

// TestRunResetsStop mirrors the regression for Run: a Stop from a previous
// window must not shorten the next one.
func TestRunResetsStop(t *testing.T) {
	k := NewKernel(GHz)
	k.Register(TickFunc(func(cycle uint64) {
		if cycle == 3 {
			k.Stop()
		}
	}))
	k.Run(100)
	if k.Now() != 4 {
		t.Fatalf("first Run stopped at cycle %d, want 4", k.Now())
	}
	k.Run(100)
	if k.Now() != 104 {
		t.Fatalf("second Run ended at %d, want 104", k.Now())
	}
}

// idleTicker declares a wake every `period` cycles and records which
// cycles it was actually ticked at.
type idleTicker struct {
	period uint64
	ticked []uint64
	work   uint64
}

func (i *idleTicker) Tick(cycle uint64) {
	i.ticked = append(i.ticked, cycle)
	if cycle%i.period == 0 {
		i.work++
	}
}

func (i *idleTicker) EndCycle(cycle uint64) uint64 {
	return cycle + i.period - cycle%i.period
}

func (i *idleTicker) SyncTo(uint64) {}

// TestFastForwardSkipsIdleCycles checks the jump lands exactly on work
// cycles and that the end state matches the reference stepper's, which
// ticks every cycle and skips none.
func TestFastForwardSkipsIdleCycles(t *testing.T) {
	k := NewKernel(GHz)
	it := &idleTicker{period: 10}
	k.Register(it)
	k.Run(100)
	if k.Now() != 100 {
		t.Fatalf("clock at %d after Run(100), want 100", k.Now())
	}
	if it.work != 10 {
		t.Fatalf("work ran %d times, want 10 (cycles 0,10,...,90)", it.work)
	}
	for _, c := range it.ticked {
		if c%10 != 0 {
			t.Fatalf("ticked at idle cycle %d", c)
		}
	}
	if k.SkippedCycles() != 100-uint64(len(it.ticked)) {
		t.Fatalf("SkippedCycles = %d, ticked %d, want them to sum to 100",
			k.SkippedCycles(), len(it.ticked))
	}

	ref := NewKernel(GHz)
	ref.UseReference()
	rt := &idleTicker{period: 10}
	ref.Register(rt)
	ref.Run(100)
	if rt.work != it.work || len(rt.ticked) != 100 || ref.SkippedCycles() != 0 {
		t.Fatalf("reference: work %d, %d ticks, %d skipped; want %d, 100, 0",
			rt.work, len(rt.ticked), ref.SkippedCycles(), it.work)
	}
}

// TestFastForwardBoundedByEvents checks a scheduled event interrupts an
// otherwise unbounded idle jump, and that its poke wakes a sleeper the
// same cycle.
func TestFastForwardBoundedByEvents(t *testing.T) {
	k := NewKernel(GHz)
	var tickedAt []uint64
	q := quiescentTicker{onTick: func(c uint64) { tickedAt = append(tickedAt, c) }}
	k.Register(&q)
	poke := k.PokerFor(&q)
	fired := uint64(0)
	k.At(500, func() { fired = k.Now(); poke.Poke() })
	k.Run(1000)
	if fired != 500 {
		t.Fatalf("event fired at %d, want 500", fired)
	}
	if k.Now() != 1000 {
		t.Fatalf("clock at %d, want 1000", k.Now())
	}
	// The sleeper runs on the Run's first (wake-all) cycle and at the
	// event that pokes it, nowhere else.
	if len(tickedAt) != 2 || tickedAt[0] != 0 || tickedAt[1] != 500 {
		t.Fatalf("idle ticker ran at %v, want exactly [0 500]", tickedAt)
	}
	if k.SkippedCycles() != 998 {
		t.Fatalf("SkippedCycles = %d, want 998", k.SkippedCycles())
	}
}

// quiescentTicker sleeps until poked.
type quiescentTicker struct {
	onTick func(uint64)
}

func (q *quiescentTicker) Tick(cycle uint64) { q.onTick(cycle) }

func (q *quiescentTicker) EndCycle(uint64) uint64 { return WakeNever }

func (q *quiescentTicker) SyncTo(uint64) {}

// TestFastForwardInertWithOpaqueTicker: one Ticker without a wake
// declaration makes every cycle potentially live, so nothing is skipped.
func TestFastForwardInertWithOpaqueTicker(t *testing.T) {
	k := NewKernel(GHz)
	n := 0
	k.Register(TickFunc(func(uint64) { n++ }))
	k.Run(64)
	if n != 64 {
		t.Fatalf("opaque ticker ran %d cycles of 64: fast-forward must be inert", n)
	}
	if k.SkippedCycles() != 0 {
		t.Fatalf("SkippedCycles = %d with an opaque ticker, want 0", k.SkippedCycles())
	}
}

// TestRunUntilFastForward: the predicate still terminates the run, and the
// clock lands exactly where stepping would have put it.
func TestRunUntilFastForward(t *testing.T) {
	k := NewKernel(GHz)
	it := &idleTicker{period: 100}
	k.Register(it)
	ok := k.RunUntil(func() bool { return it.work >= 3 }, 10000)
	if !ok {
		t.Fatal("RunUntil did not satisfy the predicate")
	}
	// work hits 3 when cycle 200 has run; the predicate is checked at the
	// start of the next stepped cycle.
	if it.work != 3 {
		t.Fatalf("work = %d, want 3", it.work)
	}
}

// TestSerialTickerStepsDueCycles: a serial ticker keeps no cycle live on
// its own; its Due schedule makes the kernel step exactly the cycles it
// acts on.
func TestSerialTickerStepsDueCycles(t *testing.T) {
	k := NewKernel(GHz)
	k.Register(&quiescentTicker{onTick: func(uint64) {}})
	var acted []uint64
	k.RegisterSerial(TickFunc(func(c uint64) {
		if c%40 == 0 {
			acted = append(acted, c)
		}
	}))
	k.Due(func(now uint64) uint64 { return now + (40-now%40)%40 })
	k.Run(200)
	if want := []uint64{0, 40, 80, 120, 160}; !slices.Equal(acted, want) {
		t.Fatalf("serial ticker acted at %v, want %v", acted, want)
	}
	if k.SkippedCycles() != 195 {
		t.Fatalf("SkippedCycles = %d, want 195 (only the due cycles step)", k.SkippedCycles())
	}
}
