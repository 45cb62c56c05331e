package sim

import (
	"testing"
)

func TestClockConversions(t *testing.T) {
	c := NewClock(500 * MHz)
	if got := c.Nanos(1); got != 2 {
		t.Errorf("Nanos(1) at 500MHz = %v, want 2", got)
	}
	if got := c.Nanos(500); got != 1000 {
		t.Errorf("Nanos(500) = %v, want 1000", got)
	}
	if got := c.Cycles(2); got != 1 {
		t.Errorf("Cycles(2ns) = %v, want 1", got)
	}
	if got := c.Cycles(3); got != 2 {
		t.Errorf("Cycles(3ns) = %v, want 2 (rounded up)", got)
	}
}

func TestFrequencyString(t *testing.T) {
	cases := []struct {
		f    Frequency
		want string
	}{
		{500 * MHz, "500MHz"},
		{1 * GHz, "1GHz"},
		{250, "250Hz"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.f), got, c.want)
		}
	}
}

func TestKernelTickOrderIndependence(t *testing.T) {
	// Two components communicating through a staged FIFO must produce the
	// same per-cycle observations regardless of registration order.
	run := func(writerFirst bool) []int {
		k := NewKernel(1 * GHz)
		link := NewFIFO[int](1)
		var seen []int
		n := 0
		writer := TickFunc(func(uint64) {
			if link.CanPush() {
				n++
				link.Push(n)
			}
		})
		reader := TickFunc(func(uint64) {
			if link.CanPop() {
				seen = append(seen, link.Pop())
			}
		})
		if writerFirst {
			k.Register(writer, reader, link)
		} else {
			k.Register(reader, writer, link)
		}
		k.Run(10)
		return seen
	}
	a, b := run(true), run(false)
	if len(a) != len(b) {
		t.Fatalf("tick order changed observation count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick order changed values at %d: %v vs %v", i, a, b)
		}
	}
	// A capacity-1 FIFO returns its credit one cycle after the pop, so
	// after the 1-cycle fill latency it carries one value every other cycle.
	if len(a) != 5 {
		t.Errorf("reader saw %d values in 10 cycles, want 5", len(a))
	}
	for i, v := range a {
		if v != i+1 {
			t.Fatalf("values out of order: %v", a)
		}
	}
}

func TestKernelEvents(t *testing.T) {
	k := NewKernel(1 * GHz)
	var fired []uint64
	k.At(3, func() { fired = append(fired, k.Now()) })
	k.At(1, func() { fired = append(fired, k.Now()) })
	k.At(1, func() {
		fired = append(fired, k.Now())
		k.After(2, func() { fired = append(fired, k.Now()) })
	})
	k.Run(10)
	want := []uint64{1, 1, 3, 3}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestKernelEventInPastPanics(t *testing.T) {
	k := NewKernel(1 * GHz)
	k.Run(5)
	defer func() {
		if recover() == nil {
			t.Error("At(past) did not panic")
		}
	}()
	k.At(3, func() {})
}

func TestKernelStop(t *testing.T) {
	k := NewKernel(1 * GHz)
	k.Register(TickFunc(func(c uint64) {
		if c == 4 {
			k.Stop()
		}
	}))
	k.Run(100)
	if k.Now() != 5 {
		t.Errorf("stopped at cycle %d, want 5", k.Now())
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel(1 * GHz)
	// An opaque ticker keeps every cycle live; a kernel of sleepers would
	// jump the clock past a predicate that watches only the clock.
	k.Register(TickFunc(func(uint64) {}))
	ok := k.RunUntil(func() bool { return k.Now() >= 7 }, 100)
	if !ok || k.Now() != 7 {
		t.Errorf("RunUntil stopped at %d ok=%v, want 7 true", k.Now(), ok)
	}
	ok = k.RunUntil(func() bool { return false }, 10)
	if ok {
		t.Error("RunUntil reported success for unsatisfiable predicate")
	}
}

func TestKernelRegisterRejectsUnknown(t *testing.T) {
	k := NewKernel(1 * GHz)
	defer func() {
		if recover() == nil {
			t.Error("Register(42) did not panic")
		}
	}()
	k.Register(42)
}

func TestFIFOOrderingAndBackpressure(t *testing.T) {
	f := NewFIFO[int](2)
	if !f.CanPush() {
		t.Fatal("empty FIFO rejects push")
	}
	f.Push(1)
	f.Push(2)
	if f.CanPush() {
		t.Error("FIFO accepts push beyond capacity within a cycle")
	}
	if f.CanPop() {
		t.Error("staged pushes visible before commit")
	}
	f.Commit()
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2", f.Len())
	}
	if v := f.PeekAt(1); v != 2 {
		t.Errorf("PeekAt(1) = %d, want 2", v)
	}
	if v := f.Pop(); v != 1 {
		t.Errorf("Pop = %d, want 1", v)
	}
	if v := f.PeekAt(0); v != 2 {
		t.Errorf("PeekAt(0) after a pop = %d, want 2", v)
	}
	// Same-cycle pop does not free space until commit (credit delay).
	if f.CanPush() {
		t.Error("pop freed space before commit")
	}
	f.Commit()
	if !f.CanPush() {
		t.Error("space not reclaimed after commit")
	}
	f.Push(3)
	f.Commit()
	if v := f.PeekAt(1); v != 3 { // past the ring's wrap
		t.Errorf("PeekAt(1) = %d, want 3", v)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PeekAt past the committed entries did not panic")
			}
		}()
		f.PeekAt(2)
	}()
	if v := f.Pop(); v != 2 {
		t.Errorf("Pop = %d, want 2", v)
	}
	if v := f.Pop(); v != 3 {
		t.Errorf("Pop = %d, want 3", v)
	}
	if f.CanPop() {
		t.Error("FIFO not empty after draining")
	}
}

func TestFIFOFullThroughputAtCapacityTwo(t *testing.T) {
	// A capacity-2 FIFO must sustain one value/cycle with a draining reader.
	f := NewFIFO[int](2)
	pushed, popped := 0, 0
	for cycle := 0; cycle < 100; cycle++ {
		if f.CanPop() {
			f.Pop()
			popped++
		}
		if f.CanPush() {
			pushed++
			f.Push(pushed)
		}
		f.Commit()
	}
	if popped < 98 {
		t.Errorf("popped %d values in 100 cycles, want >=98", popped)
	}
}

func TestFIFOInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFIFO(0) did not panic")
		}
	}()
	NewFIFO[int](0)
}

func TestFIFOCapacityOneBackpressure(t *testing.T) {
	// A capacity-1 FIFO is the one-slot staged link between two tickers:
	// a push is invisible until commit, and a pop frees the slot only at
	// the next commit.
	f := NewFIFO[string](1)
	if !f.CanPush() || f.CanPop() {
		t.Fatal("new capacity-1 FIFO should be pushable and empty")
	}
	f.Push("a")
	if f.CanPush() {
		t.Error("CanPush true after staging")
	}
	if f.CanPop() {
		t.Error("staged value visible before commit")
	}
	f.Commit()
	if !f.CanPop() {
		t.Fatal("committed value not visible")
	}
	if f.CanPush() {
		t.Error("CanPush true while the committed value is unconsumed")
	}
	if got := f.Pop(); got != "a" {
		t.Errorf("Pop = %q, want a", got)
	}
	if f.CanPush() {
		t.Error("pop freed the slot before commit")
	}
	f.Commit()
	f.Push("b")
	f.Commit()
	if got := f.Pop(); got != "b" {
		t.Errorf("Pop = %q, want b", got)
	}
}

func TestFIFOPushWhenFullPanics(t *testing.T) {
	f := NewFIFO[int](1)
	f.Push(1)
	defer func() {
		if recover() == nil {
			t.Error("Push past capacity did not panic")
		}
	}()
	f.Push(2)
}

func TestRNGDeterminismAndFork(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	f1, f2 := NewRNG(1).Fork(), NewRNG(2).Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Error("forks of different seeds collided (suspicious)")
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	const n, buckets = 100000, 10
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for i, c := range counts {
		if c < n/buckets*8/10 || c > n/buckets*12/10 {
			t.Errorf("bucket %d count %d far from uniform %d", i, c, n/buckets)
		}
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Errorf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestRNGBool(t *testing.T) {
	r := NewRNG(9)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if frac := float64(hits) / n; frac < 0.23 || frac > 0.27 {
		t.Errorf("Bool(0.25) rate %v", frac)
	}
}

func TestKernelObserveCycleEnd(t *testing.T) {
	// Observers run after every Committer of the stepped cycle: a value
	// staged into a FIFO during Eval must already be committed (readable)
	// when the observer fires for that same cycle.
	k := NewKernel(1 * GHz)
	link := NewFIFO[int](1)
	k.Register(TickFunc(func(cycle uint64) {
		if link.CanPush() {
			link.Push(int(cycle) + 1)
		}
	}), link)

	var cycles []uint64
	var committed int
	k.ObserveCycleEnd(func(cycle uint64) {
		cycles = append(cycles, cycle)
		if v, ok := link.Peek(); ok {
			committed++
			if v != int(cycle)+1 {
				t.Errorf("observer at cycle %d saw committed value %d, want %d (Eval write not yet committed?)", cycle, v, cycle+1)
			}
			link.Pop()
		}
	})
	k.Run(3)
	if want := []uint64{0, 1, 2}; len(cycles) != 3 || cycles[0] != want[0] || cycles[2] != want[2] {
		t.Fatalf("observer cycles = %v, want %v", cycles, want)
	}
	// The observer's pop returns the FIFO's credit at the next Commit, so
	// the writer refills it every other cycle: cycles 0 and 2.
	if committed != 2 {
		t.Errorf("observer saw %d committed values, want 2", committed)
	}
}
