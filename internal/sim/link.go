package sim

import "fmt"

// FIFO is a single-producer single-consumer staged bounded queue: pushes
// become visible and pops take effect only at Commit, so within a cycle the
// producer and consumer may run in either order.
//
// Backpressure is conservative, as in a hardware credit loop: CanPush counts
// committed entries plus same-cycle pushes but does not observe same-cycle
// pops (credits return one cycle later). A capacity of at least 2 therefore
// sustains one value per cycle.
//
// Storage is a fixed ring: Commit advances the head pointer instead of
// shifting the backing array, so steady-state operation moves no memory —
// queue churn is the simulator's hottest path.
type FIFO[T any] struct {
	buf     []T // ring of len cap; [head, head+n) committed, then staged
	head    int // index of the oldest committed entry
	n       int // committed entries (staged pops not yet reclaimed)
	staged  int // pushes staged this cycle, stored after the committed run
	nPopped int
	cap     int
	dirty   bool
}

// NewFIFO returns a FIFO with the given capacity. Capacity must be positive.
func NewFIFO[T any](capacity int) *FIFO[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: NewFIFO capacity %d", capacity))
	}
	return &FIFO[T]{buf: make([]T, capacity), cap: capacity}
}

// idx maps a logical offset from head to a ring index. Offsets never exceed
// cap (CanPush bounds occupancy), so one conditional subtraction suffices.
func (f *FIFO[T]) idx(off int) int {
	i := f.head + off
	if i >= f.cap {
		i -= f.cap
	}
	return i
}

// Cap returns the FIFO capacity.
func (f *FIFO[T]) Cap() int { return f.cap }

// Len returns the number of committed entries not yet popped this cycle.
func (f *FIFO[T]) Len() int { return f.n - f.nPopped }

// CanPush reports whether a push this cycle is within capacity.
func (f *FIFO[T]) CanPush() bool { return f.n+f.staged < f.cap }

// Pending returns the conservative occupancy: committed entries plus
// same-cycle pushes, NOT observing same-cycle pops (credits return one
// cycle later, like CanPush). Use it — never Len — for capacity decisions
// made during Eval by a component other than the consumer, so the answer
// does not depend on whether the consumer ticked first.
func (f *FIFO[T]) Pending() int { return f.n + f.staged }

// Push stages a value for commit. Panics when full; use CanPush.
func (f *FIFO[T]) Push(v T) {
	if !f.CanPush() {
		panic("sim: FIFO.Push on full FIFO (writer ignored CanPush)")
	}
	f.buf[f.idx(f.n+f.staged)] = v
	f.staged++
	f.dirty = true
}

// DirtyFlag returns the FIFO's dirty flag: any Push or Pop since the last
// commit raises it, and an owner committing its own FIFOs (the mesh, which
// commits only the lanes it touched) clears it after calling Commit. A
// clean FIFO's Commit is a provable no-op: nothing staged, nothing popped.
func (f *FIFO[T]) DirtyFlag() *bool { return &f.dirty }

// CanPop reports whether a committed value is available this cycle.
func (f *FIFO[T]) CanPop() bool { return f.nPopped < f.n }

// Peek returns the oldest unconsumed committed value without consuming it.
func (f *FIFO[T]) Peek() (T, bool) {
	if !f.CanPop() {
		var zero T
		return zero, false
	}
	return f.buf[f.idx(f.nPopped)], true
}

// PeekAt returns the i-th unconsumed committed value (0 = the one Peek
// returns) without consuming anything. Panics when i is out of range.
func (f *FIFO[T]) PeekAt(i int) T {
	if i < 0 || i >= f.Len() {
		panic(fmt.Sprintf("sim: FIFO.PeekAt(%d) with %d committed entries", i, f.Len()))
	}
	return f.buf[f.idx(f.nPopped+i)]
}

// Pop consumes and returns the oldest committed value. The removal is staged
// until Commit so producers see conservative occupancy. Panics when empty.
func (f *FIFO[T]) Pop() T {
	if !f.CanPop() {
		panic("sim: FIFO.Pop on empty FIFO")
	}
	v := f.buf[f.idx(f.nPopped)]
	f.nPopped++
	f.dirty = true
	return v
}

// Commit implements Committer: staged pops are reclaimed and staged pushes
// become visible.
func (f *FIFO[T]) Commit() {
	if f.nPopped > 0 {
		// Zero the reclaimed slots so popped pointers don't pin garbage.
		var zero T
		for i := 0; i < f.nPopped; i++ {
			f.buf[f.idx(i)] = zero
		}
		f.head = f.idx(f.nPopped)
		f.n -= f.nPopped
		f.nPopped = 0
	}
	f.n += f.staged
	f.staged = 0
	if f.n > f.cap {
		panic("sim: FIFO over capacity after commit")
	}
}
