package sim

import (
	"testing"
	"testing/quick"
)

// TestFIFOPropertyFIFOOrder drives a FIFO with an arbitrary schedule of
// push/pop/commit operations and checks the fundamental invariants: values
// come out in insertion order, nothing is lost or duplicated, and committed
// occupancy never exceeds capacity.
func TestFIFOPropertyFIFOOrder(t *testing.T) {
	prop := func(ops []uint8, capSeed uint8) bool {
		capacity := int(capSeed%7) + 1
		f := NewFIFO[int](capacity)
		next := 0
		var popped []int
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if f.CanPush() {
					f.Push(next)
					next++
				}
			case 1:
				if f.CanPop() {
					popped = append(popped, f.Pop())
				}
			case 2:
				f.Commit()
			}
			if f.Len() > capacity {
				return false
			}
		}
		// Drain everything still inside.
		for i := 0; i < 4*capacity; i++ {
			f.Commit()
			for f.CanPop() {
				popped = append(popped, f.Pop())
			}
		}
		if len(popped) != next {
			return false
		}
		for i, v := range popped {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestEventHeapPropertyOrdering checks that events pop in (cycle, insertion)
// order for arbitrary schedules.
func TestEventHeapPropertyOrdering(t *testing.T) {
	prop := func(cycles []uint16) bool {
		var l eventList
		type tag struct {
			cycle uint64
			seq   int
		}
		fired := make([]tag, 0, len(cycles))
		for i, c := range cycles {
			c64, i := uint64(c), i
			l.push(event{cycle: c64, seq: l.nextSeq(), fn: func() {
				fired = append(fired, tag{c64, i})
			}})
		}
		for l.ready(1 << 20) {
			l.pop().fn()
		}
		if len(fired) != len(cycles) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if a.cycle > b.cycle || (a.cycle == b.cycle && a.seq > b.seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
