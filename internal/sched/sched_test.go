package sched

import (
	"sort"
	"testing"
	"testing/quick"

	"github.com/panic-nic/panic/internal/packet"
)

func bulkMsg(id uint64) *packet.Message {
	return &packet.Message{ID: id, Class: packet.ClassBulk, Pkt: &packet.Packet{}}
}

func controlMsg(id uint64) *packet.Message {
	return &packet.Message{ID: id, Class: packet.ClassControl, Pkt: &packet.Packet{}}
}

func TestQueuePIFOOrder(t *testing.T) {
	q := NewQueue(10, Backpressure)
	q.Push(bulkMsg(1), 30)
	q.Push(bulkMsg(2), 10)
	q.Push(bulkMsg(3), 20)
	want := []uint64{2, 3, 1}
	for _, id := range want {
		m, ok := q.Pop()
		if !ok || m.ID != id {
			t.Fatalf("pop = %v ok=%v, want id %d", m, ok, id)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop on empty queue succeeded")
	}
}

func TestQueueFIFOTieBreak(t *testing.T) {
	q := NewQueue(10, Backpressure)
	for id := uint64(1); id <= 5; id++ {
		q.Push(bulkMsg(id), 7)
	}
	for id := uint64(1); id <= 5; id++ {
		m, _ := q.Pop()
		if m.ID != id {
			t.Fatalf("equal ranks not FIFO: got %d want %d", m.ID, id)
		}
	}
}

func TestQueueBackpressureRejects(t *testing.T) {
	q := NewQueue(2, Backpressure)
	q.Push(bulkMsg(1), 1)
	q.Push(bulkMsg(2), 2)
	res := q.Push(bulkMsg(3), 0)
	if res.Accepted || res.Dropped != nil {
		t.Errorf("full backpressure queue accepted push: %+v", res)
	}
	_, _, drops, rejects, hw := q.Stats()
	if drops != 0 || rejects != 1 || hw != 2 {
		t.Errorf("stats drops=%d rejects=%d hw=%d", drops, rejects, hw)
	}
}

func TestQueueLossyEvictsWorst(t *testing.T) {
	q := NewQueue(2, DropLowestPriority)
	q.Push(bulkMsg(1), 10)
	q.Push(bulkMsg(2), 50)
	// Better-ranked newcomer evicts the rank-50 occupant.
	res := q.Push(bulkMsg(3), 20)
	if !res.Accepted || res.Dropped == nil || res.Dropped.ID != 2 {
		t.Fatalf("eviction wrong: %+v", res)
	}
	// Worse-ranked newcomer is itself shed.
	res = q.Push(bulkMsg(4), 99)
	if !res.Accepted || res.Dropped == nil || res.Dropped.ID != 4 {
		t.Fatalf("tail-drop wrong: %+v", res)
	}
	m, _ := q.Pop()
	if m.ID != 1 {
		t.Errorf("head = %d, want 1", m.ID)
	}
}

func TestQueueNeverDropsLossless(t *testing.T) {
	q := NewQueue(2, DropLowestPriority)
	q.Push(controlMsg(1), 100)
	q.Push(bulkMsg(2), 1)
	// Newcomer (bulk, rank 50) beats nobody droppable except msg 2
	// (rank 1 is better). Worst droppable is msg 2? No: rank 1 < 50, so
	// the newcomer loses and is shed.
	res := q.Push(bulkMsg(3), 50)
	if res.Dropped == nil || res.Dropped.ID != 3 {
		t.Fatalf("expected newcomer shed, got %+v", res)
	}
	// A better bulk newcomer evicts the bulk occupant, never control.
	res = q.Push(bulkMsg(4), 0)
	if res.Dropped == nil || res.Dropped.ID != 2 {
		t.Fatalf("expected bulk evicted, got %+v", res)
	}
	// Queue now holds control(rank 100) and bulk(rank 0). Fill with
	// control and verify a full-lossless queue rejects lossless pushes.
	res = q.Push(controlMsg(5), 0)
	if res.Dropped == nil || res.Dropped.ID != 4 {
		t.Fatalf("expected bulk 4 evicted, got %+v", res)
	}
	res = q.Push(controlMsg(6), 0)
	if res.Accepted {
		t.Errorf("lossless push into all-lossless full queue accepted: %+v", res)
	}
	// A droppable push into an all-lossless queue is shed.
	res = q.Push(bulkMsg(7), 0)
	if !res.Accepted || res.Dropped == nil || res.Dropped.ID != 7 {
		t.Errorf("droppable push should be self-shed: %+v", res)
	}
}

func TestQueueValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewQueue(0) did not panic")
		}
	}()
	NewQueue(0, Backpressure)
}

func TestPeek(t *testing.T) {
	q := NewQueue(4, Backpressure)
	if _, ok := q.Peek(); ok {
		t.Error("peek on empty succeeded")
	}
	q.Push(bulkMsg(1), 5)
	q.Push(bulkMsg(2), 3)
	m, ok := q.Peek()
	r, _ := q.PeekRank()
	if !ok || m.ID != 2 || r != 3 {
		t.Errorf("peek = %v rank=%d", m, r)
	}
	if q.Len() != 2 {
		t.Errorf("peek consumed: len=%d", q.Len())
	}
}

func TestRankLSTF(t *testing.T) {
	// Smaller slack = earlier rank at the same arrival time; earlier
	// arrival wins for equal slack.
	m := bulkMsg(1)
	if RankLSTF(m, 10, 100) != 110 {
		t.Error("LSTF rank wrong")
	}
	if RankLSTF(m, 10, 100) >= RankLSTF(m, 50, 100) {
		t.Error("smaller slack should rank earlier")
	}
	if RankLSTF(m, 10, 100) >= RankLSTF(m, 10, 200) {
		t.Error("earlier arrival should rank earlier")
	}
}

// TestPropertyPopOrderIsSortedByRank: popping everything yields
// non-decreasing ranks, with FIFO among equals; nothing is lost.
func TestPropertyPopOrderIsSortedByRank(t *testing.T) {
	prop := func(ranks []uint16) bool {
		q := NewQueue(len(ranks)+1, Backpressure)
		for i, r := range ranks {
			q.Push(bulkMsg(uint64(i)), uint64(r))
		}
		prevRank := uint64(0)
		prevID := map[uint64]uint64{} // rank -> last ID seen
		n := 0
		for {
			m, ok := q.Pop()
			if !ok {
				break
			}
			n++
			r := uint64(ranks[m.ID])
			if r < prevRank {
				return false
			}
			if last, seen := prevID[r]; seen && m.ID < last {
				return false // FIFO violated within a rank
			}
			prevID[r] = m.ID
			prevRank = r
		}
		return n == len(ranks)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLossyQueueKeepsBestRanks: after overload, the survivors are
// exactly the best-ranked messages (stable under arrival order).
func TestPropertyLossyQueueKeepsBestRanks(t *testing.T) {
	prop := func(ranks []uint16, capSeed uint8) bool {
		if len(ranks) == 0 {
			return true
		}
		capacity := 1 + int(capSeed%8)
		q := NewQueue(capacity, DropLowestPriority)
		for i, r := range ranks {
			q.Push(bulkMsg(uint64(i)), uint64(r))
		}
		var got []uint64
		for {
			m, ok := q.Pop()
			if !ok {
				break
			}
			got = append(got, uint64(ranks[m.ID]))
		}
		sorted := make([]uint64, len(ranks))
		for i, r := range ranks {
			sorted[i] = uint64(r)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		keep := len(sorted)
		if keep > capacity {
			keep = capacity
		}
		if len(got) != keep {
			return false
		}
		for i := range got {
			if got[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLosslessNeverDropped: under arbitrary mixed overload, no
// control-class message is ever in a Dropped result, and all accepted
// control messages eventually pop.
func TestPropertyLosslessNeverDropped(t *testing.T) {
	prop := func(ops []uint16, capSeed uint8) bool {
		capacity := 1 + int(capSeed%6)
		q := NewQueue(capacity, DropLowestPriority)
		acceptedControl := map[uint64]bool{}
		id := uint64(0)
		for _, op := range ops {
			id++
			rank := uint64(op >> 2)
			if op&1 == 0 {
				res := q.Push(bulkMsg(id), rank)
				if res.Dropped != nil && res.Dropped.Class == packet.ClassControl {
					return false
				}
			} else {
				res := q.Push(controlMsg(id), rank)
				if res.Dropped != nil && res.Dropped.Class == packet.ClassControl {
					return false
				}
				if res.Accepted && res.Dropped == nil || (res.Accepted && res.Dropped != nil && res.Dropped.ID != id) {
					acceptedControl[id] = true
				}
			}
			if op&2 == 2 {
				if m, ok := q.Pop(); ok {
					delete(acceptedControl, m.ID)
				}
			}
		}
		for {
			m, ok := q.Pop()
			if !ok {
				break
			}
			delete(acceptedControl, m.ID)
		}
		return len(acceptedControl) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQueueWarmAllocs: once the entry slice has grown to its working depth,
// neither the served path (a push at an ever-later rank, then a pop) nor a
// winning push into a full DropLowestPriority queue (evict the worst entry,
// insert the newcomer) allocates.
func TestQueueWarmAllocs(t *testing.T) {
	msg := bulkMsg(1)
	q := NewQueue(256, Backpressure)
	for i := 0; i < 128; i++ {
		q.Push(msg, uint64(i))
	}
	rank := uint64(128)
	rotate := func() {
		q.Push(msg, rank)
		rank++
		if _, ok := q.Pop(); !ok {
			t.Fatal("queue drained")
		}
	}
	if allocs := testing.AllocsPerRun(1000, rotate); allocs != 0 {
		t.Errorf("warm Push+Pop allocates %v times per run, want 0", allocs)
	}

	lossy := NewQueue(256, DropLowestPriority)
	for i := 0; i < 256; i++ {
		lossy.Push(bulkMsg(uint64(i)), uint64(1<<20+i))
	}
	rank = 1 << 20
	evict := func() {
		rank--
		evicted := lossy.Evicted()
		if res := lossy.Push(msg, rank); !res.Accepted || lossy.Evicted() != evicted+1 {
			t.Fatalf("push at rank %d did not evict a resident: %+v", rank, res)
		}
	}
	if allocs := testing.AllocsPerRun(1000, evict); allocs != 0 {
		t.Errorf("warm winning push into a full lossy queue allocates %v times per run, want 0", allocs)
	}
}
