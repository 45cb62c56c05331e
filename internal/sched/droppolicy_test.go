package sched

import (
	"math/rand"
	"testing"

	"github.com/panic-nic/panic/internal/packet"
)

// These tests pin down the exact Push/Pop/eviction semantics of Queue —
// worstDroppable tie-breaks, push-into-full behaviour under each Policy,
// and FIFO ordering among equal ranks — so the priority-queue
// implementation behind Queue can be replaced without shifting a single
// decision.

// TestWorstDroppableTieBreakYoungest: among equal worst ranks the youngest
// occupant (largest seq) is the eviction victim, so older traffic survives.
func TestWorstDroppableTieBreakYoungest(t *testing.T) {
	q := NewQueue(3, DropLowestPriority)
	q.Push(bulkMsg(1), 5)
	q.Push(bulkMsg(2), 5)
	q.Push(bulkMsg(3), 5)
	// A lossless newcomer at the same rank does not lose the tie; it
	// evicts the worst droppable, which among the three rank-5 occupants
	// is the youngest arrival (ID 3).
	res := q.Push(controlMsg(4), 5)
	if !res.Accepted || res.Dropped == nil || res.Dropped.ID != 3 {
		t.Fatalf("tie eviction = %+v, want youngest occupant (3) dropped", res)
	}
	// Survivors pop oldest-first within the equal rank.
	for _, want := range []uint64{1, 2, 4} {
		m, ok := q.Pop()
		if !ok || m.ID != want {
			t.Fatalf("pop = %v ok=%v, want id %d", m, ok, want)
		}
	}
}

// TestWorstDroppableSkipsLossless: the victim search never lands on a
// lossless occupant even when it holds the worst rank.
func TestWorstDroppableSkipsLossless(t *testing.T) {
	q := NewQueue(3, DropLowestPriority)
	q.Push(controlMsg(1), 900) // worst rank, but lossless
	q.Push(bulkMsg(2), 100)
	q.Push(bulkMsg(3), 200)
	res := q.Push(bulkMsg(4), 50)
	if !res.Accepted || res.Dropped == nil || res.Dropped.ID != 3 {
		t.Fatalf("eviction = %+v, want droppable worst (3), never control (1)", res)
	}
}

// TestPushIntoFullPerPolicy enumerates every push-into-full case.
func TestPushIntoFullPerPolicy(t *testing.T) {
	t.Run("backpressure-rejects-even-better-rank", func(t *testing.T) {
		q := NewQueue(2, Backpressure)
		q.Push(bulkMsg(1), 10)
		q.Push(bulkMsg(2), 20)
		res := q.Push(bulkMsg(3), 1) // better than everything present
		if res.Accepted || res.Dropped != nil {
			t.Fatalf("backpressure accepted into full queue: %+v", res)
		}
		res = q.Push(controlMsg(4), 1) // lossless gets no special pass
		if res.Accepted || res.Dropped != nil {
			t.Fatalf("backpressure accepted lossless into full queue: %+v", res)
		}
		if _, _, drops, rejects, _ := q.Stats(); drops != 0 || rejects != 2 {
			t.Fatalf("stats drops=%d rejects=%d, want 0/2", drops, rejects)
		}
	})
	t.Run("lossy-better-rank-evicts", func(t *testing.T) {
		q := NewQueue(2, DropLowestPriority)
		q.Push(bulkMsg(1), 10)
		q.Push(bulkMsg(2), 20)
		res := q.Push(bulkMsg(3), 15)
		if !res.Accepted || res.Dropped == nil || res.Dropped.ID != 2 {
			t.Fatalf("better-ranked newcomer: %+v, want 2 evicted", res)
		}
	})
	t.Run("lossy-equal-rank-droppable-newcomer-sheds-itself", func(t *testing.T) {
		q := NewQueue(2, DropLowestPriority)
		q.Push(bulkMsg(1), 10)
		q.Push(bulkMsg(2), 20)
		res := q.Push(bulkMsg(3), 20) // ties the worst occupant
		if !res.Accepted || res.Dropped == nil || res.Dropped.ID != 3 {
			t.Fatalf("equal-rank newcomer should lose the tie: %+v", res)
		}
	})
	t.Run("lossy-equal-rank-lossless-newcomer-wins", func(t *testing.T) {
		q := NewQueue(2, DropLowestPriority)
		q.Push(bulkMsg(1), 10)
		q.Push(bulkMsg(2), 20)
		res := q.Push(controlMsg(3), 20) // lossless wins the tie
		if !res.Accepted || res.Dropped == nil || res.Dropped.ID != 2 {
			t.Fatalf("lossless tie newcomer should evict occupant: %+v", res)
		}
	})
	t.Run("lossy-worse-rank-newcomer-sheds-itself", func(t *testing.T) {
		q := NewQueue(2, DropLowestPriority)
		q.Push(bulkMsg(1), 10)
		q.Push(bulkMsg(2), 20)
		res := q.Push(bulkMsg(3), 99)
		if !res.Accepted || res.Dropped == nil || res.Dropped.ID != 3 {
			t.Fatalf("worse-ranked newcomer should be shed: %+v", res)
		}
	})
	t.Run("lossy-all-lossless-occupants", func(t *testing.T) {
		q := NewQueue(2, DropLowestPriority)
		q.Push(controlMsg(1), 10)
		q.Push(controlMsg(2), 20)
		// A lossless push into an all-lossless full queue is refused (the
		// caller must stall); a droppable one is shed regardless of rank.
		res := q.Push(controlMsg(3), 1)
		if res.Accepted || res.Dropped != nil {
			t.Fatalf("lossless push into all-lossless full queue: %+v", res)
		}
		res = q.Push(bulkMsg(4), 1)
		if !res.Accepted || res.Dropped == nil || res.Dropped.ID != 4 {
			t.Fatalf("droppable push into all-lossless full queue: %+v", res)
		}
	})
}

// TestRankEqualFIFOSurvivesEviction: arrival order among equal ranks is
// preserved even after an eviction reshuffles the queue internals.
func TestRankEqualFIFOSurvivesEviction(t *testing.T) {
	q := NewQueue(4, DropLowestPriority)
	q.Push(bulkMsg(1), 7)
	q.Push(bulkMsg(2), 7)
	q.Push(bulkMsg(3), 99) // the victim
	q.Push(bulkMsg(4), 7)
	res := q.Push(bulkMsg(5), 7)
	if res.Dropped == nil || res.Dropped.ID != 3 {
		t.Fatalf("eviction = %+v, want 3", res)
	}
	for _, want := range []uint64{1, 2, 4, 5} {
		m, ok := q.Pop()
		if !ok || m.ID != want {
			t.Fatalf("pop = %v ok=%v, want id %d (FIFO among equal ranks)", m, ok, want)
		}
	}
}

// refQueue is an independent executable model of the Queue specification:
// a stable sorted list ordered by (rank, arrival). Used as the oracle in
// the differential test.
type refQueue struct {
	entries []refEntry
	cap     int
	policy  Policy
	seq     uint64
}

type refEntry struct {
	msg  *packet.Message
	rank uint64
	seq  uint64
}

func (r *refQueue) push(msg *packet.Message, rank uint64) PushResult {
	if len(r.entries) < r.cap {
		r.seq++
		r.entries = append(r.entries, refEntry{msg, rank, r.seq})
		return PushResult{Accepted: true}
	}
	if r.policy == Backpressure {
		return PushResult{}
	}
	worst := -1
	for i, e := range r.entries {
		if e.msg.Lossless() {
			continue
		}
		if worst < 0 || e.rank > r.entries[worst].rank ||
			(e.rank == r.entries[worst].rank && e.seq > r.entries[worst].seq) {
			worst = i
		}
	}
	if worst < 0 {
		if msg.Lossless() {
			return PushResult{}
		}
		return PushResult{Accepted: true, Dropped: msg}
	}
	w := r.entries[worst]
	if (rank > w.rank || (rank == w.rank && !msg.Lossless())) && !msg.Lossless() {
		return PushResult{Accepted: true, Dropped: msg}
	}
	r.entries = append(r.entries[:worst], r.entries[worst+1:]...)
	r.seq++
	r.entries = append(r.entries, refEntry{msg, rank, r.seq})
	return PushResult{Accepted: true, Dropped: w.msg}
}

func (r *refQueue) pop() (*packet.Message, bool) {
	if len(r.entries) == 0 {
		return nil, false
	}
	best := 0
	for i, e := range r.entries {
		if e.rank < r.entries[best].rank ||
			(e.rank == r.entries[best].rank && e.seq < r.entries[best].seq) {
			best = i
		}
	}
	m := r.entries[best].msg
	r.entries = append(r.entries[:best], r.entries[best+1:]...)
	return m, true
}

func (r *refQueue) peekRank() (uint64, bool) {
	if len(r.entries) == 0 {
		return 0, false
	}
	best := r.entries[0]
	for _, e := range r.entries[1:] {
		if e.rank < best.rank || (e.rank == best.rank && e.seq < best.seq) {
			best = e
		}
	}
	return best.rank, true
}

// TestQueueDifferentialVsReference drives Queue and the reference model
// with the same randomized operation stream — including the extreme rank
// spreads real rankers produce (wLSTF's exhausted penalty 1<<20, strict
// priority's level<<48) — and demands identical decisions throughout.
// Capacities span 1–16, where overflow is constant, and the 64–256 depths
// the shipped configurations use, where inserts and evictions shift long
// runs of entries.
func TestQueueDifferentialVsReference(t *testing.T) {
	for _, policy := range []Policy{Backpressure, DropLowestPriority} {
		for seed := int64(0); seed < 26; seed++ {
			rng := rand.New(rand.NewSource(seed))
			capacity := 1 + rng.Intn(16)
			if seed >= 20 { // the shipped depths, each twice
				capacity = []int{64, 128, 256}[seed%3]
			}
			q := NewQueue(capacity, policy)
			ref := &refQueue{cap: capacity, policy: policy}
			id := uint64(0)
			for op := 0; op < 2000; op++ {
				if rng.Intn(3) < 2 { // push-biased to exercise overflow
					id++
					var msg *packet.Message
					if rng.Intn(4) == 0 {
						msg = controlMsg(id)
					} else {
						msg = bulkMsg(id)
					}
					rank := uint64(rng.Intn(32))
					switch rng.Intn(3) {
					case 1:
						rank += 1 << 20 // wLSTF exhausted-tenant penalty band
					case 2:
						rank |= uint64(rng.Intn(3)) << 48 // strict-priority bands
					}
					got := q.Push(msg, rank)
					want := ref.push(msg, rank)
					if got.Accepted != want.Accepted ||
						(got.Dropped == nil) != (want.Dropped == nil) ||
						(got.Dropped != nil && got.Dropped.ID != want.Dropped.ID) {
						t.Fatalf("policy=%v seed=%d op=%d: Push(%d, %d) = %+v, reference %+v",
							policy, seed, op, msg.ID, rank, got, want)
					}
				} else {
					gm, gok := q.Pop()
					wm, wok := ref.pop()
					if gok != wok || (gok && gm.ID != wm.ID) {
						t.Fatalf("policy=%v seed=%d op=%d: Pop() = %v/%v, reference %v/%v",
							policy, seed, op, gm, gok, wm, wok)
					}
				}
				gr, gok := q.PeekRank()
				wr, wok := ref.peekRank()
				if gok != wok || gr != wr {
					t.Fatalf("policy=%v seed=%d op=%d: PeekRank() = %d/%v, reference %d/%v",
						policy, seed, op, gr, gok, wr, wok)
				}
				if q.Len() != len(ref.entries) {
					t.Fatalf("policy=%v seed=%d op=%d: Len() = %d, reference %d",
						policy, seed, op, q.Len(), len(ref.entries))
				}
				if err := q.Audit(); err != nil {
					t.Fatalf("policy=%v seed=%d op=%d: %v", policy, seed, op, err)
				}
			}
		}
	}
}
