// Package sched implements PANIC's logical scheduler (§3.1.3): the
// per-engine priority queues that order competing messages by the slack
// values the heavyweight RMT pipeline computed and stamped into the chain
// header.
//
// Each queue is a PIFO (push-in-first-out) priority queue: an arriving
// message is inserted at the position given by its rank and the head is
// always the minimum rank, which is sufficient to express arbitrary
// scheduling algorithms (the paper cites Universal Packet Scheduling and
// the PIFO line of work). Rank = arrival + slack implements
// least-slack-time-first; rank = arrival implements FIFO; and LSTF with a
// near-unbounded slack for bulk traffic serves it at strict low priority.
// The queue is one slice kept sorted
// worst-first, so the head is the tail: pop is O(1) and push is a binary
// search plus a memmove over at most the queue's capacity (64–256 entries
// in every shipped configuration).
//
// Admission is a policy decision the paper leaves open (§6): Backpressure
// never drops (the queue fills and the fabric stalls — lossless), while
// DropLowestPriority sheds the worst-ranked droppable message on overflow,
// never dropping messages marked lossless (descriptor DMA and other
// control traffic).
//
// Scheduling decisions are observable through internal/trace: the owning
// tile records the rank and queue depth at every accepted push (enqueue
// spans), the depth and slack at every pop (queue-wait spans), and each
// overflow eviction (drop spans), so a trace shows exactly how the PIFO
// ordered competing messages.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"github.com/panic-nic/panic/internal/packet"
)

// Policy is a queue's overflow behaviour.
type Policy int

// Policies.
const (
	// Backpressure rejects pushes when full; the caller must stall
	// (lossless forwarding).
	Backpressure Policy = iota
	// DropLowestPriority accepts the push if the incoming message ranks
	// better than the worst droppable occupant, which is then dropped.
	// Messages for which Lossless() is true are never dropped.
	DropLowestPriority
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Backpressure:
		return "backpressure"
	case DropLowestPriority:
		return "drop-lowest-priority"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// PushResult reports what a Push did.
type PushResult struct {
	// Accepted is false when the message was refused (Backpressure and
	// full, or lossy and it ranked worse than everything present).
	Accepted bool
	// Dropped is the message evicted to make room, if any.
	Dropped *packet.Message
}

// Queue is one engine's scheduling queue. Entries live in one slice sorted
// worst-first by (rank, seq): the best-ranked, oldest entry is the last
// element, so Peek and Pop read the tail, and the lossy policy's eviction
// victim is the first droppable entry from the front.
type Queue struct {
	entries []entry // sorted by (rank, seq) descending
	cap     int
	policy  Policy
	seq     uint64

	// Stats. evicted counts resident messages removed by lossy overflow
	// (the Dropped result of a winning push); self-drops shed before
	// insertion count only in drops. Len == pushed − popped − evicted is
	// the queue's conservation invariant (see Audit).
	pushed, popped, drops, rejects uint64
	evicted                        uint64
	highWater                      int
}

// NewQueue builds a queue with the given capacity and overflow policy.
// The entry slice grows by append rather than being sized to capacity
// up front: capacities can come from untrusted scenario files.
func NewQueue(capacity int, policy Policy) *Queue {
	if capacity < 1 {
		panic(fmt.Sprintf("sched: queue capacity %d", capacity))
	}
	return &Queue{cap: capacity, policy: policy}
}

// Len returns the current occupancy.
func (q *Queue) Len() int { return len(q.entries) }

// Cap returns the capacity.
func (q *Queue) Cap() int { return q.cap }

// Full reports whether the queue is at capacity.
func (q *Queue) Full() bool { return len(q.entries) >= q.cap }

// Push inserts a message with the given rank (lower = served sooner).
// Equal ranks are served in arrival order.
func (q *Queue) Push(msg *packet.Message, rank uint64) PushResult {
	if !q.Full() {
		q.insert(msg, rank)
		if n := len(q.entries); n > q.highWater {
			q.highWater = n
		}
		return PushResult{Accepted: true}
	}
	if q.policy == Backpressure {
		q.rejects++
		return PushResult{}
	}
	// Lossy: evict the worst droppable occupant if the newcomer beats it.
	i := q.worstDroppable()
	if i < 0 {
		// Everything resident is lossless; the newcomer itself is shed
		// unless it is lossless too, in which case the push is refused
		// and the caller must stall.
		if msg.Lossless() {
			q.rejects++
			return PushResult{}
		}
		q.drops++
		return PushResult{Accepted: true, Dropped: msg}
	}
	w := q.entries[i]
	newcomerLoses := rank > w.rank || (rank == w.rank && !msg.Lossless())
	if newcomerLoses && !msg.Lossless() {
		q.drops++
		return PushResult{Accepted: true, Dropped: msg}
	}
	q.entries = slices.Delete(q.entries, i, i+1)
	q.insert(msg, rank)
	q.drops++
	q.evicted++
	return PushResult{Accepted: true, Dropped: w.msg}
}

// insert places a new entry at its sorted position. Its seq is the largest
// present, so it sorts after every entry of a higher rank and before every
// entry of an equal or lower rank.
func (q *Queue) insert(msg *packet.Message, rank uint64) {
	q.seq++
	i := sort.Search(len(q.entries), func(i int) bool { return q.entries[i].rank <= rank })
	q.entries = slices.Insert(q.entries, i, entry{msg: msg, rank: rank, seq: q.seq})
	q.pushed++
}

// worstDroppable returns the index of the entry the lossy overflow policy
// evicts — the worst-ranked droppable entry, ties to the youngest — or -1
// when every resident message is lossless. The slice is sorted worst-first,
// so that is the first entry that is not lossless.
func (q *Queue) worstDroppable() int {
	for i, e := range q.entries {
		if !e.msg.Lossless() {
			return i
		}
	}
	return -1
}

// Peek returns the best-ranked message without removing it.
func (q *Queue) Peek() (*packet.Message, bool) {
	if len(q.entries) == 0 {
		return nil, false
	}
	return q.entries[len(q.entries)-1].msg, true
}

// PeekRank returns the best rank present.
func (q *Queue) PeekRank() (uint64, bool) {
	if len(q.entries) == 0 {
		return 0, false
	}
	return q.entries[len(q.entries)-1].rank, true
}

// Pop removes and returns the best-ranked message.
func (q *Queue) Pop() (*packet.Message, bool) {
	n := len(q.entries)
	if n == 0 {
		return nil, false
	}
	msg := q.entries[n-1].msg
	q.entries[n-1] = entry{} // drop the message reference
	q.entries = q.entries[:n-1]
	q.popped++
	return msg, true
}

// Stats returns (pushed, popped, dropped, rejected, high-water mark).
func (q *Queue) Stats() (pushed, popped, drops, rejects uint64, highWater int) {
	return q.pushed, q.popped, q.drops, q.rejects, q.highWater
}

// Evicted returns how many resident messages lossy overflow removed.
func (q *Queue) Evicted() uint64 { return q.evicted }

// Each visits every resident message with its rank, in unspecified order.
// It exists for occupancy audits (per-tenant conservation); scheduling
// order comes only from Pop.
func (q *Queue) Each(fn func(msg *packet.Message, rank uint64)) {
	for _, e := range q.entries {
		fn(e.msg, e.rank)
	}
}

// Audit checks the queue's internal conservation and bound invariants:
// occupancy equals pushed − popped − evicted, occupancy and the high-water
// mark never exceed capacity, and the entries are in scheduling order. It
// returns the first violation found.
func (q *Queue) Audit() error {
	n := uint64(len(q.entries))
	if want := q.pushed - q.popped - q.evicted; n != want {
		return fmt.Errorf("sched: occupancy %d != pushed %d - popped %d - evicted %d",
			n, q.pushed, q.popped, q.evicted)
	}
	if n > uint64(q.cap) {
		return fmt.Errorf("sched: occupancy %d exceeds capacity %d", n, q.cap)
	}
	if q.highWater > q.cap {
		return fmt.Errorf("sched: high-water %d exceeds capacity %d", q.highWater, q.cap)
	}
	// Scheduling order is the slice order: a misplaced entry would
	// silently serve messages out of (rank, seq) order.
	for i := 1; i < len(q.entries); i++ {
		if a, b := q.entries[i-1], q.entries[i]; a.rank < b.rank || (a.rank == b.rank && a.seq < b.seq) {
			return fmt.Errorf("sched: entry %d (rank %d, seq %d) sorts after entry %d (rank %d, seq %d)",
				i-1, a.rank, a.seq, i, b.rank, b.seq)
		}
	}
	return nil
}

type entry struct {
	msg  *packet.Message
	rank uint64
	seq  uint64
}
