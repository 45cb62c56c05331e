package engine

import (
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
)

// StagedSink decouples a producing tile from a shared Sink so the target
// never observes same-cycle deliveries in tick order: Deliver calls made
// during Eval are buffered privately and flushed to the wrapped target
// during the kernel's Commit phase.
//
// Determinism: give each producing tile its OWN StagedSink and register it
// with the kernel immediately after that tile. Commit runs in registration
// order, so the shared target observes deliveries in exactly the order a
// sequential kernel would have produced them — the flush order IS the tick
// order. Two tiles sharing one StagedSink would interleave in tick order;
// two StagedSinks registered out of tile order would reorder deliveries.
//
// Timestamps pass through untouched: a producer delivering with a future
// timestamp (e.g. DMA host-latency completions) reaches the target with
// that same timestamp.
type StagedSink struct {
	target Sink
	buf    []stagedDelivery
	wake   sim.Poker
}

type stagedDelivery struct {
	msg *packet.Message
	now uint64
}

// NewStagedSink wraps target. The caller must register the result with the
// kernel (it implements sim.Committer) adjacent to its producing tile.
func NewStagedSink(target Sink) *StagedSink {
	return &StagedSink{target: target, buf: make([]stagedDelivery, 0, 8)}
}

// SetWaker wires the poker of the tile whose engine the wrapped target
// feeds. Flushing a delivery at Commit mutates that engine's input after
// its EndCycle already ran, so without the poke a sleeping consumer would
// miss the work; Commit fires it whenever anything flushed.
func (s *StagedSink) SetWaker(p sim.Poker) { s.wake = p }

// Deliver implements Sink: the delivery is buffered until Commit.
func (s *StagedSink) Deliver(msg *packet.Message, now uint64) {
	msg.AssertLive()
	s.buf = append(s.buf, stagedDelivery{msg: msg, now: now})
}

// Commit implements sim.Committer: buffered deliveries reach the target in
// arrival order.
func (s *StagedSink) Commit() {
	if len(s.buf) == 0 {
		return
	}
	s.wake.Poke()
	for i := range s.buf {
		s.buf[i].msg.AssertLive()
		s.target.Deliver(s.buf[i].msg, s.buf[i].now)
		s.buf[i].msg = nil
	}
	s.buf = s.buf[:0]
}
