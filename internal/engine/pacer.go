package engine

import (
	"math"

	"github.com/panic-nic/panic/internal/packet"
)

// pacer paces a Source's messages onto the fabric through a token bucket
// of bits: the MAC's RX side at line rate, the TX DMA engine at PCIe
// rate. The bucket gains perCycle bits each cycle up to maxTokens, one
// max-size frame of burst or four cycles' worth, whichever is larger, so
// pacing does not starve.
type pacer struct {
	src       Source
	perCycle  float64
	tokens    float64
	maxTokens float64
	// waiting is the polled message the bucket cannot yet pay for, and
	// need the tokens it waits for (its bits, capped at maxTokens).
	waiting *packet.Message
	need    float64
}

func newPacer(src Source, gbps, freqHz float64) pacer {
	bpc := gbps * 1e9 / freqHz
	return pacer{src: src, perCycle: bpc, maxTokens: math.Max(bpc*4, 1538*8)}
}

// pace returns the pacer; the tile reaches the bucket of the engines
// built on one through it (see Tile.pace).
func (p *pacer) pace() *pacer { return p }

// refill adds one cycle's tokens, clamped at maxTokens.
func (p *pacer) refill() {
	p.tokens += p.perCycle
	if p.tokens > p.maxTokens {
		p.tokens = p.maxTokens
	}
}

// replay applies the refills of n cycles the generator slept through, one
// addition at a time so the float sum is the one per-cycle Generate calls
// make, and stops at the clamp, where further refills change nothing.
// Generate refills only with a source, so replay does too.
func (p *pacer) replay(n uint64) {
	if p.src == nil {
		return
	}
	for ; n > 0 && p.tokens < p.maxTokens; n-- {
		p.refill()
	}
}

// spend takes bits from the bucket if it can pay for them. A message
// bigger than the bucket goes once the bucket is full and drives it
// negative, which stalls later ones for the rest of its serialization.
// A refused spend records what the bucket must reach.
func (p *pacer) spend(bits float64) bool {
	need := bits
	if need > p.maxTokens {
		need = p.maxTokens
	}
	if p.tokens < need {
		p.need = need
		return false
	}
	p.tokens -= bits
	return true
}

// NextWork implements Generator. Between its events a pacer only refills,
// which the tile replays on wake (see replay), so a partial bucket does
// not keep it awake. With a message waiting, the next event is the first
// cycle whose refill pays for it. Otherwise it is the source's next
// arrival; an exhausted source makes the pacer idle, and a source that
// cannot report its next arrival pins the pacer busy.
func (p *pacer) NextWork(now uint64) (uint64, bool) {
	if p.src == nil {
		return 0, true
	}
	if p.waiting != nil {
		return p.payable(now), false
	}
	if as, ok := p.src.(ArrivalSource); ok {
		a, ok := as.NextArrival(now)
		if !ok {
			return 0, true
		}
		if a <= now {
			return now, false
		}
		return a, false
	}
	return now, false
}

// payable returns the first cycle from now on whose refill lets the bucket
// pay for the waiting message, found by making the refills Generate would
// make on a copy of the bucket. need never exceeds maxTokens, so the
// bucket pays at the latest when it reaches the clamp, within
// (maxTokens-tokens)/perCycle refills; the search allows two more for
// rounding and, should a rate too small to move the float sum exhaust
// them, reports now, which keeps the tile awake.
func (p *pacer) payable(now uint64) uint64 {
	tokens := p.tokens
	limit := math.Ceil((p.maxTokens-tokens)/p.perCycle) + 2
	for i := 0.0; i < limit; i++ {
		tokens += p.perCycle
		if tokens > p.maxTokens {
			tokens = p.maxTokens
		}
		if tokens >= p.need {
			return now + uint64(i)
		}
	}
	return now
}
