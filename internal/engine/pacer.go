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
	// waiting is the polled message the bucket cannot yet pay for.
	waiting *packet.Message
}

func newPacer(src Source, gbps, freqHz float64) pacer {
	bpc := gbps * 1e9 / freqHz
	return pacer{src: src, perCycle: bpc, maxTokens: math.Max(bpc*4, 1538*8)}
}

// refill adds one cycle's tokens, clamped at maxTokens.
func (p *pacer) refill() {
	p.tokens += p.perCycle
	if p.tokens > p.maxTokens {
		p.tokens = p.maxTokens
	}
}

// spend takes bits from the bucket if it can pay for them. A message
// bigger than the bucket goes once the bucket is full and drives it
// negative, which stalls later ones for the rest of its serialization.
func (p *pacer) spend(bits float64) bool {
	need := bits
	if need > p.maxTokens {
		need = p.maxTokens
	}
	if p.tokens < need {
		return false
	}
	p.tokens -= bits
	return true
}

// NextWork implements Generator. The pacer is quiescent only when every
// Generate call would provably change nothing: no message mid-pacing, the
// bucket saturated at its clamp (a refill below the clamp mutates tokens,
// so partial buckets veto the skip), and the source either exhausted or
// not due until a known future cycle. A source that cannot report its
// next arrival pins the pacer busy.
func (p *pacer) NextWork(now uint64) (uint64, bool) {
	if p.src == nil {
		return 0, true
	}
	if p.waiting != nil || p.tokens < p.maxTokens {
		return now, false
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
