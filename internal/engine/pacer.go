package engine

import "github.com/panic-nic/panic/internal/packet"

// pacer paces a Source's messages onto the fabric through a token bucket:
// the MAC's RX side at line rate, the TX DMA engine at PCIe rate. The
// bucket holds one max-size frame of burst or four cycles' refills,
// whichever is more, so pacing does not starve.
type pacer struct {
	src Source
	bucket
	// waiting is the polled message the bucket cannot yet pay for, and
	// need the tokens it waits for (its bits, capped at max).
	waiting *packet.Message
	need    int64
}

func newPacer(src Source, gbps, freqHz float64) pacer {
	return pacer{src: src, bucket: newBucket(gbps*1e9, freqHz, 1538*8, 4)}
}

// pace returns the pacer, or nil without a source: Generate refills only
// with a source. The tile reaches the bucket of the engines built on one
// through it (see Tile.pace).
func (p *pacer) pace() *pacer {
	if p.src == nil {
		return nil
	}
	return p
}

// spend takes bits from the bucket if it can pay for them. A message
// bigger than the bucket goes once the bucket is full and drives it
// negative, which stalls later ones for the rest of its serialization.
// A refused spend records what the bucket must reach.
func (p *pacer) spend(bits int64) bool {
	cost := p.units(bits)
	need := min(cost, p.max)
	if p.tokens < need {
		p.need = need
		return false
	}
	p.tokens -= cost
	return true
}

// NextWork implements Generator. Between its events a pacer only refills,
// which the tile applies in bulk on wake, so a partial bucket does not
// keep it awake. With a message waiting, the next event is the cycle
// whose refill pays for it (Generate refills before it spends).
// Otherwise it is the source's next arrival; an exhausted source makes
// the pacer idle, and a source that cannot report its next arrival pins
// the pacer busy.
func (p *pacer) NextWork(now uint64) (uint64, bool) {
	if p.src == nil {
		return 0, true
	}
	if p.waiting != nil {
		return now + max(p.refills(p.need), 1) - 1, false
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
