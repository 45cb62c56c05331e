package engine

import "math"

// bucket is a token bucket in exact integer arithmetic, the one behind the
// pacer and the rate limiter. Tokens count in units of 1/FreqHz bit, so a
// cycle's refill, rate, is the rate in bits per second and every sum is
// exact: n refills applied at once leave what n single refills leave. The
// rate in bits per second and FreqHz are rounded to whole numbers, at
// least 1, once at construction; half a bit per second is far below any
// rate or clock this simulator models.
type bucket struct {
	tokens, max int64
	rate        int64 // tokens per cycle: bits per second
	unit        int64 // tokens per bit: FreqHz
	// fill is the most refills that add without overflowing; more fill
	// the bucket from any level a message can drive it to.
	fill uint64
}

// newBucket returns an empty bucket refilling at bitsPerSec on a freqHz
// clock and holding burstBits or burstCycles of refills, whichever is
// more.
func newBucket(bitsPerSec, freqHz float64, burstBits, burstCycles int64) bucket {
	b := bucket{rate: whole(bitsPerSec), unit: whole(freqHz)}
	b.max = max(burstBits*b.unit, burstCycles*b.rate)
	b.fill = uint64((math.MaxInt64 - b.max) / b.rate)
	return b
}

// whole rounds x to the nearest whole number, at least 1.
func whole(x float64) int64 { return int64(max(1, math.Round(x))) }

// units converts bits to tokens.
func (b *bucket) units(bits int64) int64 { return bits * b.unit }

// refill adds n cycles' tokens, clamped at max.
func (b *bucket) refill(n uint64) {
	if n > b.fill {
		b.tokens = b.max
		return
	}
	b.tokens = min(b.tokens+int64(n)*b.rate, b.max)
}

// refills returns how many refills leave the bucket holding need tokens,
// 0 if it holds them already. need must not exceed max.
func (b *bucket) refills(need int64) uint64 {
	if b.tokens >= need {
		return 0
	}
	return uint64((need - b.tokens + b.rate - 1) / b.rate)
}
