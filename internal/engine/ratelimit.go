package engine

import (
	"fmt"
	"math"

	"github.com/panic-nic/panic/internal/packet"
)

// rateLimitBurstBytes is each tenant's token-bucket depth.
const rateLimitBurstBytes = 16 * 1024

// RateLimiterEngine enforces per-tenant token-bucket rate limits on the
// NIC — the SENIC row of the paper's Table 1 ("Infrastructure, Inline,
// Network"). Conforming messages continue along their chain immediately;
// non-conforming messages are held in the engine (head-of-line within the
// tenant) until their tokens accumulate, which is exactly the kind of
// variable-service-time behaviour PANIC's self-contained engines permit
// and RMT pipelines cannot host.
type RateLimiterEngine struct {
	freqHz float64
	limits map[uint16]*limit
	outs   outBuf

	conformed, delayed uint64
}

// limit is a tenant's bucket and the cycle it was last refilled to.
type limit struct {
	bucket
	last uint64
}

// NewRateLimiterEngine builds the engine for a NIC clocked at freqHz.
func NewRateLimiterEngine(freqHz float64) *RateLimiterEngine {
	requirePositive("rate limiter clock freq Hz", freqHz)
	return &RateLimiterEngine{freqHz: freqHz, limits: make(map[uint16]*limit)}
}

// SetLimit installs a tenant's rate limit in Gbps with a full bucket (0
// removes it).
func (e *RateLimiterEngine) SetLimit(tenant uint16, gbps float64) {
	if math.IsNaN(gbps) || math.IsInf(gbps, 0) {
		panic(fmt.Sprintf("engine: rate limit %v Gbps for tenant %d", gbps, tenant))
	}
	if gbps <= 0 {
		delete(e.limits, tenant)
		return
	}
	l := &limit{bucket: newBucket(gbps*1e9, e.freqHz, rateLimitBurstBytes*8, 0)}
	l.tokens = l.max
	e.limits[tenant] = l
}

// Name implements Engine.
func (e *RateLimiterEngine) Name() string { return "ratelimit" }

// limitAt returns the tenant's limit refilled through now, nil if the
// tenant is unlimited.
func (e *RateLimiterEngine) limitAt(tenant uint16, now uint64) *limit {
	l := e.limits[tenant]
	if l != nil && now > l.last {
		l.refill(now - l.last)
		l.last = now
	}
	return l
}

// quote classifies a message against its tenant's limit l (nil for
// none). A conforming message, one the bucket covers, passes in one
// cycle; any other waits 1 + ⌊(bits−tokens)/rate⌋ cycles, until the
// bucket holds more than its bits.
func quote(l *limit, msg *packet.Message) (svc uint64, conforming bool) {
	if l == nil {
		return 1, true
	}
	short := l.units(int64(msg.WireLen()*8)) - l.tokens
	if short <= 0 {
		return 1, true
	}
	return 1 + uint64(short/l.rate), false
}

// ServiceCycles implements Engine with the bucket's last-known state; the
// tile uses the precise ServiceCyclesAt instead.
func (e *RateLimiterEngine) ServiceCycles(msg *packet.Message) uint64 {
	svc, _ := quote(e.limits[msg.Tenant], msg)
	return svc
}

// ServiceCyclesAt implements TimedEngine: refill the tenant's bucket,
// classify, and quote the shaping delay. A non-conforming message
// occupies the engine until its tokens accumulate (one shaping queue;
// per-tenant fan-out would use one engine instance per shaping class).
func (e *RateLimiterEngine) ServiceCyclesAt(ctx *Ctx, msg *packet.Message) uint64 {
	svc, conforming := quote(e.limitAt(msg.Tenant, ctx.Now), msg)
	if conforming {
		e.conformed++
	} else {
		e.delayed++
	}
	return svc
}

// Process implements Engine: charge the bucket (refilled to the end of
// the shaping wait, so the accrued tokens cover the shortfall) and
// forward. A message bigger than the burst empties the bucket.
func (e *RateLimiterEngine) Process(ctx *Ctx, msg *packet.Message) []Out {
	if l := e.limitAt(msg.Tenant, ctx.Now); l != nil {
		l.tokens = max(0, l.tokens-l.units(int64(msg.WireLen()*8)))
	}
	return e.outs.one(Out{Msg: msg})
}

// Counts returns (messages passed immediately, messages delayed).
func (e *RateLimiterEngine) Counts() (conformed, delayed uint64) {
	return e.conformed, e.delayed
}
