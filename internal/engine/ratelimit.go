package engine

import (
	"fmt"
	"math"

	"github.com/panic-nic/panic/internal/packet"
)

// RateLimiterConfig parameterizes the per-tenant rate-limiting engine.
type RateLimiterConfig struct {
	// FreqHz is the NIC clock, for converting Gbps to bits/cycle.
	FreqHz float64
	// BurstBytes is each tenant's token-bucket depth.
	BurstBytes int
}

// RateLimiterEngine enforces per-tenant token-bucket rate limits on the
// NIC — the SENIC row of the paper's Table 1 ("Infrastructure, Inline,
// Network"). Conforming messages continue along their chain immediately;
// non-conforming messages are held in the engine (head-of-line within the
// tenant) until their tokens accumulate, which is exactly the kind of
// variable-service-time behaviour PANIC's self-contained engines permit
// and RMT pipelines cannot host.
type RateLimiterEngine struct {
	cfg    RateLimiterConfig
	limits map[uint16]float64 // tenant -> bits/cycle
	bucket map[uint16]*tokenBucket
	outs   outBuf

	conformed, delayed uint64
}

type tokenBucket struct {
	tokens      float64
	perCycle    float64
	maxTokens   float64
	lastRefresh uint64
}

// NewRateLimiterEngine builds the engine.
func NewRateLimiterEngine(cfg RateLimiterConfig) *RateLimiterEngine {
	requirePositive("rate limiter clock freq Hz", cfg.FreqHz)
	if cfg.BurstBytes < 1 {
		cfg.BurstBytes = 16 * 1024
	}
	return &RateLimiterEngine{
		cfg:    cfg,
		limits: make(map[uint16]float64),
		bucket: make(map[uint16]*tokenBucket),
	}
}

// SetLimit installs a tenant's rate limit in Gbps (0 removes it).
func (e *RateLimiterEngine) SetLimit(tenant uint16, gbps float64) {
	if math.IsNaN(gbps) || math.IsInf(gbps, 0) {
		panic(fmt.Sprintf("engine: rate limit %v Gbps for tenant %d", gbps, tenant))
	}
	if gbps <= 0 {
		delete(e.limits, tenant)
		delete(e.bucket, tenant)
		return
	}
	e.limits[tenant] = gbps * 1e9 / e.cfg.FreqHz
	delete(e.bucket, tenant)
}

// Name implements Engine.
func (e *RateLimiterEngine) Name() string { return "ratelimit" }

func (e *RateLimiterEngine) bucketFor(tenant uint16, now uint64) *tokenBucket {
	b := e.bucket[tenant]
	if b == nil {
		perCycle, ok := e.limits[tenant]
		if !ok {
			return nil // unlimited
		}
		b = &tokenBucket{
			tokens:      float64(e.cfg.BurstBytes * 8),
			perCycle:    perCycle,
			maxTokens:   float64(e.cfg.BurstBytes * 8),
			lastRefresh: now,
		}
		e.bucket[tenant] = b
	}
	b.refresh(now)
	return b
}

func (b *tokenBucket) refresh(now uint64) {
	if now > b.lastRefresh {
		b.tokens += float64(now-b.lastRefresh) * b.perCycle
		if b.tokens > b.maxTokens {
			b.tokens = b.maxTokens
		}
		b.lastRefresh = now
	}
}

// ServiceCycles implements Engine with the bucket's last-known state; the
// tile uses the precise ServiceCyclesAt instead.
func (e *RateLimiterEngine) ServiceCycles(msg *packet.Message) uint64 {
	b := e.bucket[msg.Tenant]
	bits := float64(msg.WireLen() * 8)
	if b == nil || b.tokens >= bits {
		return 1
	}
	return 1 + uint64((bits-b.tokens)/b.perCycle)
}

// ServiceCyclesAt implements TimedEngine: refresh the tenant's bucket,
// classify, and quote the shaping delay. A conforming message passes in
// one cycle; a non-conforming one occupies the engine until its tokens
// accumulate (one shaping queue; per-tenant fan-out would use one engine
// instance per shaping class).
func (e *RateLimiterEngine) ServiceCyclesAt(ctx *Ctx, msg *packet.Message) uint64 {
	b := e.bucketFor(msg.Tenant, ctx.Now)
	if b == nil {
		e.conformed++
		return 1
	}
	bits := float64(msg.WireLen() * 8)
	if b.tokens >= bits {
		e.conformed++
		return 1
	}
	e.delayed++
	return 1 + uint64((bits-b.tokens)/b.perCycle)
}

// Process implements Engine: charge the bucket (refreshed to the end of
// the shaping wait, so the accrued tokens cover the shortfall) and
// forward.
func (e *RateLimiterEngine) Process(ctx *Ctx, msg *packet.Message) []Out {
	if b := e.bucketFor(msg.Tenant, ctx.Now); b != nil {
		b.tokens -= float64(msg.WireLen() * 8)
		if b.tokens < 0 {
			b.tokens = 0
		}
	}
	return e.outs.one(Out{Msg: msg})
}

// Counts returns (messages passed immediately, messages delayed).
func (e *RateLimiterEngine) Counts() (conformed, delayed uint64) {
	return e.conformed, e.delayed
}
