package core

import (
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/stats"
)

// LatencyCollector is a sink that histograms end-to-end message latency
// (Inject to delivery), overall and by tenant.
type LatencyCollector struct {
	All      *stats.Histogram
	ByTenant map[uint16]*stats.Histogram
	Bytes    uint64
	Count    uint64
	// OnDeliver, when set, observes every delivered message (tracing,
	// examples, tests). The observer may keep what it sees: a NIC does not
	// release messages delivered to a collector that has one.
	OnDeliver func(msg *packet.Message, now uint64)
}

// NewLatencyCollector creates an empty collector.
func NewLatencyCollector() *LatencyCollector {
	return &LatencyCollector{
		All:      stats.NewHistogram(),
		ByTenant: make(map[uint16]*stats.Histogram),
	}
}

// Deliver implements engine.Sink.
func (c *LatencyCollector) Deliver(msg *packet.Message, now uint64) {
	msg.AssertLive()
	lat := float64(now - msg.Inject)
	c.All.Observe(lat)
	ht := c.ByTenant[msg.Tenant]
	if ht == nil {
		ht = stats.NewHistogram()
		c.ByTenant[msg.Tenant] = ht
	}
	ht.Observe(lat)
	c.Bytes += uint64(msg.WireLen())
	c.Count++
	if c.OnDeliver != nil {
		c.OnDeliver(msg, now)
	}
}

// Tenant returns the histogram for a tenant (empty histogram when unseen).
func (c *LatencyCollector) Tenant(t uint16) *stats.Histogram {
	if h := c.ByTenant[t]; h != nil {
		return h
	}
	return stats.NewHistogram()
}
