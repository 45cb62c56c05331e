package noc

import (
	"fmt"

	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
)

// CrossbarConfig parameterizes the single-crossbar baseline fabric used for
// the paper's wire-length ablation (§3.1.2: "it is not feasible to build a
// single large switch ... when there are a large number of engines").
type CrossbarConfig struct {
	// Nodes is the number of attachment points.
	Nodes int
	// FlitWidthBits is the per-port serialization width.
	FlitWidthBits int
	// TraversalLatency is the extra fixed latency (cycles) of crossing
	// the crossbar, modeling the long wires of a large monolithic switch.
	// A physically plausible model grows this with port count; the
	// experiments sweep it.
	TraversalLatency int
	// InjectDepth and EjectDepth are the per-node message queue depths.
	InjectDepth, EjectDepth int
}

// Crossbar is a single monolithic switch: every input reaches every output
// in one arbitration step. Each output accepts one message at a time,
// serialized at flit width; each input feeds one output at a time.
//
// The crossbar Evals as a single unit (srcBusy couples all outputs), and
// its callers may tick before or after it: Inject touches only the
// caller's own injection queue and per-node counter, and the cycle number
// is published by Begin before Eval starts, so no Inject observes
// same-cycle crossbar state.
type Crossbar struct {
	cfg      CrossbarConfig
	injQ     []*sim.FIFO[injEntry]
	ejectQ   []*sim.FIFO[*packet.Message]
	srcBusy  []bool
	xfer     []xbarXfer
	rrNext   []int
	injected []uint64 // per source node; summed in Stats
	stats    Stats
	now      uint64
}

type xbarXfer struct {
	active    bool
	src       int
	remaining int
	msg       *packet.Message
	enqued    uint64
}

// NewCrossbar builds a crossbar fabric.
func NewCrossbar(cfg CrossbarConfig) *Crossbar {
	if cfg.Nodes < 1 {
		panic(fmt.Sprintf("noc: invalid crossbar size %d", cfg.Nodes))
	}
	if cfg.FlitWidthBits < 1 {
		panic("noc: flit width must be positive")
	}
	if cfg.InjectDepth < 1 || cfg.EjectDepth < 1 {
		panic("noc: local queue depths must be positive")
	}
	if cfg.TraversalLatency < 0 {
		panic("noc: negative traversal latency")
	}
	c := &Crossbar{
		cfg:      cfg,
		injQ:     make([]*sim.FIFO[injEntry], cfg.Nodes),
		ejectQ:   make([]*sim.FIFO[*packet.Message], cfg.Nodes),
		srcBusy:  make([]bool, cfg.Nodes),
		xfer:     make([]xbarXfer, cfg.Nodes),
		rrNext:   make([]int, cfg.Nodes),
		injected: make([]uint64, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.injQ[i] = sim.NewFIFO[injEntry](cfg.InjectDepth)
		c.ejectQ[i] = sim.NewFIFO[*packet.Message](cfg.EjectDepth)
	}
	return c
}

// RegisterWith attaches the crossbar and its staged state to a kernel.
func (c *Crossbar) RegisterWith(k *sim.Kernel) {
	k.Register(c)
	for i := range c.injQ {
		k.Register(c.injQ[i], c.ejectQ[i])
	}
}

// Nodes implements Fabric.
func (c *Crossbar) Nodes() int { return c.cfg.Nodes }

// FlitsFor implements Fabric.
func (c *Crossbar) FlitsFor(msg *packet.Message) int {
	return flitsFor(msg.WireLen(), c.cfg.FlitWidthBits)
}

// CanInject implements Fabric.
func (c *Crossbar) CanInject(src, _ NodeID) bool { return c.injQ[src].CanPush() }

// Inject implements Fabric.
func (c *Crossbar) Inject(src, dst NodeID, msg *packet.Message) {
	if int(dst) < 0 || int(dst) >= c.cfg.Nodes {
		panic(fmt.Sprintf("noc: Inject to invalid node %d", dst))
	}
	c.injQ[src].Push(injEntry{msg: msg, dst: dst, flits: c.FlitsFor(msg), enqued: c.now})
	c.injected[src]++
}

// TryEject implements Fabric.
func (c *Crossbar) TryEject(node NodeID) (*packet.Message, bool) {
	q := c.ejectQ[node]
	if !q.CanPop() {
		return nil, false
	}
	return q.Pop(), true
}

// HasEjectable implements Fabric.
func (c *Crossbar) HasEjectable(node NodeID) bool {
	return c.ejectQ[node].CanPop()
}

// Stats returns a copy of the accumulated statistics.
func (c *Crossbar) Stats() Stats {
	s := c.stats
	for _, n := range c.injected {
		s.Injected += n
	}
	return s
}

// ResetStats zeroes the accumulated statistics.
func (c *Crossbar) ResetStats() {
	c.stats = Stats{}
	for i := range c.injected {
		c.injected[i] = 0
	}
}

// Begin implements sim.Preparer: it publishes the cycle number before Eval
// so injectors timestamp against a stable value whatever the tick order.
func (c *Crossbar) Begin(cycle uint64) { c.now = cycle }

// Tick implements sim.Ticker.
func (c *Crossbar) Tick(cycle uint64) {
	for o := range c.xfer {
		x := &c.xfer[o]
		if x.active {
			x.remaining--
			c.stats.FlitHops++
			if x.remaining <= 0 {
				c.ejectQ[o].Push(x.msg)
				c.stats.Delivered++
				c.stats.TotalLatency += cycle - x.enqued
				c.srcBusy[x.src] = false
				x.active = false
			}
			continue
		}
		// Arbitrate: round-robin over sources whose head message targets o.
		for i := 0; i < c.cfg.Nodes; i++ {
			s := (c.rrNext[o] + i) % c.cfg.Nodes
			if c.srcBusy[s] {
				continue
			}
			e, ok := c.injQ[s].Peek()
			if !ok || int(e.dst) != o || !c.ejectQ[o].CanPush() {
				continue
			}
			c.injQ[s].Pop()
			c.srcBusy[s] = true
			c.xfer[o] = xbarXfer{active: true, src: s, remaining: e.flits + c.cfg.TraversalLatency, msg: e.msg, enqued: e.enqued}
			c.rrNext[o] = (s + 1) % c.cfg.Nodes
			break
		}
	}
}
