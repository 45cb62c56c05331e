package engine

import (
	"fmt"
	"math"

	"github.com/panic-nic/panic/internal/packet"
)

// HostResponder lets a simulation model the host CPU behind the DMA
// engine: when a packet is delivered to host memory, the responder may
// produce a response packet that re-enters the NIC after a host processing
// delay (the simplified host loop: process, post TX descriptor, descriptor
// fetched, packet injected).
type HostResponder interface {
	Respond(msg *packet.Message, now uint64) (resp *packet.Message, delay uint64, ok bool)
}

// DMAConfig parameterizes the DMA engine.
type DMAConfig struct {
	// PCIeGbps is the transfer bandwidth toward host memory.
	PCIeGbps float64
	// FreqHz is the NIC clock.
	FreqHz float64
	// BaseLatencyCycles is the host round-trip latency for reads.
	BaseLatencyCycles uint64
	// JitterCycles adds uniform random extra latency, modeling memory
	// contention from host applications (§3.2: "the DMA engine has
	// variable performance and may become a bottleneck").
	JitterCycles uint64
	// NotifyAddr, when set, receives a small completion notification for
	// every host delivery (the PCIe/interrupt engine).
	NotifyAddr packet.Addr
}

// DMAEngine models the NIC's DMA block as an ordinary engine (§3.1.1:
// "even parts of the NIC that would not normally be thought of as offloads
// are implemented as engines"). It serves three kinds of messages:
//
//   - DMA-layer read requests: occupy the engine for the transfer time,
//     then return a read completion to the requester after memory latency.
//   - DMA-layer write requests: occupy for the transfer time; acked to the
//     requester when one is named.
//   - Ordinary packets (chain-terminated here): written to host memory and
//     delivered to the host sink, optionally generating a notification to
//     the PCIe engine and a host response.
type DMAEngine struct {
	cfg          DMAConfig
	hostSink     Sink
	responder    HostResponder
	bitsPerCycle float64
	outs         outBuf

	reads, writes, hostDeliveries uint64
}

// NewDMAEngine builds the engine. hostSink receives packets written to
// host memory (nil discards); responder may be nil.
func NewDMAEngine(cfg DMAConfig, hostSink Sink, responder HostResponder) *DMAEngine {
	requirePositive("DMA PCIe rate Gbps", cfg.PCIeGbps)
	requirePositive("DMA clock freq Hz", cfg.FreqHz)
	if hostSink == nil {
		hostSink = NullSink{}
	}
	return &DMAEngine{cfg: cfg, hostSink: hostSink, responder: responder,
		bitsPerCycle: cfg.PCIeGbps * 1e9 / cfg.FreqHz}
}

// Name implements Engine.
func (d *DMAEngine) Name() string { return "dma" }

// transferBytes returns the payload size a message moves across PCIe.
func (d *DMAEngine) transferBytes(msg *packet.Message) int {
	if l := msg.Pkt.Layer(packet.LayerTypeDMA); l != nil {
		return int(l.(*packet.DMA).Len)
	}
	return msg.WireLen()
}

// ServiceCycles implements Engine: PCIe occupancy for the transfer.
func (d *DMAEngine) ServiceCycles(msg *packet.Message) uint64 {
	return uint64(math.Ceil(float64(d.transferBytes(msg)*8) / d.bitsPerCycle))
}

// latency returns the host memory round trip including contention jitter.
func (d *DMAEngine) latency(ctx *Ctx) uint64 {
	l := d.cfg.BaseLatencyCycles
	if d.cfg.JitterCycles > 0 {
		l += uint64(ctx.RNG.Intn(int(d.cfg.JitterCycles) + 1))
	}
	return l
}

// Process implements Engine. DMA requests are consumed: each is answered
// by a completion built from the pool, and the request is released.
func (d *DMAEngine) Process(ctx *Ctx, msg *packet.Message) []Out {
	if l := msg.Pkt.Layer(packet.LayerTypeDMA); l != nil {
		req := *l.(*packet.DMA)
		var op packet.DMAOp
		payload := 0
		switch req.Op {
		case packet.DMARead:
			d.reads++
			op, payload = packet.DMAReadCompl, int(req.Len)
		case packet.DMAWrite:
			d.writes++
			op = packet.DMAWriteCompl
		}
		if op == 0 || req.Requester == packet.AddrInvalid {
			// Unacknowledged writes end here; completions addressed to
			// the DMA engine are a routing bug, dropped by consuming.
			ctx.Pool.Put(msg)
			return nil
		}
		compl := newControl(ctx, msg, payload, packet.DMA{Op: op, Requester: req.Requester,
			Len: req.Len, HostAddr: req.HostAddr})
		ctx.Pool.Put(msg)
		return d.outs.one(Out{Msg: compl, To: req.Requester, Delay: d.latency(ctx)})
	}

	// An ordinary packet whose chain ends here: deliver to host memory.
	// The host observes the data after the PCIe write latency. The host
	// sink owns the message from here on, so the notify and the response
	// are built before it can be released.
	d.hostDeliveries++
	arrival := ctx.Now + d.latency(ctx)
	msg.Done = arrival
	d.outs = d.outs[:0]
	if d.cfg.NotifyAddr != packet.AddrInvalid {
		notify := newControl(ctx, msg, 0, packet.DMA{Op: packet.DMAWriteCompl,
			Requester: d.cfg.NotifyAddr, Len: uint32(msg.WireLen())})
		d.outs = append(d.outs, Out{Msg: notify, To: d.cfg.NotifyAddr, Delay: d.latency(ctx)})
	}
	if d.responder != nil {
		if resp, delay, ok := d.responder.Respond(msg, ctx.Now); ok {
			resp.Port = -1
			d.outs = append(d.outs, Out{Msg: resp, Delay: delay})
		}
	}
	d.hostSink.Deliver(msg, arrival)
	return d.outs
}

// newControl builds a control-class DMA message on behalf of msg: a
// request, completion or notification that shares msg's identity.
func newControl(ctx *Ctx, msg *packet.Message, payload int, hdr packet.DMA) *packet.Message {
	m := ctx.Pool.DMA(payload, packet.Ethernet{EtherType: packet.EtherTypeDMA}, hdr)
	m.ID = msg.ID
	m.TraceID = msg.TraceID
	m.Tenant = msg.Tenant
	m.Class = packet.ClassControl
	m.Port = -1
	m.Inject = ctx.Now
	return m
}

// Counts returns (reads, writes, host deliveries).
func (d *DMAEngine) Counts() (reads, writes, hostDeliveries uint64) {
	return d.reads, d.writes, d.hostDeliveries
}

// PCIeConfig parameterizes the PCIe/interrupt engine.
type PCIeConfig struct {
	// CoalesceCount fires an interrupt after this many completion
	// notifications (1 = every completion).
	CoalesceCount int
	// CoalesceTimeoutCycles fires a pending interrupt after this long
	// even when the count is not reached (0 = no timeout).
	CoalesceTimeoutCycles uint64
	// InterruptCycles is the service cost of raising an interrupt.
	InterruptCycles uint64
}

// PCIeEngine models interrupt generation with coalescing (§3.2: "the DMA
// engine will send a message to a PCIe engine that may generate an
// interrupt depending on the interrupt coalescing state").
type PCIeEngine struct {
	cfg        PCIeConfig
	pendingN   int
	pendingAt  uint64
	interrupts uint64
	notified   uint64
}

// NewPCIeEngine builds the engine.
func NewPCIeEngine(cfg PCIeConfig) *PCIeEngine {
	if cfg.CoalesceCount < 1 {
		panic(fmt.Sprintf("engine: PCIe coalesce count %d", cfg.CoalesceCount))
	}
	return &PCIeEngine{cfg: cfg}
}

// Name implements Engine.
func (p *PCIeEngine) Name() string { return "pcie" }

// ServiceCycles implements Engine.
func (p *PCIeEngine) ServiceCycles(*packet.Message) uint64 {
	if p.cfg.InterruptCycles == 0 {
		return 1
	}
	return p.cfg.InterruptCycles
}

// Process implements Engine: count notifications, fire on threshold. The
// notification is consumed.
func (p *PCIeEngine) Process(ctx *Ctx, msg *packet.Message) []Out {
	ctx.Pool.Put(msg)
	p.notified++
	if p.pendingN == 0 {
		p.pendingAt = ctx.Now
	}
	p.pendingN++
	fire := p.pendingN >= p.cfg.CoalesceCount
	if !fire && p.cfg.CoalesceTimeoutCycles > 0 && ctx.Now-p.pendingAt >= p.cfg.CoalesceTimeoutCycles {
		fire = true
	}
	if fire {
		p.interrupts++
		p.pendingN = 0
	}
	return nil
}

// Counts returns (notifications seen, interrupts raised).
func (p *PCIeEngine) Counts() (notifications, interrupts uint64) {
	return p.notified, p.interrupts
}
