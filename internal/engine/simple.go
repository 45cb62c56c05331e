package engine

import (
	"fmt"
	"math"

	"github.com/panic-nic/panic/internal/packet"
)

// ByteRateEngine is the common shape of streaming offloads (compression,
// checksum, regex, dedup...): a fixed setup cost plus a per-byte datapath
// cost, then a transform.
type ByteRateEngine struct {
	name          string
	bytesPerCycle float64
	setupCycles   uint64
	transform     func(ctx *Ctx, msg *packet.Message)
	processed     uint64
	outs          outBuf
}

// NewByteRateEngine builds a streaming engine. transform may be nil
// (pure-delay offload).
func NewByteRateEngine(name string, bytesPerCycle float64, setupCycles uint64, transform func(ctx *Ctx, msg *packet.Message)) *ByteRateEngine {
	requirePositive(name+" bytes/cycle", bytesPerCycle)
	return &ByteRateEngine{name: name, bytesPerCycle: bytesPerCycle, setupCycles: setupCycles, transform: transform}
}

// Name implements Engine.
func (e *ByteRateEngine) Name() string { return e.name }

// ServiceCycles implements Engine.
func (e *ByteRateEngine) ServiceCycles(msg *packet.Message) uint64 {
	return e.setupCycles + uint64(math.Ceil(float64(msg.WireLen())/e.bytesPerCycle))
}

// Process implements Engine: transform and continue along the chain.
func (e *ByteRateEngine) Process(ctx *Ctx, msg *packet.Message) []Out {
	e.processed++
	if e.transform != nil {
		e.transform(ctx, msg)
	}
	return e.outs.one(Out{Msg: msg})
}

// Processed returns the message count.
func (e *ByteRateEngine) Processed() uint64 { return e.processed }

// NewCompressionEngine returns a compression offload that shrinks the
// payload by ratio (0.5 = halve) at the given datapath width.
func NewCompressionEngine(bytesPerCycle, ratio float64) *ByteRateEngine {
	requireFraction("compression ratio", ratio)
	return NewByteRateEngine("compress", bytesPerCycle, 2, func(_ *Ctx, msg *packet.Message) {
		msg.Pkt.PayloadLen = int(float64(msg.Pkt.PayloadLen) * ratio)
	})
}

// NewChecksumEngine returns a checksum offload that recomputes the IPv4
// header checksum at the given datapath width.
func NewChecksumEngine(bytesPerCycle float64) *ByteRateEngine {
	return NewByteRateEngine("checksum", bytesPerCycle, 0, func(_ *Ctx, msg *packet.Message) {
		if ip, ok := msg.Pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4); ok {
			ip.Checksum = ip.ComputeChecksum()
			msg.Pkt.Serialize()
		}
	})
}

// RegexEngine scans payloads against a pattern set; matching is simulated
// deterministically from the flow key so experiments are reproducible.
type RegexEngine struct {
	*ByteRateEngine
	matches uint64
}

// NewRegexEngine builds the engine; matchRate is the fraction of packets
// that "match" (simulated — see DESIGN.md).
func NewRegexEngine(bytesPerCycle float64, matchRate float64) *RegexEngine {
	if math.IsNaN(matchRate) || matchRate < 0 || matchRate > 1 {
		panic(fmt.Sprintf("engine: regex match rate %v (want in [0, 1])", matchRate))
	}
	e := &RegexEngine{}
	e.ByteRateEngine = NewByteRateEngine("regex", bytesPerCycle, 4, func(_ *Ctx, msg *packet.Message) {
		h := msg.ID * 0x9e3779b97f4a7c15
		if float64(h>>40)/float64(1<<24) < matchRate {
			e.matches++
		}
	})
	return e
}

// Matches returns the simulated match count.
func (e *RegexEngine) Matches() uint64 { return e.matches }

// CPUCoreEngine models an embedded processor tile: a fixed per-packet
// software cost plus an optional programmable handler. In the manycore
// baseline this is the orchestrating core whose latency the paper holds
// against that design (§2.3.2, ~10 µs per packet); in PANIC it is just
// another offload choice.
type CPUCoreEngine struct {
	name        string
	perPacket   uint64
	perByteNano float64 // additional cycles per byte of payload touched
	handler     func(ctx *Ctx, msg *packet.Message) []Out
	processed   uint64
	outs        outBuf
}

// NewCPUCoreEngine builds a core. handler nil forwards along the chain.
func NewCPUCoreEngine(name string, perPacketCycles uint64, perByteCycles float64, handler func(ctx *Ctx, msg *packet.Message) []Out) *CPUCoreEngine {
	requireNonNegative(name+" cycles/byte", perByteCycles)
	if perPacketCycles == 0 {
		perPacketCycles = 1
	}
	return &CPUCoreEngine{name: name, perPacket: perPacketCycles, perByteNano: perByteCycles, handler: handler}
}

// Name implements Engine.
func (e *CPUCoreEngine) Name() string { return e.name }

// ServiceCycles implements Engine.
func (e *CPUCoreEngine) ServiceCycles(msg *packet.Message) uint64 {
	return e.perPacket + uint64(math.Ceil(e.perByteNano*float64(msg.WireLen())))
}

// Process implements Engine.
func (e *CPUCoreEngine) Process(ctx *Ctx, msg *packet.Message) []Out {
	e.processed++
	if e.handler != nil {
		return e.handler(ctx, msg)
	}
	return e.outs.one(Out{Msg: msg})
}

// Processed returns the packet count.
func (e *CPUCoreEngine) Processed() uint64 { return e.processed }

// CollectorEngine consumes every message into a sink — a terminal engine
// for tests and for modeling host delivery points.
type CollectorEngine struct {
	name    string
	cycles  uint64
	sink    Sink
	count   uint64
	lastMsg *packet.Message
}

// NewCollectorEngine builds a consuming engine.
func NewCollectorEngine(name string, serviceCycles uint64, sink Sink) *CollectorEngine {
	if sink == nil {
		sink = NullSink{}
	}
	if serviceCycles == 0 {
		serviceCycles = 1
	}
	return &CollectorEngine{name: name, cycles: serviceCycles, sink: sink}
}

// Name implements Engine.
func (e *CollectorEngine) Name() string { return e.name }

// ServiceCycles implements Engine.
func (e *CollectorEngine) ServiceCycles(*packet.Message) uint64 { return e.cycles }

// Process implements Engine.
func (e *CollectorEngine) Process(ctx *Ctx, msg *packet.Message) []Out {
	e.count++
	e.lastMsg = msg
	msg.Done = ctx.Now
	e.sink.Deliver(msg, ctx.Now)
	return nil
}

// Count returns the number of consumed messages.
func (e *CollectorEngine) Count() uint64 { return e.count }

// Last returns the most recently consumed message.
func (e *CollectorEngine) Last() *packet.Message { return e.lastMsg }
