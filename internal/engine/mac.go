package engine

import (
	"fmt"
	"math"

	"github.com/panic-nic/panic/internal/packet"
)

// MACConfig parameterizes an Ethernet MAC engine.
type MACConfig struct {
	// Port is the Ethernet port index.
	Port int
	// LineRateGbps is the port speed.
	LineRateGbps float64
	// FreqHz is the NIC clock, for converting line rate to bits/cycle.
	FreqHz float64
}

// EthernetMAC is an Ethernet port tile. In PANIC the MACs are ordinary
// engines on the fabric edge (Figure 3c): the RX side paces packets from a
// Source onto the on-chip network at line rate, and the TX side serializes
// departing messages back onto the wire, stripping the chain shim.
type EthernetMAC struct {
	pacer    // the RX side, at line rate
	cfg      MACConfig
	sink     Sink
	traceSeq uint64
	outs     outBuf

	rx, tx       uint64
	rxBits       uint64
	txBits       uint64
	rxStallCount uint64
}

// NewEthernetMAC builds a MAC. src may be nil (TX-only port); sink may be
// nil (RX-only port, transmissions are counted and discarded).
func NewEthernetMAC(cfg MACConfig, src Source, sink Sink) *EthernetMAC {
	requirePositive("MAC line rate Gbps", cfg.LineRateGbps)
	requirePositive("MAC clock freq Hz", cfg.FreqHz)
	if sink == nil {
		sink = NullSink{}
	}
	return &EthernetMAC{
		pacer: newPacer(src, cfg.LineRateGbps, cfg.FreqHz),
		cfg:   cfg,
		sink:  sink,
	}
}

// Name implements Engine.
func (m *EthernetMAC) Name() string { return fmt.Sprintf("eth%d", m.cfg.Port) }

// wireBits returns the wire occupancy of a message including preamble/IFG.
func wireBits(msg *packet.Message) float64 {
	return float64((msg.WireLen() + packet.WireOverheadBytes) * 8)
}

// ServiceCycles implements Engine: TX serialization time at line rate
// (the rate the RX pacer refills at).
func (m *EthernetMAC) ServiceCycles(msg *packet.Message) uint64 {
	return uint64(math.Ceil(wireBits(msg) / m.perCycle))
}

// Process implements Engine: transmit. The chain shim never leaves the
// NIC.
func (m *EthernetMAC) Process(ctx *Ctx, msg *packet.Message) []Out {
	msg.StripChain()
	m.tx++
	m.txBits += uint64(wireBits(msg))
	msg.Done = ctx.Now
	m.sink.Deliver(msg, ctx.Now)
	return nil
}

// Generate implements Generator: receive from the wire at line rate.
func (m *EthernetMAC) Generate(ctx *Ctx) []Out {
	if m.src == nil {
		return nil
	}
	m.refill()
	m.outs = m.outs[:0]
	for {
		if m.waiting == nil {
			m.waiting = m.src.Poll(ctx.Now)
			if m.waiting == nil {
				return m.outs
			}
			m.waiting.Port = m.cfg.Port
			m.waiting.Inject = ctx.Now
			if m.waiting.TraceID == 0 {
				// Stamp a globally unique trace ID: workload message IDs
				// are per-source and collide across ports. Stamping is
				// unconditional (not gated on a tracer) so pooled and
				// fresh shells stay byte-identical and sampling decisions
				// are a pure function of arrival order.
				m.traceSeq++
				m.waiting.TraceID = uint64(m.cfg.Port+1)<<48 | m.traceSeq
			}
		}
		bits := wireBits(m.waiting)
		if !m.spend(bits) {
			m.rxStallCount++
			return m.outs
		}
		m.rx++
		m.rxBits += uint64(bits)
		m.outs = append(m.outs, Out{Msg: m.waiting})
		m.waiting = nil
	}
}

// RxCount and TxCount return packet counters; RxBits/TxBits the wire-bit
// counters (including preamble/IFG, matching Table 2 accounting).
func (m *EthernetMAC) RxCount() uint64 { return m.rx }

// TxCount returns the transmitted packet count.
func (m *EthernetMAC) TxCount() uint64 { return m.tx }

// RxBits returns received wire bits.
func (m *EthernetMAC) RxBits() uint64 { return m.rxBits }

// TxBits returns transmitted wire bits.
func (m *EthernetMAC) TxBits() uint64 { return m.txBits }
