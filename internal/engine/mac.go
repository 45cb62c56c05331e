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
	cfg  MACConfig
	src  Source
	sink Sink

	bitsPerCycle float64
	tokens       float64
	maxTokens    float64
	waiting      *packet.Message
	traceSeq     uint64
	outs         outBuf

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
	bpc := cfg.LineRateGbps * 1e9 / cfg.FreqHz
	if sink == nil {
		sink = NullSink{}
	}
	return &EthernetMAC{
		cfg:          cfg,
		src:          src,
		sink:         sink,
		bitsPerCycle: bpc,
		// Allow one max-size frame of burst so pacing doesn't starve.
		maxTokens: math.Max(bpc*4, 1538*8),
	}
}

// Name implements Engine.
func (m *EthernetMAC) Name() string { return fmt.Sprintf("eth%d", m.cfg.Port) }

// wireBits returns the wire occupancy of a message including preamble/IFG.
func wireBits(msg *packet.Message) float64 {
	return float64((msg.WireLen() + packet.WireOverheadBytes) * 8)
}

// ServiceCycles implements Engine: TX serialization time at line rate.
func (m *EthernetMAC) ServiceCycles(msg *packet.Message) uint64 {
	return uint64(math.Ceil(wireBits(msg) / m.bitsPerCycle))
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
	m.tokens += m.bitsPerCycle
	if m.tokens > m.maxTokens {
		m.tokens = m.maxTokens
	}
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
		need := bits
		if need > m.maxTokens {
			need = m.maxTokens // jumbo frames drain the bucket negative
		}
		if m.tokens < need {
			m.rxStallCount++
			return m.outs
		}
		m.tokens -= bits
		m.rx++
		m.rxBits += uint64(bits)
		m.outs = append(m.outs, Out{Msg: m.waiting})
		m.waiting = nil
	}
}

// NextWork implements IdleReporter for the RX path (the TX path is plain
// tile service, which the tile accounts for itself). The MAC is quiescent
// only when every Generate call would provably change nothing: no frame
// mid-pacing, the token bucket saturated at its clamp (a refill below the
// clamp mutates tokens, so partial buckets veto the skip), and the source
// either exhausted or not due until a known future cycle. A source that
// cannot report its next arrival pins the MAC busy.
func (m *EthernetMAC) NextWork(now uint64) (uint64, bool) {
	if m.src == nil {
		return 0, true
	}
	if m.waiting != nil || m.tokens < m.maxTokens {
		return now, false
	}
	if as, ok := m.src.(ArrivalSource); ok {
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

// RxCount and TxCount return packet counters; RxBits/TxBits the wire-bit
// counters (including preamble/IFG, matching Table 2 accounting).
func (m *EthernetMAC) RxCount() uint64 { return m.rx }

// TxCount returns the transmitted packet count.
func (m *EthernetMAC) TxCount() uint64 { return m.tx }

// RxBits returns received wire bits.
func (m *EthernetMAC) RxBits() uint64 { return m.rxBits }

// TxBits returns transmitted wire bits.
func (m *EthernetMAC) TxBits() uint64 { return m.txBits }
