package engine

import (
	"math"

	"github.com/panic-nic/panic/internal/packet"
)

// TxDMAEngine is the transmit-side DMA engine: it fetches host-produced
// packets (TX descriptors plus payload reads) and injects them into the
// NIC. Splitting RX and TX DMA into separate engines mirrors real NIC
// datapaths and the paper's Figure 3c, where DMA and PCIe are independent
// tiles — and it keeps a busy receive path from starving transmissions of
// port bandwidth.
type TxDMAEngine struct {
	src          Source
	bitsPerCycle float64
	tokens       float64
	maxTokens    float64
	waiting      *packet.Message
	fetched      uint64
	outs         outBuf
}

// NewTxDMAEngine builds the engine. src is polled for host transmissions
// (e.g. core.KVSHost); pcieGbps paces fetches at PCIe bandwidth.
func NewTxDMAEngine(pcieGbps, freqHz float64, src Source) *TxDMAEngine {
	requirePositive("TxDMA PCIe rate Gbps", pcieGbps)
	requirePositive("TxDMA clock freq Hz", freqHz)
	bpc := pcieGbps * 1e9 / freqHz
	return &TxDMAEngine{src: src, bitsPerCycle: bpc, maxTokens: math.Max(bpc*4, 1538*8)}
}

// Name implements Engine.
func (t *TxDMAEngine) Name() string { return "txdma" }

// ServiceCycles implements Engine: stray messages routed here are consumed
// in one cycle (nothing should target the TX engine).
func (t *TxDMAEngine) ServiceCycles(*packet.Message) uint64 { return 1 }

// Process implements Engine: a stray message is consumed.
func (t *TxDMAEngine) Process(ctx *Ctx, msg *packet.Message) []Out {
	ctx.Pool.Put(msg)
	return nil
}

// Generate implements Generator: fetch host transmissions at PCIe rate.
func (t *TxDMAEngine) Generate(ctx *Ctx) []Out {
	if t.src == nil {
		return nil
	}
	t.tokens += t.bitsPerCycle
	if t.tokens > t.maxTokens {
		t.tokens = t.maxTokens
	}
	t.outs = t.outs[:0]
	for {
		if t.waiting == nil {
			t.waiting = t.src.Poll(ctx.Now)
			if t.waiting == nil {
				return t.outs
			}
		}
		bits := float64(t.waiting.WireLen() * 8)
		// Oversized sends (bigger than the bucket) go when the bucket is
		// full and drive it negative, which stalls subsequent fetches for
		// the remainder of their serialization time.
		need := bits
		if need > t.maxTokens {
			need = t.maxTokens
		}
		if t.tokens < need {
			return t.outs
		}
		t.tokens -= bits
		t.fetched++
		t.outs = append(t.outs, Out{Msg: t.waiting})
		t.waiting = nil
	}
}

// NextWork implements IdleReporter with the same rules as the MAC RX
// path: quiescent only with no fetch mid-pacing, the token bucket
// saturated at its clamp, and the host source exhausted or not ready
// until a known future cycle.
func (t *TxDMAEngine) NextWork(now uint64) (uint64, bool) {
	if t.src == nil {
		return 0, true
	}
	if t.waiting != nil || t.tokens < t.maxTokens {
		return now, false
	}
	if as, ok := t.src.(ArrivalSource); ok {
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

// Fetched returns the number of host transmissions injected.
func (t *TxDMAEngine) Fetched() uint64 { return t.fetched }
