package engine

import "github.com/panic-nic/panic/internal/packet"

// TxDMAEngine is the transmit-side DMA engine: it fetches host-produced
// packets (TX descriptors plus payload reads) and injects them into the
// NIC. Splitting RX and TX DMA into separate engines mirrors real NIC
// datapaths and the paper's Figure 3c, where DMA and PCIe are independent
// tiles — and it keeps a busy receive path from starving transmissions of
// port bandwidth.
type TxDMAEngine struct {
	pacer   // host fetches, at PCIe rate
	fetched uint64
	outs    outBuf
}

// NewTxDMAEngine builds the engine. src is polled for host transmissions
// (e.g. core.KVSHost); pcieGbps paces fetches at PCIe bandwidth.
func NewTxDMAEngine(pcieGbps, freqHz float64, src Source) *TxDMAEngine {
	requirePositive("TxDMA PCIe rate Gbps", pcieGbps)
	requirePositive("TxDMA clock freq Hz", freqHz)
	return &TxDMAEngine{pacer: newPacer(src, pcieGbps, freqHz)}
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
	t.refill(1)
	t.outs = t.outs[:0]
	for {
		if t.waiting == nil {
			t.waiting = t.src.Poll(ctx.Now)
			if t.waiting == nil {
				return t.outs
			}
		}
		if !t.spend(int64(t.waiting.WireLen() * 8)) {
			return t.outs
		}
		t.fetched++
		t.outs = append(t.outs, Out{Msg: t.waiting})
		t.waiting = nil
	}
}

// Fetched returns the number of host transmissions injected.
func (t *TxDMAEngine) Fetched() uint64 { return t.fetched }
