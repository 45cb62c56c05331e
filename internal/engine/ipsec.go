package engine

import (
	"math"

	"github.com/panic-nic/panic/internal/packet"
)

// IPSecConfig parameterizes the IPSec engine.
type IPSecConfig struct {
	// BytesPerCycle is the crypto datapath width (e.g. 4 bytes/cycle at
	// 500 MHz = 16 Gbps — deliberately below line rate, which is exactly
	// the kind of offload the paper says RMT pipelines cannot host).
	BytesPerCycle float64
	// SetupCycles is the fixed per-packet cost (SA lookup, IV handling).
	SetupCycles uint64
}

// IPSecEngine decrypts ESP packets and encrypts outbound packets. The
// paper's running example (§2.2, §3.2): only WAN traffic crosses it, and
// decrypted packets must make a second RMT pass because their chains could
// not be computed before decryption.
//
// Crypto itself is simulated (see DESIGN.md): an encrypted message carries
// its plaintext in Message.Inner, and "decrypting" swaps it in after the
// modeled per-byte latency. What the paper's claims depend on — service
// time, chaining, reinjection — is preserved exactly.
type IPSecEngine struct {
	cfg  IPSecConfig
	outs outBuf

	decrypted, encrypted uint64
}

// ESPOverheadBytes is the added wire size of ESP tunneling in this model:
// 20 (outer IPv4) + 8 (ESP header) + 12 (ICV/trailer).
const ESPOverheadBytes = 40

// NewIPSecEngine builds the engine.
func NewIPSecEngine(cfg IPSecConfig) *IPSecEngine {
	requirePositive("IPSec bytes/cycle", cfg.BytesPerCycle)
	return &IPSecEngine{cfg: cfg}
}

// Name implements Engine.
func (e *IPSecEngine) Name() string { return "ipsec" }

// ServiceCycles implements Engine: per-byte crypto plus setup.
func (e *IPSecEngine) ServiceCycles(msg *packet.Message) uint64 {
	return e.cfg.SetupCycles + uint64(math.Ceil(float64(msg.WireLen())/e.cfg.BytesPerCycle))
}

// Process implements Engine. ESP packets are decrypted and continue along
// their chain (normally back to the RMT pipeline, flagged as reinjected so
// the program computes the remainder chain, §3.1.2). Non-ESP packets are
// encrypted for the WAN.
func (e *IPSecEngine) Process(ctx *Ctx, msg *packet.Message) []Out {
	if msg.Pkt.Has(packet.LayerTypeESP) {
		e.decrypt(ctx, msg)
	} else {
		e.encrypt(ctx, msg)
	}
	return e.outs.one(Out{Msg: msg})
}

// decrypt swaps the plaintext in and returns the outer shell to the pool.
// The chain comes along in place, flagged for the second pass.
func (e *IPSecEngine) decrypt(ctx *Ctx, msg *packet.Message) {
	e.decrypted++
	if chain := msg.Chain(); chain != nil {
		chain.Flags |= packet.ChainFlagReinjected
	}
	if msg.Inner != nil {
		ctx.Pool.PutESP(msg.Decapsulate())
		return
	}
	// No stashed plaintext (synthetic traffic): strip the ESP layer and
	// keep the ciphertext length as payload.
	layers := make([]packet.Layer, 0, len(msg.Pkt.Layers))
	for _, l := range msg.Pkt.Layers {
		if l.LayerType() != packet.LayerTypeESP {
			layers = append(layers, l)
		}
	}
	if ip, ok := msg.Pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4); ok {
		ip.Protocol = packet.ProtoUDP
	}
	msg.Pkt.Layers = layers
	if msg.Pkt.PayloadLen >= ESPOverheadBytes-20-8 {
		msg.Pkt.PayloadLen -= ESPOverheadBytes - 20 - 8
	}
	msg.Pkt.Serialize()
}

// encrypt wraps the message in an outer shell from the pool; the chain
// moves to the shell in place.
func (e *IPSecEngine) encrypt(ctx *Ctx, msg *packet.Message) {
	e.encrypted++
	inner := msg.Pkt
	var outerSrc, outerDst packet.IP4
	if ip, ok := inner.Layer(packet.LayerTypeIPv4).(*packet.IPv4); ok {
		outerSrc, outerDst = ip.Src, ip.Dst
	}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	if e0, ok := inner.Layers[0].(*packet.Ethernet); ok {
		eth.Dst, eth.Src = e0.Dst, e0.Src
	}
	plaintext := inner.WireLen()
	if chain := msg.Chain(); chain != nil {
		plaintext -= chain.HeaderLen() // the shim is not encrypted
	}
	ciphertext := plaintext - eth.HeaderLen() + (ESPOverheadBytes - 20 - 8)
	msg.Encapsulate(ctx.Pool.ESP(ciphertext,
		eth,
		packet.IPv4{TTL: 64, Protocol: packet.ProtoESP, Src: outerSrc, Dst: outerDst},
		packet.ESP{SPI: 1, Seq: uint32(msg.ID)},
	))
}

// Counts returns (decrypted, encrypted).
func (e *IPSecEngine) Counts() (decrypted, encrypted uint64) {
	return e.decrypted, e.encrypted
}
