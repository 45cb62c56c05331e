// Package packet implements the layered message model used throughout the
// simulator, in the style of gopacket: a packet is a byte buffer plus a
// decoded stack of typed layers.
//
// Header bytes are real — the RMT parser in internal/rmt parses them bit for
// bit — while bulk payloads are virtual: a packet carries a PayloadLen
// instead of materialized payload bytes, so simulating minimum-size packets
// at hundreds of millions of packets per second stays cheap without
// changing any header-processing behaviour.
//
// In PANIC, everything that moves through the on-chip network is a message:
// Ethernet frames, DMA requests and completions, doorbells, and
// engine-to-engine requests are all encoded with the same layer model (§3.1
// of the paper: "even messages between different on-NIC engines ... can be
// treated as if they were [packets]").
package packet

import (
	"errors"
	"fmt"
	"strings"
)

// LayerType identifies a protocol layer.
type LayerType uint8

// Layer types understood by the decoder.
const (
	LayerTypeEthernet LayerType = iota + 1
	LayerTypeChain              // PANIC chain shim header
	LayerTypeIPv4
	LayerTypeUDP
	LayerTypeTCP
	LayerTypeESP
	LayerTypeKVS
	LayerTypeDMA // on-NIC DMA request/completion message
	LayerTypePayload
)

// String returns the layer type name.
func (t LayerType) String() string {
	switch t {
	case LayerTypeEthernet:
		return "Ethernet"
	case LayerTypeChain:
		return "Chain"
	case LayerTypeIPv4:
		return "IPv4"
	case LayerTypeUDP:
		return "UDP"
	case LayerTypeTCP:
		return "TCP"
	case LayerTypeESP:
		return "ESP"
	case LayerTypeKVS:
		return "KVS"
	case LayerTypeDMA:
		return "DMA"
	case LayerTypePayload:
		return "Payload"
	default:
		return fmt.Sprintf("LayerType(%d)", uint8(t))
	}
}

// Layer is one decoded protocol header.
type Layer interface {
	// LayerType identifies the layer.
	LayerType() LayerType
	// HeaderLen returns the serialized header length in bytes.
	HeaderLen() int
	// Marshal appends the serialized header to b.
	Marshal(b []byte) []byte
	// Unmarshal parses the header from the front of b and returns the
	// number of bytes consumed.
	Unmarshal(b []byte) (int, error)
}

// Decoding errors.
var (
	ErrTruncated   = errors.New("packet: truncated header")
	ErrBadField    = errors.New("packet: field value out of range")
	ErrUnknownNext = errors.New("packet: unknown next-layer type")
)

// Packet is a message: real header bytes, the decoded layer stack, and a
// virtual payload length.
type Packet struct {
	// Buf holds the serialized headers (not the virtual payload).
	Buf []byte
	// Layers is the decoded header stack, outermost first.
	Layers []Layer
	// PayloadLen is the virtual payload size in bytes (bytes on the wire
	// after the last decoded header).
	PayloadLen int
	// spare is a chain header the packet shed, kept for reuse by
	// InsertChainHops; it is not part of the packet.
	spare *Chain
}

// WireLen returns the total on-wire size in bytes: headers plus virtual
// payload. It does not include the Ethernet preamble/IFG overhead; see
// WireOverheadBytes.
func (p *Packet) WireLen() int { return len(p.Buf) + p.PayloadLen }

// WireOverheadBytes is the per-frame Ethernet overhead that occupies link
// time but is not part of the frame: 7 bytes preamble + 1 SFD + 12 IFG.
// Together with the 64-byte minimum frame this gives the canonical 84-byte
// minimum wire size used by the paper's Table 2.
const WireOverheadBytes = 20

// MinFrameBytes is the minimum Ethernet frame size (incl. FCS).
const MinFrameBytes = 64

// Layer returns the first layer of the given type, or nil.
func (p *Packet) Layer(t LayerType) Layer {
	for _, l := range p.Layers {
		if l.LayerType() == t {
			return l
		}
	}
	return nil
}

// Has reports whether the packet contains a layer of the given type.
func (p *Packet) Has(t LayerType) bool { return p.Layer(t) != nil }

// String summarizes the layer stack, e.g. "Ethernet/IPv4/UDP/KVS(+982B)".
func (p *Packet) String() string {
	var b strings.Builder
	for i, l := range p.Layers {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(l.LayerType().String())
	}
	if p.PayloadLen > 0 {
		fmt.Fprintf(&b, "(+%dB)", p.PayloadLen)
	}
	return b.String()
}

// Serialize rebuilds Buf from Layers. Call it after mutating any layer.
// The buffer is sized up front from the declared header lengths, so the
// marshal appends never reallocate (packet construction is on the
// generator hot path).
func (p *Packet) Serialize() {
	n := 0
	for _, l := range p.Layers {
		n += l.HeaderLen()
	}
	b := p.Buf
	if cap(b) < n {
		b = make([]byte, 0, n)
	} else {
		b = b[:0]
	}
	for _, l := range p.Layers {
		b = l.Marshal(b)
	}
	p.Buf = b
}

// NewPacket builds a packet from a layer stack and a virtual payload length
// and serializes it.
func NewPacket(payloadLen int, layers ...Layer) *Packet {
	p := &Packet{Layers: layers, PayloadLen: payloadLen}
	p.Serialize()
	return p
}

// Decode parses wire bytes into a packet. wireLen is the total on-wire
// frame size; the difference between wireLen and the decoded header bytes
// becomes the virtual PayloadLen. Unknown inner protocols terminate
// decoding gracefully: the remaining bytes count as payload.
func Decode(buf []byte, wireLen int) (*Packet, error) {
	p := &Packet{Buf: buf}
	off := 0
	var next LayerType = LayerTypeEthernet
	for next != LayerTypePayload {
		l := newLayer(next)
		if l == nil {
			break // unknown: rest is payload
		}
		n, err := l.Unmarshal(buf[off:])
		if err != nil {
			return nil, fmt.Errorf("decoding %v at offset %d: %w", next, off, err)
		}
		off += n
		p.Layers = append(p.Layers, l)
		next = nextLayer(l)
	}
	if wireLen < off {
		return nil, fmt.Errorf("%w: wireLen %d < decoded headers %d", ErrTruncated, wireLen, off)
	}
	p.Buf = buf[:off]
	p.PayloadLen = wireLen - off
	return p, nil
}

// newLayer allocates an empty layer of the given type, or nil for types the
// decoder treats as opaque payload.
func newLayer(t LayerType) Layer {
	switch t {
	case LayerTypeEthernet:
		return &Ethernet{}
	case LayerTypeChain:
		return &Chain{}
	case LayerTypeIPv4:
		return &IPv4{}
	case LayerTypeUDP:
		return &UDP{}
	case LayerTypeTCP:
		return &TCP{}
	case LayerTypeESP:
		return &ESP{}
	case LayerTypeKVS:
		return &KVS{}
	case LayerTypeDMA:
		return &DMA{}
	default:
		return nil
	}
}

// nextLayer determines the layer following l, or LayerTypePayload when the
// stack ends.
func nextLayer(l Layer) LayerType {
	switch v := l.(type) {
	case *Ethernet:
		return etherTypeToLayer(v.EtherType)
	case *Chain:
		return etherTypeToLayer(v.InnerType)
	case *IPv4:
		switch v.Protocol {
		case ProtoUDP:
			return LayerTypeUDP
		case ProtoTCP:
			return LayerTypeTCP
		case ProtoESP:
			return LayerTypeESP
		default:
			return LayerTypePayload
		}
	case *UDP:
		if v.DstPort == KVSPort || v.SrcPort == KVSPort {
			return LayerTypeKVS
		}
		return LayerTypePayload
	default:
		return LayerTypePayload
	}
}

func etherTypeToLayer(et uint16) LayerType {
	switch et {
	case EtherTypeIPv4:
		return LayerTypeIPv4
	case EtherTypeChain:
		return LayerTypeChain
	case EtherTypeDMA:
		return LayerTypeDMA
	default:
		return LayerTypePayload
	}
}
