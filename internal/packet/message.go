package packet

import "fmt"

// Class is a traffic class used by workloads and the logical scheduler.
type Class uint8

// Traffic classes.
const (
	ClassBulk Class = iota
	ClassLatency
	ClassControl
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassBulk:
		return "bulk"
	case ClassLatency:
		return "latency"
	case ClassControl:
		return "control"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Message is the unit that flows through a simulated NIC: a packet plus the
// simulation metadata that a real NIC would keep in per-packet descriptor
// state (not on the wire).
type Message struct {
	// ID is unique per simulation for tracing.
	ID uint64
	// TraceID identifies the message to the tracing subsystem
	// (internal/trace). Workload IDs are per-source and collide across
	// ports, so the ingress MAC stamps a globally unique, deterministic
	// TraceID — (port+1)<<48 | per-port sequence — on every fresh
	// arrival; engines that derive new messages (DMA completions, host
	// responses, LSO segments) copy the parent's TraceID so a request
	// and everything it spawns share one trace. 0 means untraced.
	TraceID uint64
	// Pkt is the wire representation.
	Pkt *Packet
	// Inject is the cycle the message entered the NIC (or was created by
	// an engine); Done is the cycle it left (delivered to host or wire).
	Inject, Done uint64
	// Deadline, when non-zero, is the absolute cycle by which the message
	// should complete; the RMT pipeline derives slack values from it.
	Deadline uint64
	// Tenant and Class describe the originating application for
	// scheduling and accounting.
	Tenant uint16
	Class  Class
	// released marks a message its holder released to a MessagePool; only
	// poolcheck builds set it.
	released bool
	// Port is the Ethernet port index the message arrived on (or will
	// leave from), -1 for NIC-internal messages.
	Port int
	// Trace, when enabled, records each engine visit.
	Trace []Visit
	// EnqueuedAt is scratch used by scheduling queues: the cycle the
	// message entered its current queue (a message sits in at most one
	// queue at a time).
	EnqueuedAt uint64
	// Needs lists the offload-engine names this message still requires,
	// in order. It is descriptor-side metadata used by the baseline
	// architectures of internal/baseline, which have no chain header;
	// nil means "not yet derived". PANIC itself never reads it.
	Needs []string
	// Inner carries an encapsulated plaintext packet for encrypted
	// messages: the simulator does not materialize ciphertext bytes, so
	// the IPSec engine swaps Inner in when it "decrypts" (a documented
	// substitution for real crypto, which is irrelevant to the paper's
	// scheduling and switching claims).
	Inner *Packet
}

// Visit is one step of a message's path, for tracing and tests.
type Visit struct {
	Engine Addr
	// Enqueued and Started are the cycles the message entered the
	// engine's scheduling queue and began service.
	Enqueued, Started uint64
}

// Chain returns the message's chain shim header, or nil.
func (m *Message) Chain() *Chain {
	if l := m.Pkt.Layer(LayerTypeChain); l != nil {
		return l.(*Chain)
	}
	return nil
}

// WireLen returns the message's on-wire size in bytes.
func (m *Message) WireLen() int { return m.Pkt.WireLen() }

// Lossless reports whether the message must not be dropped: control-class
// messages and messages whose chain carries the lossless flag.
func (m *Message) Lossless() bool {
	if m.Class == ClassControl {
		return true
	}
	if c := m.Chain(); c != nil {
		return c.Lossless()
	}
	return false
}

// String summarizes the message for traces.
func (m *Message) String() string {
	return fmt.Sprintf("msg#%d[%s tenant=%d %s %dB]", m.ID, m.Pkt, m.Tenant, m.Class, m.WireLen())
}

// InsertChain inserts a chain shim header directly after the Ethernet
// header, taking over the Ethernet EtherType, and reserializes the packet.
// The layer stack shifts in place when it has room. It panics if the
// packet has no Ethernet layer or already has a chain.
func (m *Message) InsertChain(c *Chain) {
	if m.Pkt.Has(LayerTypeChain) {
		panic("packet: InsertChain on packet that already has a chain")
	}
	eth, ok := m.Pkt.Layers[0].(*Ethernet)
	if !ok {
		panic("packet: InsertChain on packet without Ethernet layer")
	}
	c.InnerType = eth.EtherType
	eth.EtherType = EtherTypeChain
	layers := append(m.Pkt.Layers, nil)
	copy(layers[2:], layers[1:])
	layers[1] = c
	m.Pkt.Layers = layers
	m.Pkt.Serialize()
}

// InsertChainHops inserts a chain shim carrying flags and a copy of hops,
// with its cursor at the first hop (see InsertChain). It reuses the chain
// header, and its hop buffer, that the packet last shed.
func (m *Message) InsertChainHops(flags uint8, hops []Hop) {
	c := m.Pkt.spare
	m.Pkt.spare = nil
	if c == nil {
		s := &spareChain{}
		s.chain.Hops = s.hops[:0]
		c = &s.chain
	}
	c.Cursor = 0
	c.Flags = flags
	c.Hops = append(c.Hops[:0], hops...)
	m.InsertChain(c)
}

// spareChain allocates a chain header together with room for the hops of
// the canonical steering program's chains.
type spareChain struct {
	chain Chain
	hops  [4]Hop
}

// StripChain removes the chain shim header (the deparse step when a message
// finally leaves the NIC through an Ethernet port) and reserializes. It is
// a no-op for packets without a chain. The removed header stays with the
// packet as its spare for InsertChainHops.
func (m *Message) StripChain() {
	if c := m.Pkt.removeChain(); c != nil {
		m.Pkt.spare = c
		m.Pkt.Serialize()
	}
}

// removeChain takes the chain shim out of the layer stack in place,
// restoring the Ethernet EtherType, and returns it (nil when absent). Buf
// is left stale.
func (p *Packet) removeChain() *Chain {
	if len(p.Layers) < 2 {
		return nil
	}
	c, ok := p.Layers[1].(*Chain)
	if !ok {
		return nil
	}
	p.Layers[0].(*Ethernet).EtherType = c.InnerType
	n := copy(p.Layers[1:], p.Layers[2:])
	p.Layers[1+n] = nil
	p.Layers = p.Layers[:1+n]
	return c
}
