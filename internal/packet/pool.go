package packet

import "fmt"

// MessagePool recycles Message shells within one simulated NIC, the way a
// real NIC recycles descriptor and buffer slots through free rings. Every
// message a NIC creates comes from its pool, and every message that leaves
// the NIC for good goes back to it, so the steady state allocates nothing
// per message.
//
// Ownership rule: whoever holds a message at a terminal point — a sink
// that delivers it, a drop, an engine that consumes it — releases it with
// Put exactly once, and nothing may touch it afterwards. A holder that
// hands the message to an observer that may keep it (a LatencyCollector
// with OnDeliver set) does not release it. Builds with the poolcheck tag
// poison and quarantine released shells and make AssertLive catch any
// use after release.
//
// Producers ask for a header shape (UDP, KVS, DMA) and get a message whose
// packet holds exactly those headers with every other field zero. The
// fourth shape, ESP, is a packet without a message: the outer shell an
// encrypted message wears over its plaintext (Message.Encapsulate). The
// recycled and the fresh path produce byte-identical messages, so pooling
// never changes simulation results, only the allocator's work.
//
// A pool belongs to one NIC kernel and is used from that kernel's
// goroutine only, so it has no lock. A nil *MessagePool is valid: it
// allocates every message and drops every Put.
type MessagePool struct {
	free [numShapes][]*Message
	// esp holds the outer packets of encrypted messages, a packet-only
	// shape: the message around one is the plaintext's.
	esp []*Packet
	// quarantine holds released shells in poolcheck builds before they
	// return to the free lists.
	quarantine []quarantined
}

// shape is a packet's header layout (chain shim excluded), the key of the
// pool's free lists: a shell is only ever rebuilt into its own shape, so
// no list wastes shells another shape would have needed.
type shape uint8

const (
	shapeNone shape = iota // not recycled
	shapeUDP               // Ethernet/IPv4/UDP
	shapeKVS               // Ethernet/IPv4/UDP/KVS
	shapeDMA               // Ethernet/DMA
	numShapes
)

// maxFree bounds each free list. A burst that returns more shells than this
// lets the surplus go to the garbage collector: an unbounded list would pin
// the largest in-flight population the run ever reached.
const maxFree = 256

// NewMessagePool returns an empty pool. Shells are allocated on demand, so
// a new pool costs nothing until the first release.
func NewMessagePool() *MessagePool { return &MessagePool{} }

// UDP returns a message carrying Ethernet/IPv4/UDP headers and a virtual
// payload of payload bytes.
func (p *MessagePool) UDP(payload int, eth Ethernet, ip IPv4, udp UDP) *Message {
	if m := p.get(shapeUDP); m != nil {
		l := m.Pkt.Layers
		*l[0].(*Ethernet), *l[1].(*IPv4), *l[2].(*UDP) = eth, ip, udp
		return m.rebuild(payload)
	}
	s := &udpShell{eth: eth, ip: ip, udp: udp}
	s.layers = [...]Layer{&s.eth, &s.ip, &s.udp, nil}
	return s.msg.assemble(&s.pkt, s.layers[:3], s.buf[:0], payload)
}

// KVS returns a message carrying Ethernet/IPv4/UDP/KVS headers and a
// virtual payload of payload bytes.
func (p *MessagePool) KVS(payload int, eth Ethernet, ip IPv4, udp UDP, kvs KVS) *Message {
	if m := p.get(shapeKVS); m != nil {
		l := m.Pkt.Layers
		*l[0].(*Ethernet), *l[1].(*IPv4), *l[2].(*UDP), *l[3].(*KVS) = eth, ip, udp, kvs
		return m.rebuild(payload)
	}
	s := &kvsShell{eth: eth, ip: ip, udp: udp, kvs: kvs}
	s.layers = [...]Layer{&s.eth, &s.ip, &s.udp, &s.kvs, nil}
	return s.msg.assemble(&s.pkt, s.layers[:4], s.buf[:0], payload)
}

// DMA returns an on-NIC DMA message carrying Ethernet/DMA headers and a
// virtual payload of payload bytes.
func (p *MessagePool) DMA(payload int, eth Ethernet, dma DMA) *Message {
	if m := p.get(shapeDMA); m != nil {
		l := m.Pkt.Layers
		*l[0].(*Ethernet), *l[1].(*DMA) = eth, dma
		return m.rebuild(payload)
	}
	s := &dmaShell{eth: eth, dma: dma}
	s.layers = [...]Layer{&s.eth, &s.dma}
	return s.msg.assemble(&s.pkt, s.layers[:2], s.buf[:0], payload)
}

// ESP returns the outer packet of an encrypted message (see
// Message.Encapsulate): Ethernet/IPv4/ESP headers and a virtual payload of
// payload bytes, the ciphertext. Shells come back through PutESP, or with
// the message when Put releases an encrypted one.
func (p *MessagePool) ESP(payload int, eth Ethernet, ip IPv4, esp ESP) *Packet {
	if pkt := p.getESP(); pkt != nil {
		l := pkt.Layers
		*l[0].(*Ethernet), *l[1].(*IPv4), *l[2].(*ESP) = eth, ip, esp
		pkt.PayloadLen = payload
		pkt.Serialize()
		return pkt
	}
	s := &espShell{eth: eth, ip: ip, esp: esp}
	s.layers = [...]Layer{&s.eth, &s.ip, &s.esp, nil}
	s.pkt.Layers, s.pkt.Buf, s.pkt.PayloadLen = s.layers[:3], s.buf[:0], payload
	s.pkt.Serialize()
	return &s.pkt
}

// PutESP releases the outer packet of a message its caller decapsulated,
// under the same rule as Put: exactly once, and nothing may touch it
// afterwards. Packets of any other layout are left to the garbage
// collector.
func (p *MessagePool) PutESP(pkt *Packet) {
	if p == nil || pkt == nil {
		return
	}
	if PoolCheck && pkt.PayloadLen == poisonLen {
		panic("packet: ESP shell released twice")
	}
	pkt.shedChain()
	if !isESPShell(pkt) {
		return
	}
	if PoolCheck {
		poisonPacket(pkt)
		p.enqueueQuarantine(quarantined{pkt: pkt})
		return
	}
	p.recycleESP(pkt)
}

// The fresh path allocates a message, its packet, its headers, its layer
// stack and a header buffer as one object. Frames get room for the chain
// shim the RMT deparser inserts; the buffers fit the short chains most
// frames carry, and a longer chain grows them once. Each shell fills an
// allocator size class (352, 416, 240 and 288 bytes, in order): messages
// queued in an overloaded NIC stay in the heap, so every byte counts there.
type udpShell struct {
	msg    Message
	pkt    Packet
	eth    Ethernet
	ip     IPv4
	udp    UDP
	layers [4]Layer
	buf    [56]byte
}

type kvsShell struct {
	msg    Message
	pkt    Packet
	eth    Ethernet
	ip     IPv4
	udp    UDP
	kvs    KVS
	layers [5]Layer
	buf    [80]byte
}

type espShell struct {
	pkt    Packet
	eth    Ethernet
	ip     IPv4
	esp    ESP
	layers [4]Layer
	buf    [72]byte
}

type dmaShell struct {
	msg    Message
	pkt    Packet
	eth    Ethernet
	dma    DMA
	layers [2]Layer
	buf    [32]byte
}

func (m *Message) assemble(pkt *Packet, layers []Layer, buf []byte, payload int) *Message {
	pkt.Layers, pkt.Buf = layers, buf
	m.Pkt = pkt
	return m.rebuild(payload)
}

func (m *Message) rebuild(payload int) *Message {
	m.Pkt.PayloadLen = payload
	m.Pkt.Serialize()
	return m
}

func (p *MessagePool) get(s shape) *Message {
	if p == nil {
		return nil
	}
	return pop(&p.free[s])
}

func (p *MessagePool) getESP() *Packet {
	if p == nil {
		return nil
	}
	return pop(&p.esp)
}

func pop[T any](l *[]*T) *T {
	n := len(*l)
	if n == 0 {
		return nil
	}
	x := (*l)[n-1]
	(*l)[n-1] = nil
	*l = (*l)[:n-1]
	return x
}

// Put releases a message its caller holds at a terminal point. The shell is
// scrubbed: every descriptor field is zeroed, and a chain shim moves out of
// the layer stack into the packet's spare slot, where the next
// InsertChainHops finds it. An encrypted message is released as its
// plaintext, and its outer packet as an ESP shell, whose chain header goes
// to the plaintext when that has none. Shells of shapes no producer asks
// for, and shells beyond the free list's bound, are left to the garbage
// collector.
func (p *MessagePool) Put(m *Message) {
	if p == nil || m == nil {
		return
	}
	if PoolCheck && m.released {
		panic("packet: message released twice")
	}
	var outer *Packet
	if m.Inner != nil {
		outer, m.Pkt = m.Pkt, m.Inner
	}
	*m = Message{Pkt: m.Pkt}
	s := shapeNone
	if m.Pkt != nil {
		m.Pkt.shedChain()
		if outer != nil {
			outer.shedChain()
			if m.Pkt.spare == nil {
				m.Pkt.spare, outer.spare = outer.spare, nil
			}
			p.PutESP(outer)
		}
		s = shapeOf(m.Pkt)
	}
	if PoolCheck {
		poison(m)
		p.enqueueQuarantine(quarantined{m: m, s: s})
		return
	}
	p.recycle(m, s)
}

func (p *MessagePool) recycle(m *Message, s shape) {
	if s != shapeNone && len(p.free[s]) < maxFree {
		p.free[s] = append(p.free[s], m)
	}
}

func (p *MessagePool) recycleESP(pkt *Packet) {
	if len(p.esp) < maxFree {
		p.esp = append(p.esp, pkt)
	}
}

// Len returns the number of shells ready for reuse (tests).
func (p *MessagePool) Len() int {
	n := len(p.esp)
	for _, l := range p.free {
		n += len(l)
	}
	return n
}

// isESPShell reports whether a chainless packet has the ESP shape.
func isESPShell(pkt *Packet) bool {
	l := pkt.Layers
	if len(l) != 3 {
		return false
	}
	_, eth := l[0].(*Ethernet)
	_, ip := l[1].(*IPv4)
	_, esp := l[2].(*ESP)
	return eth && ip && esp
}

// shapeOf classifies a chainless packet by its layer stack.
func shapeOf(pkt *Packet) shape {
	l := pkt.Layers
	if len(l) < 2 {
		return shapeNone
	}
	if _, ok := l[0].(*Ethernet); !ok {
		return shapeNone
	}
	if len(l) == 2 {
		if _, ok := l[1].(*DMA); ok {
			return shapeDMA
		}
		return shapeNone
	}
	if _, ok := l[1].(*IPv4); !ok {
		return shapeNone
	}
	if _, ok := l[2].(*UDP); !ok {
		return shapeNone
	}
	switch len(l) {
	case 3:
		return shapeUDP
	case 4:
		if _, ok := l[3].(*KVS); ok {
			return shapeKVS
		}
	}
	return shapeNone
}

// Poisoning, for poolcheck builds. A released shell's descriptor fields —
// for an ESP shell, its payload length and header bytes — are overwritten
// with poison and the shell waits in quarantine while quarantineLen later
// releases go by; a stale holder that uses it in that window trips
// AssertLive, and one that writes to it is caught when the shell leaves
// quarantine with its poison disturbed.
const (
	quarantineLen = 1024
	poisonWord    = 0xDEADBEEFDEADBEEF
	poisonLen     = -0xDEAD
	poisonByte    = 0xDE
)

// quarantined is a released message of shape s, or an ESP shell pkt.
type quarantined struct {
	m   *Message
	s   shape
	pkt *Packet
}

func (p *MessagePool) enqueueQuarantine(q quarantined) {
	p.quarantine = append(p.quarantine, q)
	if len(p.quarantine) <= quarantineLen {
		return
	}
	q = p.quarantine[0]
	p.quarantine = p.quarantine[:copy(p.quarantine, p.quarantine[1:])]
	if q.m == nil {
		if !packetPoisoned(q.pkt) {
			panic(fmt.Sprintf("packet: released ESP shell written to during quarantine: %s %x", q.pkt, q.pkt.Buf))
		}
		q.pkt.PayloadLen = 0
		p.recycleESP(q.pkt)
		return
	}
	if !poisoned(q.m) {
		panic(fmt.Sprintf("packet: released message written to during quarantine: %+v", *q.m))
	}
	*q.m = Message{Pkt: q.m.Pkt}
	p.recycle(q.m, q.s)
}

func poison(m *Message) {
	m.released = true
	m.ID, m.TraceID, m.Inject, m.Done = poisonWord, poisonWord, poisonWord, poisonWord
	m.Deadline, m.EnqueuedAt = poisonWord, poisonWord
	m.Port, m.Tenant, m.Class = -0xDEAD, 0xDEAD, 0xDE
}

// poisoned reports whether m still reads exactly as poison left it.
func poisoned(m *Message) bool {
	return m.released && m.ID == poisonWord && m.TraceID == poisonWord && m.Inject == poisonWord &&
		m.Done == poisonWord && m.Deadline == poisonWord && m.EnqueuedAt == poisonWord &&
		m.Port == -0xDEAD && m.Tenant == 0xDEAD && m.Class == 0xDE &&
		m.Needs == nil && m.Inner == nil
}

// poisonPacket marks a released ESP shell: a payload length no live packet
// has, and header bytes that decode as nothing.
func poisonPacket(pkt *Packet) {
	pkt.PayloadLen = poisonLen
	for i := range pkt.Buf {
		pkt.Buf[i] = poisonByte
	}
}

// packetPoisoned reports whether pkt still reads exactly as poisonPacket
// left it.
func packetPoisoned(pkt *Packet) bool {
	if pkt.PayloadLen != poisonLen || !isESPShell(pkt) {
		return false
	}
	for _, b := range pkt.Buf {
		if b != poisonByte {
			return false
		}
	}
	return true
}

// AssertLive panics when m, or the packet it wears, has been released to a
// pool. It compiles to nothing unless the program is built with the
// poolcheck tag.
func (m *Message) AssertLive() {
	if !PoolCheck {
		return
	}
	if m.released {
		panic("packet: use of a message after its release to the pool")
	}
	if m.Pkt != nil {
		m.Pkt.AssertLive()
	}
}

// AssertLive panics when pkt is an ESP shell released to a pool. It
// compiles to nothing unless the program is built with the poolcheck tag.
func (pkt *Packet) AssertLive() {
	if PoolCheck && pkt.PayloadLen == poisonLen {
		panic("packet: use of an ESP shell after its release to the pool")
	}
}
