package core

import "github.com/panic-nic/panic/internal/packet"

// KVSHost models the host-side key-value store behind the DMA engine: the
// authoritative store that serves cache misses and absorbs SETs. It
// implements engine.HostResponder. Responses re-enter the NIC after
// ServiceCycles, modeling the host's software path (process, post TX
// descriptor, descriptor fetch) that the on-NIC cache exists to bypass.
type KVSHost struct {
	// ServiceCycles is the host processing latency per request.
	ServiceCycles uint64
	// DefaultValueBytes sizes responses for keys never SET.
	DefaultValueBytes uint32
	// SoftCryptoCycles is the added cost of decrypting a still-encrypted
	// request in host software — the punt-to-host degraded mode (Fig 2c)
	// the control plane falls back to when the IPSec engine fails with no
	// replica. NewKVSHost defaults it to 4x ServiceCycles.
	SoftCryptoCycles uint64

	store map[uint64]uint32
	pool  *packet.MessagePool
	// txq holds responses waiting for the TX-DMA engine, ordered by the
	// cycle the host software finishes producing them.
	txq hostTxQueue

	gets, sets   uint64
	softDecrypts uint64
}

type hostTxItem struct {
	msg   *packet.Message
	ready uint64
	seq   uint64
}

// hostTxQueue is a binary min-heap on (ready, seq). It is typed rather
// than a container/heap, whose interface boxes every pushed and popped item.
type hostTxQueue struct {
	items []hostTxItem
	seq   uint64
}

func (q *hostTxQueue) less(i, j int) bool {
	if q.items[i].ready != q.items[j].ready {
		return q.items[i].ready < q.items[j].ready
	}
	return q.items[i].seq < q.items[j].seq
}

func (q *hostTxQueue) push(msg *packet.Message, ready uint64) {
	q.seq++
	q.items = append(q.items, hostTxItem{msg: msg, ready: ready, seq: q.seq})
	for i := len(q.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *hostTxQueue) pop() *packet.Message {
	msg := q.items[0].msg
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = hostTxItem{}
	q.items = q.items[:last]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < last && q.less(l, least) {
			least = l
		}
		if r < last && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q.items[i], q.items[least] = q.items[least], q.items[i]
		i = least
	}
	return msg
}

// NewKVSHost builds the host model.
func NewKVSHost(serviceCycles uint64, defaultValueBytes uint32) *KVSHost {
	return &KVSHost{
		ServiceCycles:     serviceCycles,
		DefaultValueBytes: defaultValueBytes,
		SoftCryptoCycles:  4 * serviceCycles,
		store:             make(map[uint64]uint32),
	}
}

// UsePool makes the host build its responses from the given pool (the NIC
// it sits behind hands over its own). Without one every response is
// freshly allocated; they are byte-identical either way.
func (h *KVSHost) UsePool(p *packet.MessagePool) { h.pool = p }

// Respond implements engine.HostResponder. A request that arrives still
// encrypted (ESP with stashed plaintext — the punt-to-host degraded mode)
// is decrypted in host software at SoftCryptoCycles extra latency; the
// response is sent in the clear, since the re-encryption path needs the
// (failed) IPSec engine.
func (h *KVSHost) Respond(msg *packet.Message, now uint64) (*packet.Message, uint64, bool) {
	pkt := msg.Pkt
	extra := uint64(0)
	if pkt.Has(packet.LayerTypeESP) {
		if msg.Inner == nil {
			return nil, 0, false
		}
		pkt = msg.Inner
		extra = h.SoftCryptoCycles
		h.softDecrypts++
	}
	l := pkt.Layer(packet.LayerTypeKVS)
	if l == nil {
		return nil, 0, false
	}
	k := l.(*packet.KVS)
	switch k.Op {
	case packet.KVSGet:
		h.gets++
		vlen, ok := h.store[k.Key]
		if !ok {
			vlen = h.DefaultValueBytes
		}
		return h.reply(msg, pkt, k, packet.KVSGetResp, vlen), h.ServiceCycles + extra, true
	case packet.KVSSet:
		h.sets++
		h.store[k.Key] = k.ValueLen
		return h.reply(msg, pkt, k, packet.KVSSetResp, 0), h.ServiceCycles + extra, true
	default:
		return nil, 0, false
	}
}

// reply builds the response packet with swapped addressing and no chain;
// it re-enters through the RMT pipeline like any TX packet. pkt is the
// (possibly software-decrypted) request headers.
func (h *KVSHost) reply(req *packet.Message, pkt *packet.Packet, k *packet.KVS, op packet.KVSOp, vlen uint32) *packet.Message {
	reqEth := pkt.Layer(packet.LayerTypeEthernet).(*packet.Ethernet)
	reqIP := pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
	reqUDP := pkt.Layer(packet.LayerTypeUDP).(*packet.UDP)
	resp := h.pool.KVS(int(vlen),
		packet.Ethernet{Dst: reqEth.Src, Src: reqEth.Dst, EtherType: packet.EtherTypeIPv4},
		packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: reqIP.Dst, Dst: reqIP.Src},
		packet.UDP{SrcPort: reqUDP.DstPort, DstPort: reqUDP.SrcPort},
		packet.KVS{Op: op, Tenant: k.Tenant, Key: k.Key, ValueLen: vlen},
	)
	resp.ID = req.ID
	resp.TraceID = req.TraceID
	resp.Tenant = req.Tenant
	resp.Class = req.Class
	resp.Inject = req.Inject
	resp.Port = req.Port
	return resp
}

// Absorb implements engine.Sink-style delivery for the split RX/TX DMA
// datapath: the delivered request is processed by host software, and the
// response is queued for the TX-DMA engine to fetch ServiceCycles later.
func (h *KVSHost) Absorb(msg *packet.Message, now uint64) {
	resp, delay, ok := h.Respond(msg, now)
	if !ok {
		return
	}
	h.txq.push(resp, now+delay)
}

// EnqueueTx queues an arbitrary host transmission (e.g. a large TCP send
// for the LSO engine) for the TX-DMA engine to fetch at the given cycle.
func (h *KVSHost) EnqueueTx(msg *packet.Message, ready uint64) {
	h.txq.push(msg, ready)
}

// Poll implements engine.Source: the TX-DMA engine fetches responses whose
// host processing has finished.
func (h *KVSHost) Poll(now uint64) *packet.Message {
	if len(h.txq.items) == 0 || h.txq.items[0].ready > now {
		return nil
	}
	return h.txq.pop()
}

// NextArrival implements engine.ArrivalSource: the earliest cycle at which
// Poll will return a response, which is exactly the head item's ready time
// (the heap is ordered by it). ok is false when nothing is queued — new
// work can only appear through Absorb or EnqueueTx, both of which run from
// components that are themselves non-quiescent until the enqueue lands.
func (h *KVSHost) NextArrival(now uint64) (uint64, bool) {
	if len(h.txq.items) == 0 {
		return 0, false
	}
	r := h.txq.items[0].ready
	if r < now {
		r = now
	}
	return r, true
}

// TxBacklog returns the number of responses awaiting fetch.
func (h *KVSHost) TxBacklog() int { return len(h.txq.items) }

// Counts returns (gets served, sets absorbed).
func (h *KVSHost) Counts() (gets, sets uint64) { return h.gets, h.sets }

// SoftDecrypts returns the number of requests the host had to decrypt in
// software (punt-to-host degraded mode).
func (h *KVSHost) SoftDecrypts() uint64 { return h.softDecrypts }

// Store exposes the authoritative map size (tests).
func (h *KVSHost) StoreLen() int { return len(h.store) }
