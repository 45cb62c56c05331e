package engine

import (
	"github.com/panic-nic/panic/internal/packet"
)

// KVSCacheConfig parameterizes the on-NIC key-value cache engine.
type KVSCacheConfig struct {
	// Capacity is the number of cached key locations (the paper: "the
	// NIC can cache the location of values for hot keys").
	Capacity int
	// LookupCycles is the fixed cost of a cache probe.
	LookupCycles uint64
	// RDMAAddr is where cache hits are forwarded: the RDMA engine builds
	// and sends the reply, fully bypassing the host CPU.
	RDMAAddr packet.Addr
}

// KVSCacheEngine is the paper's on-NIC application cache (§2.2): GET
// requests that hit are diverted to the RDMA engine for a CPU-bypass
// reply; misses continue along their chain to the DMA engine and host.
// SETs update the cache and continue to the host (the log append).
type KVSCacheEngine struct {
	cfg   KVSCacheConfig
	cache *lruCache
	outs  outBuf

	hits, misses, sets uint64
}

// NewKVSCacheEngine builds the engine.
func NewKVSCacheEngine(cfg KVSCacheConfig) *KVSCacheEngine {
	if cfg.RDMAAddr == packet.AddrInvalid {
		panic("engine: KVS cache requires an RDMA engine address")
	}
	return &KVSCacheEngine{cfg: cfg, cache: newLRUCache(cfg.Capacity)}
}

// Name implements Engine.
func (e *KVSCacheEngine) Name() string { return "kvscache" }

// ServiceCycles implements Engine.
func (e *KVSCacheEngine) ServiceCycles(*packet.Message) uint64 {
	if e.cfg.LookupCycles == 0 {
		return 1
	}
	return e.cfg.LookupCycles
}

// Process implements Engine.
func (e *KVSCacheEngine) Process(ctx *Ctx, msg *packet.Message) []Out {
	l := msg.Pkt.Layer(packet.LayerTypeKVS)
	if l == nil {
		// Not a KVS message: pass through along the chain.
		return e.outs.one(Out{Msg: msg})
	}
	kvs := l.(*packet.KVS)
	switch kvs.Op {
	case packet.KVSGet:
		if vlen, ok := e.cache.Get(kvs.Key); ok {
			e.hits++
			kvs.ValueLen = vlen
			// Advance past this engine's own chain hop before diverting:
			// if the RDMA engine is saturated and sheds the request back
			// along the chain, it must continue to the DMA/host hop, not
			// loop back here.
			if c := msg.Chain(); c != nil {
				if hop, chainOK := c.Current(); chainOK && hop.Engine == ctx.Addr {
					c.Advance()
				}
			}
			msg.Pkt.Serialize()
			return e.outs.one(Out{Msg: msg, To: e.cfg.RDMAAddr})
		}
		e.misses++
		kvs.Flags |= packet.KVSFlagMiss
		msg.Pkt.Serialize()
	case packet.KVSSet:
		e.sets++
		e.cache.Put(kvs.Key, kvs.ValueLen)
	}
	return e.outs.one(Out{Msg: msg})
}

// Warm pre-populates the cache (test and experiment setup).
func (e *KVSCacheEngine) Warm(key uint64, valueLen uint32) {
	e.cache.Put(key, valueLen)
}

// Counts returns (hits, misses, sets).
func (e *KVSCacheEngine) Counts() (hits, misses, sets uint64) {
	return e.hits, e.misses, e.sets
}

// CacheLen returns the current number of cached keys.
func (e *KVSCacheEngine) CacheLen() int { return e.cache.Len() }

// RDMAConfig parameterizes the RDMA engine.
type RDMAConfig struct {
	// DMAAddr is the DMA engine serving the value reads.
	DMAAddr packet.Addr
	// IssueCycles is the per-request cost of building a DMA descriptor
	// or a reply header.
	IssueCycles uint64
	// MaxOutstanding bounds in-flight DMA reads; further hits queue in
	// the scheduling queue by occupying the engine.
	MaxOutstanding int
}

// RDMAEngine serves cache-hit GETs without the host CPU (§3.2): it issues
// a DMA read for the value, and on completion builds the response packet
// and injects it toward the wire via the RMT pipeline.
type RDMAEngine struct {
	cfg     RDMAConfig
	pending map[uint64]*packet.Message
	nextTag uint64
	outs    outBuf

	issued, replies uint64
}

// NewRDMAEngine builds the engine.
func NewRDMAEngine(cfg RDMAConfig) *RDMAEngine {
	if cfg.DMAAddr == packet.AddrInvalid {
		panic("engine: RDMA requires a DMA engine address")
	}
	if cfg.MaxOutstanding < 1 {
		cfg.MaxOutstanding = 64
	}
	return &RDMAEngine{cfg: cfg, pending: make(map[uint64]*packet.Message)}
}

// Name implements Engine.
func (e *RDMAEngine) Name() string { return "rdma" }

// ServiceCycles implements Engine.
func (e *RDMAEngine) ServiceCycles(*packet.Message) uint64 {
	if e.cfg.IssueCycles == 0 {
		return 1
	}
	return e.cfg.IssueCycles
}

// Process implements Engine. A read completion is consumed, and so is the
// request it answers once the reply is built.
func (e *RDMAEngine) Process(ctx *Ctx, msg *packet.Message) []Out {
	if l := msg.Pkt.Layer(packet.LayerTypeDMA); l != nil {
		d := l.(*packet.DMA)
		orig, ok := e.pending[d.HostAddr]
		if d.Op != packet.DMAReadCompl || !ok {
			ctx.Pool.Put(msg)
			return nil
		}
		delete(e.pending, d.HostAddr)
		e.replies++
		reply := e.buildReply(ctx, orig, d.Len)
		ctx.Pool.Put(orig)
		ctx.Pool.Put(msg)
		return e.outs.one(Out{Msg: reply})
	}

	kvsLayer := msg.Pkt.Layer(packet.LayerTypeKVS)
	if kvsLayer == nil {
		ctx.Pool.Put(msg)
		return nil
	}
	k := kvsLayer.(*packet.KVS)
	if len(e.pending) >= e.cfg.MaxOutstanding {
		// Saturated: shed back along the chain (to the host path) so the
		// request is still served, just without CPU bypass.
		k.Flags |= packet.KVSFlagMiss
		msg.Pkt.Serialize()
		return e.outs.one(Out{Msg: msg})
	}
	e.nextTag++
	tag := e.nextTag
	e.pending[tag] = msg
	e.issued++
	read := newControl(ctx, msg, 0, packet.DMA{Op: packet.DMARead, Requester: ctx.Addr, Len: k.ValueLen, HostAddr: tag})
	return e.outs.one(Out{Msg: read, To: e.cfg.DMAAddr})
}

// buildReply constructs the GET response from the original request:
// swapped addresses and ports, response opcode, the value as payload, and
// no chain — the default route sends it through the RMT pipeline, whose TX
// program steers it to an Ethernet port.
func (e *RDMAEngine) buildReply(ctx *Ctx, req *packet.Message, valueLen uint32) *packet.Message {
	reqEth := req.Pkt.Layer(packet.LayerTypeEthernet).(*packet.Ethernet)
	reqIP := req.Pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
	reqUDP := req.Pkt.Layer(packet.LayerTypeUDP).(*packet.UDP)
	reqKVS := req.Pkt.Layer(packet.LayerTypeKVS).(*packet.KVS)
	resp := ctx.Pool.KVS(int(valueLen),
		packet.Ethernet{Dst: reqEth.Src, Src: reqEth.Dst, EtherType: packet.EtherTypeIPv4},
		packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: reqIP.Dst, Dst: reqIP.Src},
		packet.UDP{SrcPort: reqUDP.DstPort, DstPort: reqUDP.SrcPort},
		packet.KVS{Op: packet.KVSGetResp, Tenant: reqKVS.Tenant, Key: reqKVS.Key, ValueLen: valueLen},
	)
	resp.ID = req.ID
	resp.TraceID = req.TraceID
	resp.Tenant = req.Tenant
	resp.Class = req.Class
	resp.Port = req.Port // reply leaves through the arrival port
	resp.Inject = req.Inject
	return resp
}

// Counts returns (DMA reads issued, replies sent).
func (e *RDMAEngine) Counts() (issued, replies uint64) {
	return e.issued, e.replies
}

// PendingReads returns the number of in-flight value reads.
func (e *RDMAEngine) PendingReads() int { return len(e.pending) }
