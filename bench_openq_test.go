package bench

// Benchmarks for the open questions of the paper's §6: flow control
// (virtual channels), engine placement, descriptor-vs-full-packet
// switching, and DoS shedding.

import (
	"strconv"
	"testing"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/noc"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
	"github.com/panic-nic/panic/internal/workload"
)

// BenchmarkVirtualChannels — §6: "What is the best way to provide flow
// control for lossless forwarding so that neither the heavyweight RMT
// pipeline nor the on-chip network are ever stalled by a slow or
// overloaded engine?" Virtual channels let packets interleave past a
// blocked wormhole: saturation throughput rises with VC count.
func BenchmarkVirtualChannels(b *testing.B) {
	for _, vcs := range []int{1, 2, 4, 8} {
		vcs := vcs
		b.Run(strconv.Itoa(vcs)+"vc", func(b *testing.B) {
			var gbps float64
			for i := 0; i < b.N; i++ {
				cfg := noc.DefaultMeshConfig()
				cfg.VirtualChannels = vcs
				gbps = noc.MeasureSaturation(noc.NewMesh(cfg), freq, 64, 2000, 10_000, 1).DeliveredGbps
			}
			b.ReportMetric(gbps, "saturation_Gbps")
		})
	}
}

// BenchmarkEnginePlacement — §6: "How should different engines be placed
// in this topology?" Spread placement distributes flows over the mesh;
// compact placement clusters every engine into one corner, concentrating
// all traffic on a few links.
func BenchmarkEnginePlacement(b *testing.B) {
	run := func(compact bool) (p99us float64, drops uint64) {
		cfg := core.DefaultConfig()
		cfg.CompactPlacement = compact
		src := workload.NewKVSStream(workload.KVSTenantConfig{
			Tenant: 1, Class: packet.ClassLatency,
			RateGbps: 16, FreqHz: freq, Poisson: true,
			Keys: 4096, GetRatio: 0.9, WANShare: 0.3, ValueBytes: 512, Seed: 21,
		})
		nic := core.NewNIC(cfg, []engine.Source{src})
		for k := uint64(0); k < 1024; k++ {
			nic.Cache.Warm(k, 512)
		}
		nic.Run(500_000)
		return nic.WireLat.All.P99() / freq * 1e6, nic.Drops.Value()
	}
	b.Run("spread", func(b *testing.B) {
		var p99 float64
		var drops uint64
		for i := 0; i < b.N; i++ {
			p99, drops = run(false)
		}
		b.ReportMetric(p99, "rtt_p99_us")
		b.ReportMetric(float64(drops), "drops")
	})
	b.Run("compact-corner", func(b *testing.B) {
		var p99 float64
		var drops uint64
		for i := 0; i < b.N; i++ {
			p99, drops = run(true)
		}
		b.ReportMetric(p99, "rtt_p99_us")
		b.ReportMetric(float64(drops), "drops")
	})
}

// BenchmarkDescriptorVsFullPacket — §6: "Should entire packets always be
// passed from engines, or are there times when it is better to instead
// pass pointers to packet data located in a common packet buffer?"
//
// Full-packet mode moves 1 KB messages between engines. Descriptor mode
// moves 32 B descriptors and keeps payloads in a central buffer tile; an
// engine that needs the payload performs a read round trip to the buffer.
// Descriptors win when few hops touch payload; the central buffer becomes
// a serialization hotspot when every hop does.
func BenchmarkDescriptorVsFullPacket(b *testing.B) {
	const payload = 1024
	for _, mode := range []string{"full-packet", "descriptors-0-touch", "descriptors-2-touch"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			var kmsgs float64
			for i := 0; i < b.N; i++ {
				switch mode {
				case "full-packet":
					kmsgs = measureChainThroughput(payload, 0, false)
				case "descriptors-0-touch":
					kmsgs = measureChainThroughput(32, 0, true)
				case "descriptors-2-touch":
					kmsgs = measureChainThroughput(32, 2, true)
				}
			}
			b.ReportMetric(kmsgs, "kmsg_per_ms")
		})
	}
}

// bufferReadEngine models the central packet buffer: payload reads occupy
// it for the transfer time and return the payload to the requester.
type bufferReadEngine struct {
	payloadBytes int
}

func (e *bufferReadEngine) Name() string { return "pktbuf" }
func (e *bufferReadEngine) ServiceCycles(msg *packet.Message) uint64 {
	// Serving a read occupies the buffer port for the payload transfer.
	return uint64(e.payloadBytes*8) / 128
}
func (e *bufferReadEngine) Process(ctx *engine.Ctx, msg *packet.Message) []engine.Out {
	if l := msg.Pkt.Layer(packet.LayerTypeDMA); l != nil {
		d := l.(*packet.DMA)
		resp := &packet.Message{
			ID: msg.ID, Class: packet.ClassControl, Port: -1, Inject: ctx.Now,
			Pkt: packet.NewPacket(e.payloadBytes,
				&packet.Ethernet{EtherType: packet.EtherTypeDMA},
				&packet.DMA{Op: packet.DMAReadCompl, Requester: d.Requester, Len: uint32(e.payloadBytes)},
			),
		}
		return []engine.Out{{Msg: resp, To: d.Requester}}
	}
	return nil
}

// touchEngine forwards along the chain; in descriptor mode with payload
// touches it first reads the payload from the buffer tile.
type touchEngine struct {
	addr      packet.Addr
	buf       packet.Addr
	needsRead bool
	waiting   map[uint64]*packet.Message
}

func (e *touchEngine) Name() string                         { return "touch" }
func (e *touchEngine) ServiceCycles(*packet.Message) uint64 { return 1 }
func (e *touchEngine) Process(ctx *engine.Ctx, msg *packet.Message) []engine.Out {
	if l := msg.Pkt.Layer(packet.LayerTypeDMA); l != nil {
		d := l.(*packet.DMA)
		if d.Op == packet.DMAReadCompl {
			orig := e.waiting[msg.ID]
			delete(e.waiting, msg.ID)
			if orig == nil {
				return nil
			}
			return []engine.Out{{Msg: orig}}
		}
		return nil
	}
	if e.needsRead {
		e.waiting[msg.ID] = msg
		read := &packet.Message{
			ID: msg.ID, Class: packet.ClassControl, Port: -1, Inject: ctx.Now,
			Pkt: packet.NewPacket(0,
				&packet.Ethernet{EtherType: packet.EtherTypeDMA},
				&packet.DMA{Op: packet.DMARead, Requester: e.addr, Len: 1024},
			),
		}
		return []engine.Out{{Msg: read, To: e.buf}}
	}
	return []engine.Out{{Msg: msg}}
}

// measureChainThroughput drives a 3-engine chain at saturation for a fixed
// window and returns delivered messages per simulated millisecond.
// msgBytes is the inter-engine message size; touches is how many of the
// chain's engines fetch the payload from the central buffer tile.
func measureChainThroughput(msgBytes, touches int, descriptors bool) float64 {
	const (
		addrBuf  packet.Addr = 30
		offBase  packet.Addr = 10
		addrSink packet.Addr = 20
	)
	meshCfg := noc.DefaultMeshConfig()
	meshCfg.FlitWidthBits = 128
	bld := core.NewBuilder(freq, meshCfg, 1)
	for i := 0; i < 3; i++ {
		eng := &touchEngine{
			addr: offBase + packet.Addr(i), buf: addrBuf,
			needsRead: descriptors && i < touches,
			waiting:   map[uint64]*packet.Message{},
		}
		bld.PlaceTile(offBase+packet.Addr(i), 1+i, 1+i, eng)
	}
	sink := engine.NewCollectorEngine("sink", 1, nil)
	bld.PlaceTile(addrSink, 4, 4, sink)
	if descriptors {
		bld.PlaceTile(addrBuf, 2, 4, &bufferReadEngine{payloadBytes: 1024})
	}
	bld.Routes.SetDefault(addrSink)

	src := bld.Mesh.NodeAt(0, 0)
	firstNode := bld.Routes.Lookup(offBase)
	id := uint64(0)
	bld.Kernel.Register(sim.TickFunc(func(cycle uint64) {
		for bld.Mesh.CanInject(src, firstNode) {
			id++
			m := &packet.Message{
				ID:     id,
				Inject: cycle,
				Pkt:    &packet.Packet{PayloadLen: msgBytes},
			}
			m.Pkt.Layers = []packet.Layer{&packet.Ethernet{EtherType: packet.EtherTypeIPv4}}
			m.Pkt.Serialize()
			m.Pkt.PayloadLen = msgBytes - 14
			m.InsertChain(&packet.Chain{Hops: []packet.Hop{
				{Engine: offBase}, {Engine: offBase + 1}, {Engine: offBase + 2}, {Engine: addrSink},
			}})
			bld.Mesh.Inject(src, firstNode, m)
		}
	}))
	const window = 100_000
	bld.Kernel.Run(window)
	ms := float64(window) / freq * 1e3
	return float64(sink.Count()) / 1e3 / ms
}

// BenchmarkDoSShedding — §6: "What is the best way to ... ensure that other
// messages (e.g., packets from a DOS attack) are dropped as needed?" A
// 2 Gbps latency-sensitive victim shares a 24 Gbps host link with a
// 40 Gbps GET flood, under no defense, a SENIC-style per-tenant rate limit
// on the attacker, and an ACL drop rule in the RMT pipeline. Reports the
// victim's host-delivery latency and both tenants' served requests.
func BenchmarkDoSShedding(b *testing.B) {
	for _, defense := range []string{"none", "ratelimit", "acl"} {
		b.Run(defense, func(b *testing.B) {
			var r dosResult
			for i := 0; i < b.N; i++ {
				r = measureDoS(defense)
			}
			b.ReportMetric(r.victimP50us, "victim_p50_us")
			b.ReportMetric(r.victimP99us, "victim_p99_us")
			b.ReportMetric(float64(r.victimServed), "victim_served")
			b.ReportMetric(float64(r.attackerServed), "attacker_served")
			b.ReportMetric(float64(r.drops), "drops")
		})
	}
}

type dosResult struct {
	victimP50us, victimP99us     float64
	victimServed, attackerServed int
	drops                        uint64
}

// measureDoS runs the DoS scenario for 1M cycles under defense ("none",
// "ratelimit" or "acl").
func measureDoS(defense string) dosResult {
	cfg := core.DefaultConfig()
	cfg.PCIeGbps = 24 // a modest host link, so the flood hurts
	victim := workload.NewKVSStream(workload.KVSTenantConfig{
		Tenant: 1, Class: packet.ClassLatency,
		RateGbps: 2, FreqHz: cfg.FreqHz, Poisson: true,
		Keys: 512, GetRatio: 0.9, ValueBytes: 256, Seed: 5,
	})
	// Tenant 66 floods GETs from the client network 10.99.0.0/16.
	attacker := workload.NewKVSStream(workload.KVSTenantConfig{
		Tenant: 66, Class: packet.ClassBulk,
		RateGbps: 40, FreqHz: cfg.FreqHz, Poisson: true,
		Keys: 1 << 20, GetRatio: 1.0, ValueBytes: 64,
		ClientNet: 99, Seed: 6,
	})
	if defense == "ratelimit" {
		cfg.RateLimits = map[uint16]float64{66: 1}
	}
	nic := core.NewNIC(cfg, []engine.Source{workload.NewMerge(victim, attacker)})
	if defense == "acl" {
		core.InstallDropRule(nic.Program, 10<<24|99<<16, 16, 100)
	}
	nic.Run(1_000_000)
	v := nic.HostLat.Tenant(1)
	return dosResult{
		victimP50us:    us(v.P50()),
		victimP99us:    us(v.P99()),
		victimServed:   v.Count(),
		attackerServed: nic.HostLat.Tenant(66).Count(),
		drops:          nic.Drops.Value() + nic.RMTStats().Dropped,
	}
}
