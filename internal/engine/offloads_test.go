package engine

import (
	"math"
	"testing"

	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
)

// newValidationTile builds a throwaway tile for SetFault validation cases.
func newValidationTile() *Tile {
	return newRig(2, 1).place(7, 0, 0, &fixedEngine{name: "v", svc: 1})
}

func kvsGet(id uint64, tenant uint16, key uint64) *packet.Message {
	return &packet.Message{
		ID:     id,
		Tenant: tenant,
		Pkt: packet.NewPacket(0,
			&packet.Ethernet{Dst: packet.MAC{2, 0, 0, 0, 0, 1}, Src: packet.MAC{2, 0, 0, 0, 0, 9}, EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: packet.IP4{10, 0, 0, 1}, Dst: packet.IP4{10, 0, 0, 2}},
			&packet.UDP{SrcPort: 5555, DstPort: packet.KVSPort},
			&packet.KVS{Op: packet.KVSGet, Tenant: tenant, Key: key},
		),
	}
}

func kvsSet(id uint64, key uint64, vlen uint32) *packet.Message {
	m := kvsGet(id, 1, key)
	k := m.Pkt.Layer(packet.LayerTypeKVS).(*packet.KVS)
	k.Op = packet.KVSSet
	k.ValueLen = vlen
	m.Pkt.PayloadLen = int(vlen)
	m.Pkt.Serialize()
	return m
}

func TestLRUCache(t *testing.T) {
	c := newLRUCache(2)
	c.Put(1, 10)
	c.Put(2, 20)
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Fatal("get 1 failed")
	}
	// 2 is now LRU; inserting 3 evicts it.
	if ev, did := c.Put(3, 30); !did || ev != 2 {
		t.Errorf("evicted %d (did=%v), want 2", ev, did)
	}
	if c.Contains(2) {
		t.Error("2 survived eviction")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Error("wrong survivors")
	}
	// Update refreshes without eviction.
	if _, did := c.Put(1, 11); did {
		t.Error("update evicted")
	}
	if v, _ := c.Get(1); v != 11 {
		t.Error("update lost")
	}
	if !c.Delete(3) || c.Delete(3) {
		t.Error("delete semantics wrong")
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestLRUCacheSingleSlot(t *testing.T) {
	c := newLRUCache(1)
	c.Put(1, 1)
	if ev, did := c.Put(2, 2); !did || ev != 1 {
		t.Errorf("single-slot eviction wrong: %d %v", ev, did)
	}
	if v, ok := c.Get(2); !ok || v != 2 {
		t.Error("single-slot get failed")
	}
}

func TestMACTxSerialization(t *testing.T) {
	// 100G at 500MHz = 200 bits/cycle; a 64B frame (84B wire = 672 bits)
	// takes ceil(672/200) = 4 cycles.
	mac := NewEthernetMAC(MACConfig{Port: 0, LineRateGbps: 100, FreqHz: 500e6}, nil, nil)
	m := &packet.Message{Pkt: &packet.Packet{PayloadLen: 64}}
	if got := mac.ServiceCycles(m); got != 4 {
		t.Errorf("TX service = %d cycles, want 4", got)
	}
}

func TestMACTxStripsChain(t *testing.T) {
	var delivered *packet.Message
	mac := NewEthernetMAC(MACConfig{Port: 0, LineRateGbps: 100, FreqHz: 500e6}, nil,
		SinkFunc(func(m *packet.Message, _ uint64) { delivered = m }))
	m := kvsGet(1, 1, 1)
	m.InsertChain(&packet.Chain{Hops: []packet.Hop{{Engine: 1}}})
	mac.Process(&Ctx{Now: 10}, m)
	if delivered == nil || delivered.Pkt.Has(packet.LayerTypeChain) {
		t.Error("chain left the NIC")
	}
	if mac.TxCount() != 1 {
		t.Error("tx not counted")
	}
}

// queueSource feeds a fixed list of messages as fast as the MAC will take
// them.
type queueSource struct{ msgs []*packet.Message }

func (s *queueSource) Poll(uint64) *packet.Message {
	if len(s.msgs) == 0 {
		return nil
	}
	m := s.msgs[0]
	s.msgs = s.msgs[1:]
	return m
}

func TestMACRxLineRatePacing(t *testing.T) {
	// Offer 100 min-size packets instantly; at 40G/500MHz (80 bits/cycle)
	// each 84B (672-bit) frame takes 8.4 cycles of wire time, so 100
	// packets need ~840 cycles.
	src := &queueSource{}
	for i := 0; i < 100; i++ {
		src.msgs = append(src.msgs, &packet.Message{ID: uint64(i), Pkt: &packet.Packet{PayloadLen: 64}})
	}
	mac := NewEthernetMAC(MACConfig{Port: 0, LineRateGbps: 40, FreqHz: 500e6}, src, nil)
	ctx := &Ctx{}
	emitted := 0
	var finishedAt uint64
	for cycle := uint64(0); cycle < 2000 && emitted < 100; cycle++ {
		ctx.Now = cycle
		outs := mac.Generate(ctx)
		emitted += len(outs)
		if emitted == 100 && finishedAt == 0 {
			finishedAt = cycle
		}
	}
	if emitted != 100 {
		t.Fatalf("emitted %d/100", emitted)
	}
	// Expect ≈ 100 × 672/80 = 840 cycles, minus initial burst allowance.
	if finishedAt < 700 || finishedAt > 900 {
		t.Errorf("line-rate pacing finished at cycle %d, want ~840", finishedAt)
	}
	if mac.RxCount() != 100 {
		t.Errorf("rx count = %d", mac.RxCount())
	}
}

func TestDMAReadCompletion(t *testing.T) {
	dma := NewDMAEngine(DMAConfig{PCIeGbps: 128, FreqHz: 500e6, BaseLatencyCycles: 100}, nil, nil)
	req := &packet.Message{
		ID:    5,
		Class: packet.ClassControl,
		Pkt: packet.NewPacket(0,
			&packet.Ethernet{EtherType: packet.EtherTypeDMA},
			&packet.DMA{Op: packet.DMARead, Requester: 7, Len: 1024, HostAddr: 42},
		),
	}
	// 1024B at 256 bits/cycle = 32 cycles of occupancy.
	if got := dma.ServiceCycles(req); got != 32 {
		t.Errorf("service = %d, want 32", got)
	}
	outs := dma.Process(&Ctx{Now: 50, RNG: sim.NewRNG(1)}, req)
	if len(outs) != 1 {
		t.Fatalf("outs = %d", len(outs))
	}
	out := outs[0]
	if out.To != 7 || out.Delay != 100 {
		t.Errorf("completion to %d delay %d", out.To, out.Delay)
	}
	d := out.Msg.Pkt.Layer(packet.LayerTypeDMA).(*packet.DMA)
	if d.Op != packet.DMAReadCompl || d.HostAddr != 42 || d.Len != 1024 {
		t.Errorf("completion = %+v", d)
	}
	if out.Msg.WireLen() < 1024 {
		t.Error("completion does not carry the data size")
	}
	if !out.Msg.Lossless() {
		t.Error("DMA completion must be lossless")
	}
}

func TestDMAJitterBounded(t *testing.T) {
	dma := NewDMAEngine(DMAConfig{PCIeGbps: 128, FreqHz: 500e6, BaseLatencyCycles: 100, JitterCycles: 50}, nil, nil)
	rng := sim.NewRNG(3)
	sawVariation := false
	first := uint64(0)
	for i := 0; i < 50; i++ {
		req := &packet.Message{Pkt: packet.NewPacket(0,
			&packet.Ethernet{EtherType: packet.EtherTypeDMA},
			&packet.DMA{Op: packet.DMARead, Requester: 7, Len: 64},
		)}
		outs := dma.Process(&Ctx{RNG: rng}, req)
		d := outs[0].Delay
		if d < 100 || d > 150 {
			t.Fatalf("latency %d outside [100,150]", d)
		}
		if i == 0 {
			first = d
		} else if d != first {
			sawVariation = true
		}
	}
	if !sawVariation {
		t.Error("jitter produced no variation")
	}
}

func TestDMAHostDeliveryAndResponse(t *testing.T) {
	var delivered *packet.Message
	responder := responderFunc(func(msg *packet.Message, now uint64) (*packet.Message, uint64, bool) {
		return kvsGet(99, msg.Tenant, 1), 500, true
	})
	dma := NewDMAEngine(DMAConfig{PCIeGbps: 128, FreqHz: 500e6, BaseLatencyCycles: 10, NotifyAddr: 3},
		SinkFunc(func(m *packet.Message, _ uint64) { delivered = m }), responder)
	pkt := kvsGet(1, 2, 3)
	outs := dma.Process(&Ctx{Now: 7, RNG: sim.NewRNG(1)}, pkt)
	if delivered != pkt {
		t.Fatal("packet not delivered to host sink")
	}
	// The host observes delivery after the PCIe write latency (10).
	if pkt.Done != 7+10 {
		t.Errorf("Done = %d, want 17", pkt.Done)
	}
	if len(outs) != 2 {
		t.Fatalf("outs = %d, want notify + response", len(outs))
	}
	if outs[0].To != 3 {
		t.Errorf("notify to %d", outs[0].To)
	}
	if outs[1].Delay != 500 || outs[1].Msg.ID != 99 {
		t.Errorf("response out = %+v", outs[1])
	}
	_, _, hd := dma.Counts()
	if hd != 1 {
		t.Errorf("host deliveries = %d", hd)
	}
}

type responderFunc func(msg *packet.Message, now uint64) (*packet.Message, uint64, bool)

func (f responderFunc) Respond(msg *packet.Message, now uint64) (*packet.Message, uint64, bool) {
	return f(msg, now)
}

func TestPCIeCoalescing(t *testing.T) {
	p := NewPCIeEngine(PCIeConfig{CoalesceCount: 4, InterruptCycles: 2})
	ctx := &Ctx{}
	for i := 0; i < 12; i++ {
		ctx.Now = uint64(i)
		p.Process(ctx, &packet.Message{Pkt: &packet.Packet{}})
	}
	notif, irqs := p.Counts()
	if notif != 12 || irqs != 3 {
		t.Errorf("notifications=%d interrupts=%d, want 12/3", notif, irqs)
	}
}

func TestPCIeCoalesceTimeout(t *testing.T) {
	p := NewPCIeEngine(PCIeConfig{CoalesceCount: 100, CoalesceTimeoutCycles: 10})
	ctx := &Ctx{Now: 0}
	p.Process(ctx, &packet.Message{Pkt: &packet.Packet{}})
	_, irqs := p.Counts()
	if irqs != 0 {
		t.Fatal("premature interrupt")
	}
	ctx.Now = 50
	p.Process(ctx, &packet.Message{Pkt: &packet.Packet{}})
	if _, irqs = p.Counts(); irqs != 1 {
		t.Errorf("timeout interrupt not fired: %d", irqs)
	}
}

func TestIPSecDecryptSwapsInner(t *testing.T) {
	e := NewIPSecEngine(IPSecConfig{BytesPerCycle: 4, SetupCycles: 10})
	inner := kvsGet(1, 1, 7).Pkt
	enc := &packet.Message{
		ID:    1,
		Inner: inner,
		Pkt: packet.NewPacket(inner.WireLen()+12,
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{Protocol: packet.ProtoESP, Src: packet.IP4{203, 0, 113, 1}, Dst: packet.IP4{10, 0, 0, 2}},
			&packet.ESP{SPI: 9, Seq: 1},
		),
	}
	enc.InsertChain(&packet.Chain{Hops: []packet.Hop{{Engine: 4, Slack: 5}, {Engine: 2, Slack: 9}}})
	svc := e.ServiceCycles(enc)
	if svc <= 10 {
		t.Errorf("service = %d, want setup+per-byte", svc)
	}
	outs := e.Process(&Ctx{Now: 1}, enc)
	if len(outs) != 1 || outs[0].To != packet.AddrInvalid {
		t.Fatalf("outs = %+v", outs)
	}
	m := outs[0].Msg
	if !m.Pkt.Has(packet.LayerTypeKVS) {
		t.Error("plaintext not restored")
	}
	c := m.Chain()
	if c == nil || !c.Reinjected() {
		t.Fatalf("chain = %+v, want reinjected flag", c)
	}
	if len(c.Hops) != 2 || c.Hops[0].Engine != 4 {
		t.Errorf("chain hops lost: %+v", c.Hops)
	}
	dec, _ := e.Counts()
	if dec != 1 {
		t.Error("decrypt not counted")
	}
}

func TestIPSecDecryptWithoutInner(t *testing.T) {
	e := NewIPSecEngine(IPSecConfig{BytesPerCycle: 4})
	enc := &packet.Message{Pkt: packet.NewPacket(100,
		&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.ProtoESP},
		&packet.ESP{SPI: 1, Seq: 1},
	)}
	outs := e.Process(&Ctx{}, enc)
	m := outs[0].Msg
	if m.Pkt.Has(packet.LayerTypeESP) {
		t.Error("ESP layer survived decryption")
	}
}

func TestIPSecEncryptWrapsAndPreservesChain(t *testing.T) {
	e := NewIPSecEngine(IPSecConfig{BytesPerCycle: 4})
	m := kvsGet(3, 1, 9)
	origLen := m.WireLen()
	m.InsertChain(&packet.Chain{Hops: []packet.Hop{{Engine: 5, Slack: 2}, {Engine: 1, Slack: 3}}})
	outs := e.Process(&Ctx{Now: 2}, m)
	enc := outs[0].Msg
	if !enc.Pkt.Has(packet.LayerTypeESP) {
		t.Fatal("no ESP layer after encryption")
	}
	if enc.Inner == nil || !enc.Inner.Has(packet.LayerTypeKVS) {
		t.Error("plaintext not stashed")
	}
	if enc.Chain() == nil || len(enc.Chain().Hops) != 2 {
		t.Error("chain lost in encryption")
	}
	if enc.WireLen() <= origLen {
		t.Errorf("encryption did not add overhead: %d <= %d", enc.WireLen(), origLen)
	}
	_, encCount := e.Counts()
	if encCount != 1 {
		t.Error("encrypt not counted")
	}
}

func TestKVSCacheHitMissSet(t *testing.T) {
	e := NewKVSCacheEngine(KVSCacheConfig{Capacity: 4, LookupCycles: 2, RDMAAddr: 9})
	ctx := &Ctx{Now: 1}

	// Miss: continues along the chain with the miss flag.
	miss := kvsGet(1, 1, 100)
	outs := e.Process(ctx, miss)
	if len(outs) != 1 || outs[0].To != packet.AddrInvalid {
		t.Fatalf("miss outs = %+v", outs)
	}
	k := outs[0].Msg.Pkt.Layer(packet.LayerTypeKVS).(*packet.KVS)
	if k.Flags&packet.KVSFlagMiss == 0 {
		t.Error("miss flag not set")
	}

	// Set: caches the key.
	e.Process(ctx, kvsSet(2, 100, 4096))
	if !e.cache.Contains(100) {
		t.Error("SET did not populate cache")
	}

	// Hit: diverted to the RDMA engine with the cached value length.
	hit := kvsGet(3, 1, 100)
	outs = e.Process(ctx, hit)
	if len(outs) != 1 || outs[0].To != 9 {
		t.Fatalf("hit outs = %+v", outs)
	}
	k = outs[0].Msg.Pkt.Layer(packet.LayerTypeKVS).(*packet.KVS)
	if k.ValueLen != 4096 {
		t.Errorf("value len = %d", k.ValueLen)
	}
	hits, misses, sets := e.Counts()
	if hits != 1 || misses != 1 || sets != 1 {
		t.Errorf("counts = %d/%d/%d", hits, misses, sets)
	}
}

func TestKVSCachePassThroughNonKVS(t *testing.T) {
	e := NewKVSCacheEngine(KVSCacheConfig{Capacity: 4, RDMAAddr: 9})
	m := &packet.Message{Pkt: packet.NewPacket(64,
		&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.ProtoTCP},
		&packet.TCP{SrcPort: 1, DstPort: 2},
	)}
	outs := e.Process(&Ctx{}, m)
	if len(outs) != 1 || outs[0].To != packet.AddrInvalid || outs[0].Msg != m {
		t.Errorf("non-KVS handling wrong: %+v", outs)
	}
}

func TestRDMAIssueAndReply(t *testing.T) {
	e := NewRDMAEngine(RDMAConfig{DMAAddr: 8, IssueCycles: 3})
	ctx := &Ctx{Now: 10, Addr: 9}
	req := kvsGet(21, 4, 777)
	req.Port = 1
	k := req.Pkt.Layer(packet.LayerTypeKVS).(*packet.KVS)
	k.ValueLen = 2048
	req.Pkt.Serialize()

	outs := e.Process(ctx, req)
	if len(outs) != 1 || outs[0].To != 8 {
		t.Fatalf("issue outs = %+v", outs)
	}
	d := outs[0].Msg.Pkt.Layer(packet.LayerTypeDMA).(*packet.DMA)
	if d.Op != packet.DMARead || d.Len != 2048 || d.Requester != 9 {
		t.Errorf("read = %+v", d)
	}
	if e.PendingReads() != 1 {
		t.Error("no pending read")
	}

	// Completion returns; reply must be a proper GET response.
	compl := &packet.Message{Pkt: packet.NewPacket(2048,
		&packet.Ethernet{EtherType: packet.EtherTypeDMA},
		&packet.DMA{Op: packet.DMAReadCompl, Requester: 9, Len: 2048, HostAddr: d.HostAddr},
	)}
	outs = e.Process(ctx, compl)
	if len(outs) != 1 {
		t.Fatalf("reply outs = %+v", outs)
	}
	resp := outs[0].Msg
	rk := resp.Pkt.Layer(packet.LayerTypeKVS).(*packet.KVS)
	if rk.Op != packet.KVSGetResp || rk.Key != 777 || rk.ValueLen != 2048 {
		t.Errorf("response KVS = %+v", rk)
	}
	rIP := resp.Pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
	if rIP.Src.String() != "10.0.0.2" || rIP.Dst.String() != "10.0.0.1" {
		t.Errorf("response IPs not swapped: %v -> %v", rIP.Src, rIP.Dst)
	}
	rUDP := resp.Pkt.Layer(packet.LayerTypeUDP).(*packet.UDP)
	if rUDP.SrcPort != packet.KVSPort || rUDP.DstPort != 5555 {
		t.Errorf("response ports: %d -> %d", rUDP.SrcPort, rUDP.DstPort)
	}
	if resp.Port != 1 || resp.Inject != req.Inject {
		t.Error("response metadata not inherited")
	}
	if e.PendingReads() != 0 {
		t.Error("pending not cleared")
	}
	issued, replies := e.Counts()
	if issued != 1 || replies != 1 {
		t.Errorf("counts = %d/%d", issued, replies)
	}
}

func TestRDMAOverloadShedsToHostPath(t *testing.T) {
	e := NewRDMAEngine(RDMAConfig{DMAAddr: 8, MaxOutstanding: 2})
	ctx := &Ctx{Addr: 9}
	for i := 0; i < 2; i++ {
		e.Process(ctx, kvsGet(uint64(i), 1, uint64(i)))
	}
	outs := e.Process(ctx, kvsGet(9, 1, 9))
	if len(outs) != 1 || outs[0].To != packet.AddrInvalid {
		t.Fatalf("shed outs = %+v", outs)
	}
	k := outs[0].Msg.Pkt.Layer(packet.LayerTypeKVS).(*packet.KVS)
	if k.Flags&packet.KVSFlagMiss == 0 {
		t.Error("shed request not marked for host path")
	}
}

func TestCompressionEngine(t *testing.T) {
	e := NewCompressionEngine(8, 0.5)
	m := &packet.Message{Pkt: &packet.Packet{PayloadLen: 1000}}
	if svc := e.ServiceCycles(m); svc != 2+125 {
		t.Errorf("service = %d", svc)
	}
	e.Process(&Ctx{}, m)
	if m.Pkt.PayloadLen != 500 {
		t.Errorf("payload = %d, want 500", m.Pkt.PayloadLen)
	}
}

func TestChecksumEngine(t *testing.T) {
	e := NewChecksumEngine(16)
	m := kvsGet(1, 1, 1)
	ip := m.Pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
	ip.Checksum = 0
	m.Pkt.Serialize()
	e.Process(&Ctx{}, m)
	ip = m.Pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
	if ip.Checksum == 0 || ip.Checksum != ip.ComputeChecksum() {
		t.Errorf("checksum = %#x", ip.Checksum)
	}
}

func TestRegexEngineDeterministicMatches(t *testing.T) {
	run := func() uint64 {
		e := NewRegexEngine(4, 0.3)
		for i := uint64(0); i < 1000; i++ {
			e.Process(&Ctx{}, &packet.Message{ID: i, Pkt: &packet.Packet{PayloadLen: 100}})
		}
		return e.Matches()
	}
	a, b := run(), run()
	if a != b {
		t.Error("regex matches not deterministic")
	}
	if a < 200 || a > 400 {
		t.Errorf("match count %d far from 30%% of 1000", a)
	}
}

func TestCPUCoreOrchestrationCost(t *testing.T) {
	// 10 µs at 500 MHz = 5000 cycles — the paper's manycore latency.
	core := NewCPUCoreEngine("core", 5000, 0, nil)
	m := &packet.Message{Pkt: &packet.Packet{PayloadLen: 64}}
	if svc := core.ServiceCycles(m); svc != 5000 {
		t.Errorf("service = %d, want 5000", svc)
	}
	outs := core.Process(&Ctx{}, m)
	if len(outs) != 1 || outs[0].Msg != m {
		t.Error("default handler should forward")
	}
	handled := false
	custom := NewCPUCoreEngine("core", 100, 0.5, func(_ *Ctx, msg *packet.Message) []Out {
		handled = true
		return nil
	})
	if svc := custom.ServiceCycles(m); svc != 100+32 {
		t.Errorf("per-byte service = %d, want 132", svc)
	}
	custom.Process(&Ctx{}, m)
	if !handled {
		t.Error("custom handler not invoked")
	}
}

func TestEngineConfigValidation(t *testing.T) {
	nan := math.NaN()
	for name, fn := range map[string]func(){
		"mac rate":          func() { NewEthernetMAC(MACConfig{LineRateGbps: 0, FreqHz: 1}, nil, nil) },
		"mac freq":          func() { NewEthernetMAC(MACConfig{LineRateGbps: 100, FreqHz: 0}, nil, nil) },
		"mac rate nan":      func() { NewEthernetMAC(MACConfig{LineRateGbps: nan, FreqHz: 1}, nil, nil) },
		"dma rate":          func() { NewDMAEngine(DMAConfig{PCIeGbps: 0, FreqHz: 1}, nil, nil) },
		"dma freq":          func() { NewDMAEngine(DMAConfig{PCIeGbps: 128, FreqHz: 0}, nil, nil) },
		"dma rate nan":      func() { NewDMAEngine(DMAConfig{PCIeGbps: nan, FreqHz: 1}, nil, nil) },
		"dma rate inf":      func() { NewDMAEngine(DMAConfig{PCIeGbps: math.Inf(1), FreqHz: 1}, nil, nil) },
		"txdma rate":        func() { NewTxDMAEngine(0, 1e9, nil) },
		"txdma freq nan":    func() { NewTxDMAEngine(128, nan, nil) },
		"ipsec rate":        func() { NewIPSecEngine(IPSecConfig{BytesPerCycle: 0}) },
		"ipsec rate nan":    func() { NewIPSecEngine(IPSecConfig{BytesPerCycle: nan}) },
		"lso mss":           func() { NewLSOEngine(LSOConfig{MSS: 0, BytesPerCycle: 8}) },
		"lso rate":          func() { NewLSOEngine(LSOConfig{MSS: 1460, BytesPerCycle: 0}) },
		"lso rate nan":      func() { NewLSOEngine(LSOConfig{MSS: 1460, BytesPerCycle: nan}) },
		"ratelimit freq":    func() { NewRateLimiterEngine(0) },
		"ratelimit nan":     func() { NewRateLimiterEngine(nan) },
		"ratelimit setnan":  func() { NewRateLimiterEngine(1e9).SetLimit(1, nan) },
		"kvs addr":          func() { NewKVSCacheEngine(KVSCacheConfig{Capacity: 1}) },
		"rdma addr":         func() { NewRDMAEngine(RDMAConfig{}) },
		"pcie count":        func() { NewPCIeEngine(PCIeConfig{CoalesceCount: 0}) },
		"lru cap":           func() { newLRUCache(0) },
		"compression":       func() { NewCompressionEngine(8, 0) },
		"compression big":   func() { NewCompressionEngine(8, 1.5) },
		"compression nan":   func() { NewCompressionEngine(8, nan) },
		"byterate":          func() { NewByteRateEngine("x", 0, 0, nil) },
		"byterate nan":      func() { NewByteRateEngine("x", nan, 0, nil) },
		"regex rate":        func() { NewRegexEngine(8, -0.1) },
		"regex rate nan":    func() { NewRegexEngine(8, nan) },
		"cpucore perbyte":   func() { NewCPUCoreEngine("c", 1, -1, nil) },
		"cpucore nan":       func() { NewCPUCoreEngine("c", 1, nan, nil) },
		"tile fault factor": func() { newValidationTile().SetFault(FaultState{SlowFactor: 0.5}) },
		"tile fault period": func() { newValidationTile().SetFault(FaultState{DropEveryN: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", name)
				}
			}()
			fn()
		}()
	}
}
