package engine

import (
	"testing"

	"github.com/panic-nic/panic/internal/noc"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
)

func largeTCPSend(id uint64, payload int) *packet.Message {
	return &packet.Message{
		ID: id,
		Pkt: packet.NewPacket(payload,
			&packet.Ethernet{Dst: packet.MAC{2, 0, 0, 0, 0, 1}, Src: packet.MAC{2, 0, 0, 0, 0, 2}, EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, ID: 100, Src: packet.IP4{10, 0, 0, 1}, Dst: packet.IP4{10, 0, 0, 2}},
			&packet.TCP{SrcPort: 80, DstPort: 5000, Seq: 1000, Ack: 7, Flags: packet.TCPFlagACK | packet.TCPFlagPSH, Window: 65535},
		),
	}
}

func TestLSOSegmentsLargeSend(t *testing.T) {
	e := NewLSOEngine(LSOConfig{MSS: 1460, BytesPerCycle: 64, SetupCycles: 10})
	msg := largeTCPSend(1, 4000) // 3 segments: 1460+1460+1080
	outs := e.Process(&Ctx{Now: 5}, msg)
	if len(outs) != 3 {
		t.Fatalf("segments = %d, want 3", len(outs))
	}
	wantSeq := uint32(1000)
	totalPayload := 0
	for i, o := range outs {
		tcp := o.Msg.Pkt.Layer(packet.LayerTypeTCP).(*packet.TCP)
		if tcp.Seq != wantSeq {
			t.Errorf("segment %d seq = %d, want %d", i, tcp.Seq, wantSeq)
		}
		wantSeq += uint32(o.Msg.Pkt.PayloadLen)
		totalPayload += o.Msg.Pkt.PayloadLen
		if o.Msg.Pkt.PayloadLen > 1460 {
			t.Errorf("segment %d payload %d exceeds MSS", i, o.Msg.Pkt.PayloadLen)
		}
		// PSH only on the final segment.
		isLast := i == len(outs)-1
		if (tcp.Flags&packet.TCPFlagPSH != 0) != isLast {
			t.Errorf("segment %d PSH flag wrong", i)
		}
		// IP header checksums must be valid.
		ip := o.Msg.Pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
		if ip.Checksum != ip.ComputeChecksum() {
			t.Errorf("segment %d IP checksum invalid", i)
		}
	}
	if totalPayload != 4000 {
		t.Errorf("segments carry %d bytes, want 4000", totalPayload)
	}
	sends, segs := e.Counts()
	if sends != 1 || segs != 3 {
		t.Errorf("counts = %d/%d", sends, segs)
	}
}

func TestLSOPassThroughSmallAndNonTCP(t *testing.T) {
	e := NewLSOEngine(LSOConfig{MSS: 1460, BytesPerCycle: 64})
	small := largeTCPSend(1, 500)
	if outs := e.Process(&Ctx{}, small); len(outs) != 1 || outs[0].Msg != small {
		t.Error("small TCP send should pass through")
	}
	udp := kvsGet(2, 1, 1)
	if outs := e.Process(&Ctx{}, udp); len(outs) != 1 || outs[0].Msg != udp {
		t.Error("non-TCP should pass through")
	}
}

func TestLSOSegmentsInheritChain(t *testing.T) {
	e := NewLSOEngine(LSOConfig{MSS: 1000, BytesPerCycle: 64})
	msg := largeTCPSend(1, 2000)
	msg.InsertChain(&packet.Chain{Hops: []packet.Hop{{Engine: 7, Slack: 5}, {Engine: 9, Slack: 6}}})
	outs := e.Process(&Ctx{}, msg)
	if len(outs) != 2 {
		t.Fatalf("segments = %d", len(outs))
	}
	for i, o := range outs {
		c := o.Msg.Chain()
		if c == nil || len(c.Hops) != 2 || c.Hops[0].Engine != 7 {
			t.Errorf("segment %d chain = %+v", i, c)
		}
	}
}

func TestLSOSegmentsTraverseFabric(t *testing.T) {
	// End-to-end: one big send through an LSO tile arrives as N segments.
	r := newRig(3, 1)
	lso := NewLSOEngine(LSOConfig{MSS: 1000, BytesPerCycle: 64})
	collector := NewCollectorEngine("sink", 1, nil)
	r.place(1, 0, 0, lso)
	r.place(2, 2, 0, collector)
	r.routes.SetDefault(2)
	msg := largeTCPSend(1, 3000)
	msg.InsertChain(&packet.Chain{Hops: []packet.Hop{{Engine: 1}, {Engine: 2}}})
	r.mesh.Inject(r.mesh.NodeAt(1, 0), r.mesh.NodeAt(0, 0), msg)
	if !r.k.RunUntil(func() bool { return collector.Count() == 3 }, 2000) {
		t.Fatalf("delivered %d/3 segments", collector.Count())
	}
}

func TestLSOValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"mss":  func() { NewLSOEngine(LSOConfig{MSS: 0, BytesPerCycle: 1}) },
		"rate": func() { NewLSOEngine(LSOConfig{MSS: 1, BytesPerCycle: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRateLimiterShapesTenant(t *testing.T) {
	// Tenant 1 limited to 8 Gbps at 500 MHz = 16 bits/cycle. Full-rate
	// arrivals of 1018-byte (8144-bit) messages should drain at one per
	// ~509 cycles once the 16 KiB burst is spent.
	r := newRig(3, 1)
	rl := NewRateLimiterEngine(500e6)
	rl.SetLimit(1, 8)
	collector := NewCollectorEngine("sink", 1, nil)
	r.place(1, 0, 0, rl)
	r.place(2, 2, 0, collector)
	r.routes.SetDefault(2)

	sent := 0
	src := r.mesh.NodeAt(1, 0)
	dst := r.mesh.NodeAt(0, 0)
	r.k.Register(sim.TickFunc(func(uint64) {
		if sent < 60 && r.mesh.CanInject(src, dst) {
			m := &packet.Message{ID: uint64(sent), Tenant: 1, Pkt: &packet.Packet{PayloadLen: 1000}}
			m.Pkt.Layers = []packet.Layer{&packet.Ethernet{EtherType: 0x9999}}
			m.Pkt.Serialize()
			m.Pkt.PayloadLen = 986
			m.InsertChain(&packet.Chain{Hops: []packet.Hop{{Engine: 1}, {Engine: 2}}})
			r.mesh.Inject(src, dst, m)
			sent++
		}
	}))
	r.k.Run(10_000)
	// 10k cycles at 16 bits/cycle = 160k bits = 19.6 messages plus the
	// initial 16 KiB burst (16.1 messages): ~36.
	got := collector.Count()
	if got < 32 || got > 40 {
		t.Errorf("shaped tenant delivered %d messages in 10k cycles, want ~36", got)
	}
	conformed, delayed := rl.Counts()
	if delayed == 0 {
		t.Error("no messages were delayed despite overload")
	}
	// Classification happens at service start, so the message in service
	// at the end of the window is counted but not yet delivered.
	if total := conformed + delayed; total < got || total > got+1 {
		t.Errorf("counts %d+%d vs delivered %d", conformed, delayed, got)
	}
}

func TestRateLimiterUnlimitedTenantPasses(t *testing.T) {
	rl := NewRateLimiterEngine(500e6)
	m := kvsGet(1, 7, 1)
	if svc := rl.ServiceCycles(m); svc != 1 {
		t.Errorf("unlimited tenant service = %d", svc)
	}
	if svc := rl.ServiceCyclesAt(&Ctx{Now: 1}, m); svc != 1 {
		t.Errorf("unlimited tenant timed service = %d", svc)
	}
	outs := rl.Process(&Ctx{Now: 1}, m)
	if len(outs) != 1 {
		t.Fatal("unlimited tenant blocked")
	}
	conformed, _ := rl.Counts()
	if conformed != 1 {
		t.Error("conformed not counted")
	}
}

func TestRateLimiterSetAndClearLimit(t *testing.T) {
	rl := NewRateLimiterEngine(500e6)
	rl.SetLimit(3, 1)
	// 282 58-byte GETs fit the 16 KiB burst; the 283rd must wait.
	for id := uint64(0); id < 282; id++ {
		m := kvsGet(id, 3, 1)
		if svc := rl.ServiceCyclesAt(&Ctx{Now: 0}, m); svc != 1 {
			t.Fatalf("GET %d within the burst: service = %d", id, svc)
		}
		rl.Process(&Ctx{Now: 0}, m)
	}
	if svc := rl.ServiceCycles(kvsGet(282, 3, 1)); svc <= 1 {
		t.Errorf("limited tenant after burst service = %d, want > 1", svc)
	}
	rl.SetLimit(3, 0) // clear
	if svc := rl.ServiceCycles(kvsGet(3, 3, 1)); svc != 1 {
		t.Errorf("cleared tenant service = %d", svc)
	}
}

var _ = noc.NodeID(0) // rig helpers already import noc
