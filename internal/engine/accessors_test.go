package engine

import (
	"testing"

	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
)

// TestEngineNames pins every engine's identity string (they appear in
// traces and reports).
func TestEngineNames(t *testing.T) {
	cases := map[string]Engine{
		"eth3":      NewEthernetMAC(MACConfig{Port: 3, LineRateGbps: 10, FreqHz: 1e9}, nil, nil),
		"dma":       NewDMAEngine(DMAConfig{PCIeGbps: 1, FreqHz: 1e9}, nil, nil),
		"txdma":     NewTxDMAEngine(1, 1e9, nil),
		"pcie":      NewPCIeEngine(PCIeConfig{CoalesceCount: 1}),
		"ipsec":     NewIPSecEngine(IPSecConfig{BytesPerCycle: 1}),
		"kvscache":  NewKVSCacheEngine(KVSCacheConfig{Capacity: 1, RDMAAddr: 1}),
		"rdma":      NewRDMAEngine(RDMAConfig{DMAAddr: 1}),
		"tcp-lso":   NewLSOEngine(LSOConfig{MSS: 1, BytesPerCycle: 1}),
		"ratelimit": NewRateLimiterEngine(1e9),
		"compress":  NewCompressionEngine(1, 0.5),
		"checksum":  NewChecksumEngine(1),
		"regex":     NewRegexEngine(1, 0.1),
		"core0":     NewCPUCoreEngine("core0", 1, 0, nil),
		"sink":      NewCollectorEngine("sink", 1, nil),
	}
	for want, eng := range cases {
		if got := eng.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestDMAWriteAck(t *testing.T) {
	dma := NewDMAEngine(DMAConfig{PCIeGbps: 128, FreqHz: 500e6, BaseLatencyCycles: 20}, nil, nil)
	write := &packet.Message{Pkt: packet.NewPacket(0,
		&packet.Ethernet{EtherType: packet.EtherTypeDMA},
		&packet.DMA{Op: packet.DMAWrite, Requester: 5, Len: 512, HostAddr: 9},
	)}
	outs := dma.Process(&Ctx{Now: 1, RNG: sim.NewRNG(1)}, write)
	if len(outs) != 1 || outs[0].To != 5 {
		t.Fatalf("write ack outs = %+v", outs)
	}
	d := outs[0].Msg.Pkt.Layer(packet.LayerTypeDMA).(*packet.DMA)
	if d.Op != packet.DMAWriteCompl || d.HostAddr != 9 {
		t.Errorf("ack = %+v", d)
	}
	// Writes without a requester complete silently.
	anon2 := &packet.Message{Pkt: packet.NewPacket(0,
		&packet.Ethernet{EtherType: packet.EtherTypeDMA},
		&packet.DMA{Op: packet.DMAWrite, Len: 64},
	)}
	if outs := dma.Process(&Ctx{RNG: sim.NewRNG(1)}, anon2); len(outs) != 0 {
		t.Errorf("anonymous write produced outs: %+v", outs)
	}
	// Stray completions addressed to the DMA engine are consumed.
	stray := &packet.Message{Pkt: packet.NewPacket(0,
		&packet.Ethernet{EtherType: packet.EtherTypeDMA},
		&packet.DMA{Op: packet.DMAReadCompl, Len: 64},
	)}
	if outs := dma.Process(&Ctx{RNG: sim.NewRNG(1)}, stray); len(outs) != 0 {
		t.Errorf("stray completion produced outs: %+v", outs)
	}
	reads, writes, _ := dma.Counts()
	if reads != 0 || writes != 2 {
		t.Errorf("counts = %d/%d", reads, writes)
	}
}

func TestMACBitCounters(t *testing.T) {
	src := &queueSource{msgs: []*packet.Message{{Pkt: &packet.Packet{PayloadLen: 64}}}}
	var got *packet.Message
	mac := NewEthernetMAC(MACConfig{Port: 0, LineRateGbps: 100, FreqHz: 500e6}, src,
		SinkFunc(func(m *packet.Message, _ uint64) { got = m }))
	ctx := &Ctx{}
	var outs []Out
	for c := uint64(0); c < 20 && len(outs) == 0; c++ {
		ctx.Now = c
		outs = mac.Generate(ctx) // tokens accumulate per cycle
	}
	if len(outs) != 1 {
		t.Fatal("no rx")
	}
	if mac.RxBits() != (64+packet.WireOverheadBytes)*8 {
		t.Errorf("RxBits = %d", mac.RxBits())
	}
	mac.Process(ctx, outs[0].Msg)
	if mac.TxBits() == 0 || got == nil {
		t.Error("tx accounting failed")
	}
}

func TestSinkHelpers(t *testing.T) {
	NullSink{}.Deliver(nil, 0) // must not panic
	called := false
	SinkFunc(func(*packet.Message, uint64) { called = true }).Deliver(nil, 1)
	if !called {
		t.Error("SinkFunc not invoked")
	}
}

func TestByteRateProcessedCounter(t *testing.T) {
	e := NewByteRateEngine("x", 4, 0, nil)
	e.Process(&Ctx{}, &packet.Message{Pkt: &packet.Packet{PayloadLen: 8}})
	if e.Processed() != 1 {
		t.Error("Processed not counted")
	}
}

func TestCollectorAndCPUCounters(t *testing.T) {
	c := NewCollectorEngine("c", 0, nil) // zero service coerced to 1
	if c.ServiceCycles(nil) != 1 {
		t.Error("zero service not coerced")
	}
	cpu := NewCPUCoreEngine("p", 0, 0, nil) // zero per-packet coerced
	if cpu.ServiceCycles(&packet.Message{Pkt: &packet.Packet{}}) != 1 {
		t.Error("zero per-packet not coerced")
	}
	cpu.Process(&Ctx{}, &packet.Message{Pkt: &packet.Packet{}})
	if cpu.Processed() != 1 {
		t.Error("cpu Processed")
	}
}
