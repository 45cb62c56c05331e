package workload

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
)

// drain polls a source once per cycle for n cycles, like a MAC would.
func drain(s Source, cycles uint64) []*packet.Message {
	var out []*packet.Message
	for now := uint64(0); now < cycles; now++ {
		for {
			m := s.Poll(now)
			if m == nil {
				break
			}
			out = append(out, m)
		}
	}
	return out
}

func TestIntervalFor(t *testing.T) {
	// 64B frame = 84B wire = 672 bits; at 40G/500MHz = 80 bits/cycle ->
	// 8.4 cycles between frames.
	if got := IntervalFor(64, 40, 500e6); math.Abs(got-8.4) > 1e-9 {
		t.Errorf("IntervalFor = %v, want 8.4", got)
	}
}

func TestFixedStreamCBRRate(t *testing.T) {
	// 8400 cycles at 8.4 cycles per frame is 1000 packets at 40 Gbps and
	// 500 at 20 Gbps.
	for _, tc := range []struct {
		gbps   float64
		lo, hi int
	}{{40, 999, 1001}, {20, 495, 505}} {
		s := NewFixedStream(FixedStreamConfig{
			FrameBytes: 64, RateGbps: tc.gbps, FreqHz: 500e6, Tenant: 3, Seed: 1,
		})
		msgs := drain(s, 8400)
		if len(msgs) < tc.lo || len(msgs) > tc.hi {
			t.Errorf("%v Gbps: generated %d packets in 8400 cycles, want %d..%d", tc.gbps, len(msgs), tc.lo, tc.hi)
		}
		m := msgs[0]
		if m.Tenant != 3 || m.WireLen() != 64 {
			t.Errorf("msg = %v wire=%d", m, m.WireLen())
		}
		if !m.Pkt.Has(packet.LayerTypeUDP) {
			t.Error("missing UDP layer")
		}
	}
}

func TestFixedStreamCountLimit(t *testing.T) {
	s := NewFixedStream(FixedStreamConfig{
		FrameBytes: 64, RateGbps: 40, FreqHz: 500e6, Count: 7, Seed: 1,
	})
	if got := len(drain(s, 100000)); got != 7 {
		t.Errorf("count-limited stream generated %d, want 7", got)
	}
	if s.Generated() != 7 {
		t.Errorf("Generated = %d", s.Generated())
	}
}

func TestPoissonMeanRate(t *testing.T) {
	s := NewFixedStream(FixedStreamConfig{
		FrameBytes: 64, RateGbps: 40, FreqHz: 500e6, Poisson: true, Seed: 5,
	})
	msgs := drain(s, 84000)
	// Mean 10000 arrivals; Poisson sd ~100. Allow 5 sd.
	if len(msgs) < 9500 || len(msgs) > 10500 {
		t.Errorf("poisson generated %d, want ~10000", len(msgs))
	}
}

func TestKVSStreamComposition(t *testing.T) {
	s := NewKVSStream(KVSTenantConfig{
		Tenant: 7, Class: packet.ClassLatency,
		RateGbps: 10, FreqHz: 500e6,
		Keys: 1000, GetRatio: 0.9, WANShare: 0.3, ValueBytes: 512,
		Seed: 11,
	})
	msgs := drain(s, 200000)
	if len(msgs) < 100 {
		t.Fatalf("only %d messages", len(msgs))
	}
	gets, sets, wan := 0, 0, 0
	for _, m := range msgs {
		if m.Tenant != 7 || m.Class != packet.ClassLatency {
			t.Fatalf("bad metadata: %v", m)
		}
		if m.Pkt.Has(packet.LayerTypeESP) {
			wan++
			if m.Inner == nil || !m.Inner.Has(packet.LayerTypeKVS) {
				t.Fatal("WAN message lost its plaintext")
			}
			continue
		}
		k := m.Pkt.Layer(packet.LayerTypeKVS).(*packet.KVS)
		switch k.Op {
		case packet.KVSGet:
			gets++
		case packet.KVSSet:
			sets++
			if k.ValueLen != 512 || m.Pkt.PayloadLen != 512 {
				t.Fatalf("SET sizes wrong: %+v payload=%d", k, m.Pkt.PayloadLen)
			}
		}
	}
	n := float64(len(msgs))
	if f := float64(wan) / n; f < 0.25 || f > 0.35 {
		t.Errorf("WAN share = %.2f, want ~0.30", f)
	}
	if f := float64(gets) / float64(gets+sets); f < 0.85 || f > 0.95 {
		t.Errorf("GET ratio among LAN = %.2f, want ~0.9", f)
	}
}

func TestZipfSkew(t *testing.T) {
	rng := sim.NewRNG(3)
	z := newZipf(rng, 1.2, 10000)
	counts := make(map[uint64]int)
	const n = 200000
	for i := 0; i < n; i++ {
		k := z.next()
		if k >= 10000 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Key 0 must dominate; the top-10 keys should hold a large share.
	if counts[0] < counts[1] {
		t.Error("key 0 not hottest")
	}
	top10 := 0
	for k := uint64(0); k < 10; k++ {
		top10 += counts[k]
	}
	if f := float64(top10) / n; f < 0.25 {
		t.Errorf("top-10 share = %.2f, want heavy skew", f)
	}
	// Ratio of p(0)/p(1) ≈ 2^1.2 ≈ 2.3.
	r := float64(counts[0]) / float64(counts[1])
	if r < 1.8 || r > 2.9 {
		t.Errorf("p(0)/p(1) = %.2f, want ~2.3", r)
	}
}

func TestZipfValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"s<=1": func() { newZipf(sim.NewRNG(1), 1.0, 10) },
		"n=0":  func() { newZipf(sim.NewRNG(1), 1.5, 0) },
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

func TestMergeFairRotation(t *testing.T) {
	a := NewFixedStream(FixedStreamConfig{FrameBytes: 64, RateGbps: 40, FreqHz: 500e6, Tenant: 1, Seed: 1})
	b := NewFixedStream(FixedStreamConfig{FrameBytes: 64, RateGbps: 40, FreqHz: 500e6, Tenant: 2, Seed: 2})
	m := NewMerge(a, b)
	msgs := drain(m, 8400)
	byTenant := map[uint16]int{}
	for _, msg := range msgs {
		byTenant[msg.Tenant]++
	}
	if byTenant[1] < 900 || byTenant[2] < 900 {
		t.Errorf("merge starved a source: %v", byTenant)
	}
}

func TestIsolationMixClasses(t *testing.T) {
	m := NewIsolationMix(500e6, 1, 40, 1500, 3)
	msgs := drain(m, 100000)
	classes := map[packet.Class]int{}
	bytes := map[packet.Class]int{}
	for _, msg := range msgs {
		classes[msg.Class]++
		bytes[msg.Class] += msg.WireLen()
	}
	if classes[packet.ClassLatency] == 0 || classes[packet.ClassBulk] == 0 {
		t.Fatalf("missing a tenant: %v", classes)
	}
	// Bulk is 40x the offered load in bytes (1 vs 40 Gbps).
	if bytes[packet.ClassBulk] < 20*bytes[packet.ClassLatency] {
		t.Errorf("bulk should dominate byte volume: %v", bytes)
	}
}

func TestWorkloadValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"tiny frame": func() { NewFixedStream(FixedStreamConfig{FrameBytes: 32, RateGbps: 1, FreqHz: 1e9}) },
		"no keys":    func() { NewKVSStream(KVSTenantConfig{RateGbps: 1, FreqHz: 1e9}) },
		"bad ratio":  func() { NewKVSStream(KVSTenantConfig{Keys: 10, GetRatio: 2, RateGbps: 1, FreqHz: 1e9}) },
		"empty mix":  func() { NewMerge() },
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

// TestPropertyStreamsAreDeterministic: identical configs yield identical
// streams; different seeds diverge.
func TestPropertyStreamsAreDeterministic(t *testing.T) {
	prop := func(seed uint64, poisson bool) bool {
		mk := func(s uint64) []*packet.Message {
			return drain(NewKVSStream(KVSTenantConfig{
				Tenant: 1, RateGbps: 20, FreqHz: 500e6, Poisson: poisson,
				Keys: 100, GetRatio: 0.5, WANShare: 0.5, ValueBytes: 64,
				Seed: s, Count: 50,
			}), 100000)
		}
		a, b := mk(seed), mk(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			ka := a[i].Pkt
			kb := b[i].Pkt
			if ka.WireLen() != kb.WireLen() || ka.String() != kb.String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyZipfInRange: keys always fall in [0, n).
func TestPropertyZipfInRange(t *testing.T) {
	prop := func(seed uint64, nSeed uint16, sSeed uint8) bool {
		n := uint64(nSeed)%1000 + 1
		s := 1.01 + float64(sSeed)/64.0
		z := newZipf(sim.NewRNG(seed), s, n)
		for i := 0; i < 200; i++ {
			if z.next() >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFixedStreamPoolIdentical drives every producer that builds messages
// from a MessagePool twice in lockstep — once allocating every message,
// once recycling shells — and checks each pooled message is identical to
// its fresh twin, before and after the NIC-style reshaping (a chain shim
// written by the RMT deparser, stripped again at wire egress) that
// precedes its release. Recycled shells therefore include ones that
// carried a chain and ones that shed it.
func TestFixedStreamPoolIdentical(t *testing.T) {
	const n = 2000 // past the poolcheck quarantine, so both builds recycle
	kvsCfg := KVSTenantConfig{
		Tenant: 3, Class: packet.ClassLatency, RateGbps: 20, FreqHz: 500e6,
		Keys: 64, GetRatio: 0.6, WANShare: 0.5, ValueBytes: 200, Seed: 7,
	}
	records := Record(NewKVSStream(kvsCfg), 100_000)
	// poller turns a source into a producer that returns its next message.
	poller := func(src Source) func() *packet.Message {
		now := uint64(0)
		return func() *packet.Message {
			for {
				if m := src.Poll(now); m != nil {
					return m
				}
				if now++; now > 1e6 {
					t.Fatal("source ran dry")
				}
			}
		}
	}
	// kvsGet is a chainless GET request, the input the engines answer.
	kvsGet := func(i int) *packet.Message {
		return &packet.Message{ID: uint64(i), TraceID: uint64(i) << 8, Tenant: 2, Class: packet.ClassLatency,
			Port: 1, Inject: uint64(i),
			Pkt: packet.NewPacket(0,
				&packet.Ethernet{Dst: packet.MAC{2, 0, 0, 0, 0, 2}, Src: packet.MAC{2, 0, 0, 0, 0, 1}, EtherType: packet.EtherTypeIPv4},
				&packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: packet.IP4{10, 1, 0, 2}, Dst: packet.IP4{10, 255, 0, 2}},
				&packet.UDP{SrcPort: 5002, DstPort: packet.KVSPort},
				&packet.KVS{Op: packet.KVSGet, Tenant: 2, Key: uint64(i % 17), ValueLen: uint32(64 + i%5)}),
		}
	}
	producers := []struct {
		name string
		// mk returns a producer whose messages come from pool (nil: fresh).
		mk func(pool *packet.MessagePool) func() *packet.Message
	}{
		{"FixedStream", func(pool *packet.MessagePool) func() *packet.Message {
			s := NewFixedStream(FixedStreamConfig{
				FrameBytes: 128, RateGbps: 50, FreqHz: 500e6, Poisson: true,
				Tenant: 9, Class: packet.ClassBulk, Seed: 42,
			})
			s.UsePool(pool)
			return poller(s)
		}},
		{"KVSStream", func(pool *packet.MessagePool) func() *packet.Message {
			s := NewKVSStream(kvsCfg)
			s.UsePool(pool)
			return poller(s)
		}},
		{"TraceSource", func(pool *packet.MessagePool) func() *packet.Message {
			s := NewTraceSource(records)
			s.UsePool(pool)
			return poller(s)
		}},
		{"DMACompletion", func(pool *packet.MessagePool) func() *packet.Message {
			dma := engine.NewDMAEngine(engine.DMAConfig{PCIeGbps: 64, FreqHz: 500e6, BaseLatencyCycles: 10, JitterCycles: 5}, nil, nil)
			ctx := &engine.Ctx{RNG: sim.NewRNG(3), Pool: pool}
			i := 0
			return func() *packet.Message {
				i++
				op := packet.DMARead
				if i%3 == 0 {
					op = packet.DMAWrite
				}
				req := &packet.Message{ID: uint64(i), TraceID: uint64(i), Tenant: 4,
					Pkt: packet.NewPacket(0, &packet.Ethernet{EtherType: packet.EtherTypeDMA},
						&packet.DMA{Op: op, Requester: 36, Len: uint32(i), HostAddr: uint64(i) * 64})}
				ctx.Now = uint64(i)
				return dma.Process(ctx, req)[0].Msg
			}
		}},
		{"DMANotify", func(pool *packet.MessagePool) func() *packet.Message {
			dma := engine.NewDMAEngine(engine.DMAConfig{PCIeGbps: 64, FreqHz: 500e6, BaseLatencyCycles: 10, NotifyAddr: 33}, nil, nil)
			ctx := &engine.Ctx{RNG: sim.NewRNG(3), Pool: pool}
			i := 0
			return func() *packet.Message {
				i++
				ctx.Now = uint64(i)
				return dma.Process(ctx, kvsGet(i))[0].Msg
			}
		}},
		{"HostReply", func(pool *packet.MessagePool) func() *packet.Message {
			h := core.NewKVSHost(100, 512)
			h.UsePool(pool)
			i := 0
			return func() *packet.Message {
				i++
				req := kvsGet(i)
				if i%4 == 0 {
					req.Pkt.Layers[3].(*packet.KVS).Op = packet.KVSSet
					req.Pkt.Serialize()
				}
				resp, _, ok := h.Respond(req, uint64(i))
				if !ok {
					t.Fatal("host did not answer a KVS request")
				}
				return resp
			}
		}},
		{"RDMAReply", func(pool *packet.MessagePool) func() *packet.Message {
			rdma := engine.NewRDMAEngine(engine.RDMAConfig{DMAAddr: 32})
			ctx := &engine.Ctx{Addr: 36, Pool: pool}
			i := 0
			return func() *packet.Message {
				i++
				ctx.Now = uint64(i)
				read := rdma.Process(ctx, kvsGet(i))[0].Msg
				d := read.Pkt.Layer(packet.LayerTypeDMA).(*packet.DMA)
				compl := &packet.Message{ID: read.ID, Pkt: packet.NewPacket(int(d.Len),
					&packet.Ethernet{EtherType: packet.EtherTypeDMA},
					&packet.DMA{Op: packet.DMAReadCompl, Requester: 36, Len: d.Len, HostAddr: d.HostAddr})}
				pool.Put(read)
				return rdma.Process(ctx, compl)[0].Msg
			}
		}},
	}
	for _, pr := range producers {
		t.Run(pr.name, func(t *testing.T) {
			pool := packet.NewMessagePool()
			fresh, pooled := pr.mk(nil), pr.mk(pool)
			released := make(map[*packet.Message]bool)
			reuses := 0
			for i := 0; i < n; i++ {
				a, b := fresh(), pooled()
				if released[b] {
					reuses++
				}
				requireSameMessage(t, i, a, b)
				// Reshape both twins the way the NIC would, then release
				// the pooled one.
				for _, m := range []*packet.Message{a, b} {
					m.Inject, m.Done, m.EnqueuedAt, m.Deadline = 11, 22, 33, 44
					m.Needs = []string{"dma"}
					if i%2 == 0 {
						m.InsertChainHops(packet.ChainFlagLossless, []packet.Hop{{Engine: 7, Slack: uint32(i)}, {Engine: 32}})
						if i%3 == 0 {
							m.StripChain()
						}
					}
				}
				requireSameMessage(t, i, a, b)
				pool.Put(b)
				released[b] = true
			}
			if reuses == 0 {
				t.Fatal("no message came from a recycled shell")
			}
		})
	}
}

// requireSameMessage fails unless a and b are identical in every field a
// simulation can observe.
func requireSameMessage(t *testing.T, i int, a, b *packet.Message) {
	t.Helper()
	desc := func(m *packet.Message) packet.Message {
		c := *m
		c.Pkt, c.Inner = nil, nil
		return c
	}
	if da, db := desc(a), desc(b); !reflect.DeepEqual(da, db) {
		t.Fatalf("message %d: descriptors diverged:\n fresh  %+v\n pooled %+v", i, da, db)
	}
	for _, p := range [][2]*packet.Packet{{a.Pkt, b.Pkt}, {a.Inner, b.Inner}} {
		pa, pb := p[0], p[1]
		if (pa == nil) != (pb == nil) {
			t.Fatalf("message %d: packet presence diverged", i)
		}
		if pa == nil {
			continue
		}
		if !bytes.Equal(pa.Buf, pb.Buf) || pa.PayloadLen != pb.PayloadLen || !reflect.DeepEqual(pa.Layers, pb.Layers) {
			t.Fatalf("message %d: packets diverged:\n fresh  %s %x\n pooled %s %x", i, pa, pa.Buf, pb, pb.Buf)
		}
	}
}
