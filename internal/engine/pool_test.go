package engine

import (
	"testing"

	"github.com/panic-nic/panic/internal/packet"
)

// earlyRelease plants a use-after-release bug: a DMA engine that releases a
// host-bound message right after handing it to its host sink, while the
// StagedSink still holds it for the Commit phase.
type earlyRelease struct{ *DMAEngine }

func (e earlyRelease) Process(ctx *Ctx, m *packet.Message) []Out {
	hostBound := !m.Pkt.Has(packet.LayerTypeDMA)
	outs := e.DMAEngine.Process(ctx, m)
	if hostBound {
		ctx.Pool.Put(m)
	}
	return outs
}

// TestPoolCheckCatchesEarlyRelease: in poolcheck builds the staged host
// sink's flush trips over a message the DMA engine released before the
// flush, and the honest engine runs clean.
func TestPoolCheckCatchesEarlyRelease(t *testing.T) {
	if !packet.PoolCheck {
		t.Skip("needs -tags poolcheck")
	}
	for _, planted := range []bool{false, true} {
		func() {
			r := newRig(3, 1)
			pool := packet.NewMessagePool()
			sink := NewStagedSink(NullSink{})
			dma := NewDMAEngine(DMAConfig{PCIeGbps: 64, FreqHz: 500e6, BaseLatencyCycles: 5}, sink, nil)
			var eng Engine = dma
			if planted {
				eng = earlyRelease{dma}
			}
			tile := r.place(2, 2, 0, eng)
			r.k.Register(sink)
			tile.UsePool(pool)
			defer func() {
				if caught := recover() != nil; caught != planted {
					t.Errorf("planted=%v: use after release caught=%v", planted, caught)
				}
			}()
			for i := uint64(1); i <= 4; i++ {
				r.mesh.Inject(r.mesh.NodeAt(0, 0), tile.Node(), chainMsg(i, packet.Hop{Engine: 2}))
				r.k.Run(50)
			}
			if _, _, delivered := dma.Counts(); delivered != 4 {
				t.Errorf("planted=%v: %d host deliveries, want 4", planted, delivered)
			}
		}()
	}
}

// TestPoolCheckDecryptedOuterShell: in poolcheck builds the outer ESP shell
// the IPSec engine discards on decrypt is poisoned and quarantined like a
// released message. A stale holder that reads it, or a message still
// wearing it, fails AssertLive; the pool does not hand it out again while
// it is quarantined; and a write to it is caught when it leaves quarantine.
func TestPoolCheckDecryptedOuterShell(t *testing.T) {
	if !packet.PoolCheck {
		t.Skip("needs -tags poolcheck")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	pool := packet.NewMessagePool()
	ctx := &Ctx{Pool: pool}
	e := NewIPSecEngine(IPSecConfig{BytesPerCycle: 4})
	m := kvsGet(1, 1, 7)
	m.InsertChainHops(0, []packet.Hop{{Engine: 4}, {Engine: 2}})
	e.Process(ctx, m) // encrypt: the message wears a shell from the pool
	outer := m.Pkt
	outer.AssertLive()
	e.Process(ctx, m) // decrypt: the shell goes back to the pool
	m.AssertLive()
	if m.Pkt == outer || m.Chain() == nil || !m.Chain().Reinjected() {
		t.Fatalf("decrypt left %s with chain %+v", m.Pkt, m.Chain())
	}

	mustPanic("read of the released shell", outer.AssertLive)
	mustPanic("message wearing the released shell", (&packet.Message{Pkt: outer}).AssertLive)
	mustPanic("second release of the shell", func() { pool.PutESP(outer) })
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	ip := packet.IPv4{Protocol: packet.ProtoESP}
	if again := pool.ESP(0, eth, ip, packet.ESP{}); again == outer {
		t.Fatal("the pool handed out a quarantined shell")
	}

	outer.PayloadLen = 100 // a stale holder writes to the released shell
	mustPanic("write during quarantine", func() {
		for i := 0; i < 4096; i++ {
			pool.PutESP(pool.ESP(0, eth, ip, packet.ESP{}))
		}
	})
}
