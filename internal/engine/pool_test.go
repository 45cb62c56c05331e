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
