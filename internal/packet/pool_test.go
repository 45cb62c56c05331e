package packet

import "testing"

func udpMsg(p *MessagePool) *Message {
	return p.UDP(22, Ethernet{EtherType: EtherTypeIPv4}, IPv4{TTL: 64, Protocol: ProtoUDP}, UDP{SrcPort: 1, DstPort: 2})
}

// TestMessagePoolShapesAndBound: shells only come back as their own shape,
// each free list holds at most maxFree shells, and a nil pool allocates.
func TestMessagePoolShapesAndBound(t *testing.T) {
	if m := (*MessagePool)(nil).UDP(0, Ethernet{}, IPv4{}, UDP{}); m == nil || m.Pkt.String() != "Ethernet/IPv4/UDP" {
		t.Fatalf("nil pool built %v", m)
	}
	(*MessagePool)(nil).Put(&Message{})

	pool := NewMessagePool()
	dma := pool.DMA(0, Ethernet{EtherType: EtherTypeDMA}, DMA{Op: DMARead})
	pool.Put(dma)
	if m := udpMsg(pool); m == dma {
		t.Fatal("a DMA shell was rebuilt as a UDP frame")
	}
	if m := pool.DMA(0, Ethernet{EtherType: EtherTypeDMA}, DMA{Op: DMAWrite}); m != dma && !PoolCheck {
		t.Fatal("the DMA shell was not reused")
	}

	pool = NewMessagePool()
	for i := 0; i < 2*maxFree; i++ {
		pool.Put(udpMsg(nil))
	}
	pool.Put(&Message{Pkt: NewPacket(0, &Ethernet{}, &IPv4{}, &TCP{})})
	if want := maxFree; !PoolCheck && pool.Len() != want {
		t.Fatalf("free list holds %d shells, want the bound %d", pool.Len(), want)
	}
}

// TestMessagePoolKeepsShedChain: a chain shim on a released shell, or one
// stripped at egress, becomes the packet's spare, and the next
// InsertChainHops reuses it.
func TestMessagePoolKeepsShedChain(t *testing.T) {
	for _, strip := range []bool{false, true} {
		m := udpMsg(nil)
		m.InsertChainHops(ChainFlagLossless, []Hop{{Engine: 3}, {Engine: 4}})
		c := m.Chain()
		if strip {
			m.StripChain()
			if m.Chain() != nil || m.Pkt.String() != "Ethernet/IPv4/UDP(+22B)" {
				t.Fatalf("strip left %s", m.Pkt)
			}
		}
		pool := NewMessagePool()
		pool.Put(m)
		if PoolCheck {
			continue
		}
		r := udpMsg(pool)
		if r != m || r.Chain() != nil {
			t.Fatalf("strip=%v: recycled %p (want %p) with chain %v", strip, r, m, r.Chain())
		}
		r.InsertChainHops(0, []Hop{{Engine: 9}})
		if r.Chain() != c || len(c.Hops) != 1 || c.Hops[0].Engine != 9 || c.Cursor != 0 {
			t.Fatalf("strip=%v: chain not reused: %+v", strip, r.Chain())
		}
	}
}

// TestPoolCheckCatchesMisuse: in poolcheck builds a released message fails
// AssertLive, a second release panics, and a write to a quarantined shell
// is caught when it leaves quarantine.
func TestPoolCheckCatchesMisuse(t *testing.T) {
	if !PoolCheck {
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
	pool := NewMessagePool()
	m := udpMsg(pool)
	m.AssertLive()
	pool.Put(m)
	mustPanic("AssertLive after release", m.AssertLive)
	mustPanic("second release", func() { pool.Put(m) })

	m.EnqueuedAt = 7 // a stale holder writes to the released shell
	mustPanic("write during quarantine", func() {
		for i := 0; i < quarantineLen; i++ {
			pool.Put(udpMsg(nil))
		}
	})
}
