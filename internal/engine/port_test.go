package engine

import (
	"testing"

	"github.com/panic-nic/panic/internal/noc"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sched"
)

// creditFabric is a fabric stub that takes at most credit injections
// before refusing, and records what it was given in order.
type creditFabric struct {
	credit int
	got    []*packet.Message
}

func (f *creditFabric) Nodes() int                         { return 1 }
func (f *creditFabric) CanInject(src, dst noc.NodeID) bool { return f.credit > 0 }
func (f *creditFabric) Inject(_, _ noc.NodeID, m *packet.Message) {
	if f.credit == 0 {
		panic("creditFabric: inject without credit")
	}
	f.credit--
	f.got = append(f.got, m)
}
func (f *creditFabric) TryEject(noc.NodeID) (*packet.Message, bool) { return nil, false }
func (f *creditFabric) HasEjectable(noc.NodeID) bool                { return false }
func (f *creditFabric) FlitsFor(*packet.Message) int                { return 1 }

func newTestPort(fab noc.Fabric) *port {
	routes := NewRouteTable()
	routes.Bind(1, 0)
	cfg := TileConfig{Addr: 1, Node: 0, QueueCap: 4, Policy: sched.Backpressure}
	p := newPort("p", cfg, fab, routes, sched.RankFIFO)
	return &p
}

func queueOut(p *port, n int) []*packet.Message {
	msgs := make([]*packet.Message, n)
	for i := range msgs {
		msgs[i] = &packet.Message{ID: uint64(i + 1)}
		p.outbox = append(p.outbox, resolvedOut{msg: msgs[i]})
	}
	return msgs
}

func TestPortDrainStallsWhileFabricBlocked(t *testing.T) {
	fab := &creditFabric{}
	p := newTestPort(fab)
	if p.drain(0) || p.stalls != 0 {
		t.Fatal("draining an empty outbox blocked or stalled")
	}
	msgs := queueOut(p, 3)
	if p.canDrain() {
		t.Error("canDrain true with no fabric credit")
	}
	if !p.drain(1) {
		t.Error("drain did not report the blocked head")
	}
	if p.stalls != 1 || p.emitted != 0 || p.outLen() != 3 {
		t.Errorf("blocked drain: stalls=%d emitted=%d outLen=%d, want 1 0 3", p.stalls, p.emitted, p.outLen())
	}
	fab.credit = 1
	if !p.drain(2) {
		t.Error("partial drain did not report the blocked head")
	}
	if p.stalls != 2 || p.emitted != 1 || p.outLen() != 2 {
		t.Errorf("partial drain: stalls=%d emitted=%d outLen=%d, want 2 1 2", p.stalls, p.emitted, p.outLen())
	}
	fab.credit = 10
	if p.drain(3) {
		t.Error("drain reported a block with credit to spare")
	}
	if p.stalls != 2 || p.emitted != 3 {
		t.Errorf("full drain: stalls=%d emitted=%d, want 2 3", p.stalls, p.emitted)
	}
	if len(p.outbox) != 0 || p.outHead != 0 {
		t.Errorf("empty outbox not reclaimed: len=%d head=%d", len(p.outbox), p.outHead)
	}
	for i, m := range fab.got {
		if m != msgs[i] {
			t.Fatalf("injection %d out of order", i)
		}
	}
}

func TestPortCompactOutboxKeepsOrderUnderBacklog(t *testing.T) {
	fab := &creditFabric{}
	p := newTestPort(fab)
	msgs := queueOut(p, 200)
	// Drain a few per cycle so a backlog stands behind every drain.
	for cycle := uint64(0); p.outLen() > 0; cycle++ {
		fab.credit = 7
		p.drain(cycle)
		if p.outHead >= 64 {
			t.Fatalf("cycle %d: drained prefix of %d not compacted", cycle, p.outHead)
		}
	}
	if len(fab.got) != len(msgs) {
		t.Fatalf("injected %d of %d", len(fab.got), len(msgs))
	}
	for i, m := range fab.got {
		if m != msgs[i] {
			t.Fatalf("injection %d out of order after compaction", i)
		}
	}
	if p.emitted != uint64(len(msgs)) {
		t.Errorf("emitted = %d, want %d", p.emitted, len(msgs))
	}
}
