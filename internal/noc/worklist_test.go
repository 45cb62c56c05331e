package noc

import (
	"fmt"
	"testing"

	"github.com/panic-nic/panic/internal/sim"
)

// delivery is one message handed to a tile: when, where, and which.
type delivery struct {
	cycle uint64
	node  NodeID
	id    uint64
}

// churnTraffic injects bursts of random traffic at random cycles and polls
// every eject queue every cycle, taking a parked message only when a hash
// of (cycle, node) says so: in odd 500-cycle phases the consumer is slow,
// eject queues fill, backpressure reaches the sources, and routers fall
// asleep with parked entries. Like a tile, churnTraffic sleeps between
// bursts and is woken by the mesh's node wakers when an arrival parks.
//
// With long set, one message in twenty is a 1,500 B frame (188 flits,
// longer than a whole path's buffers), and node 0 sends one to the far
// corner at every burst. That corner's consumer stops for the first 300
// cycles of every 1,000, so a frame's head waits at a full eject queue
// with its body stalled along the path and followers queued behind it,
// until the consumer resumes and the frame advances as a worm.
type churnTraffic struct {
	m         *Mesh
	rng       *sim.RNG
	long      bool
	nextBurst uint64
	lastBurst uint64
	nextID    uint64
	log       []delivery
}

func (d *churnTraffic) Tick(cycle uint64) {
	drainPct := uint64(90)
	if cycle/500%2 == 1 {
		drainPct = 3
	}
	corner := NodeID(d.m.Nodes() - 1)
	for n := 0; n < d.m.Nodes(); n++ {
		node := NodeID(n)
		if d.long && node == corner && cycle%1000 < 300 {
			continue
		}
		h := cycle*uint64(d.m.Nodes()) + uint64(n)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		if h%100 < drainPct {
			if msg, ok := d.m.TryEject(node); ok {
				d.log = append(d.log, delivery{cycle, node, msg.ID})
			}
		}
	}
	if cycle < d.nextBurst || d.nextBurst >= d.lastBurst {
		return
	}
	for n := 0; n < d.m.Nodes(); n++ {
		node := NodeID(n)
		dst := NodeID(d.rng.Intn(d.m.Nodes()))
		size := 1 + d.rng.Intn(120)
		if d.long && d.rng.Bool(0.05) {
			size = 1500
		}
		if node == 0 && d.long {
			dst, size = corner, 1500
		}
		if d.rng.Bool(0.4) && d.m.CanInject(node, dst) {
			d.nextID++
			msg := testMsg(size)
			msg.ID = d.nextID
			d.m.Inject(node, dst, msg)
		}
	}
	// Gaps are short most of the time, with quiet stretches in which only
	// a fault-gated router may still have work.
	gap := 1 + d.rng.Intn(12)
	if d.rng.Bool(0.1) {
		gap += 100 + d.rng.Intn(200)
	}
	d.nextBurst = cycle + uint64(gap)
}

// EndCycle implements sim.EventAware: the consumer polls every cycle while
// an arrival is parked anywhere (the node wakers poke it when one lands);
// otherwise its only self-scheduled work is its next burst.
func (d *churnTraffic) EndCycle(cycle uint64) uint64 {
	for n := 0; n < d.m.Nodes(); n++ {
		if d.m.HasEjectable(NodeID(n)) {
			return cycle + 1
		}
	}
	if d.nextBurst >= d.lastBurst {
		return sim.WakeNever
	}
	return max(d.nextBurst, cycle+1)
}

// SyncTo implements sim.EventAware: a sleeping consumer defers nothing.
func (d *churnTraffic) SyncTo(uint64) {}

// runChurn runs a churnTraffic on a 4x4 mesh, on the kernel or on the
// reference stepper. A pass-every-3 link fault is installed and lifted
// mid-run, and a severed link is cut and healed. It returns the delivery
// sequence and the final Stats. On a single-VC kernel run it also checks
// that worms advanced some flits; the reference stepper advances none.
func runChurn(t *testing.T, vcs int, seed uint64, long, reference bool) ([]delivery, Stats) {
	t.Helper()
	cfg := DefaultMeshConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.VirtualChannels = vcs
	cfg.EjectDepth = 3
	m := NewMesh(cfg)
	k := sim.NewKernel(sim.GHz)
	if reference {
		k.UseReference()
	}
	m.RegisterWith(k)
	d := &churnTraffic{m: m, rng: sim.NewRNG(seed), long: long, lastBurst: 7000}
	if long {
		d.lastBurst = 5000 // long frames need the extra time to drain
	}
	k.Register(d)
	for n := 0; n < m.Nodes(); n++ {
		m.SetNodeWaker(NodeID(n), k.PokerFor(d))
	}
	a, b := m.NodeAt(1, 1), m.NodeAt(2, 1)
	c, e := m.NodeAt(2, 2), m.NodeAt(2, 3)
	k.At(1200, func() { m.SetLinkFault(a, b, LinkFault{PassEveryN: 3}) })
	k.At(2600, func() { m.SetLinkFault(c, e, LinkFault{Severed: true}) })
	k.At(3300, func() { m.SetLinkFault(c, e, LinkFault{}) })
	k.At(4100, func() { m.SetLinkFault(a, b, LinkFault{}) })
	k.Run(4000)
	k.Run(5000) // a Run boundary mid-traffic exercises the wake-all cycle
	if err := m.AuditConservation(); err != nil {
		t.Fatal(err)
	}
	if m.InFlight() != 0 {
		t.Fatalf("%d messages still in flight at the end", m.InFlight())
	}
	if !reference && k.SkippedCycles() == 0 {
		t.Fatal("the kernel skipped no cycle: the quiet stretches went unexercised")
	}
	switch hops := m.Work().WormHops; {
	case reference && hops != 0:
		t.Fatalf("the reference stepper advanced %d flit hops by worms", hops)
	case !reference && vcs == 1 && hops == 0:
		t.Fatal("no worm advanced a flit")
	}
	return d.log, m.Stats()
}

// TestEventMeshMatchesTickedUnderChurn is the mesh's lost-commit and
// lost-wakeup check: a lane pushed or popped but never committed, a router
// left asleep with work to do, or a worm that advances a flit early or
// late changes when messages come out, so the kernel's delivery sequence
// and Stats would diverge from the reference stepper's.
func TestEventMeshMatchesTickedUnderChurn(t *testing.T) {
	for _, vcs := range []int{1, 2} {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, long := range []bool{false, true} {
				name := fmt.Sprintf("vcs%d/seed%d", vcs, seed)
				if long {
					name += "/1500B"
				}
				t.Run(name, func(t *testing.T) {
					wantLog, wantStats := runChurn(t, vcs, seed, long, true)
					gotLog, gotStats := runChurn(t, vcs, seed, long, false)
					if gotStats != wantStats {
						t.Fatalf("kernel Stats %+v, reference %+v", gotStats, wantStats)
					}
					if uint64(len(wantLog)) != wantStats.Delivered || wantStats.Delivered < 100 {
						t.Fatalf("reference run delivered %d (log %d): too little traffic to compare",
							wantStats.Delivered, len(wantLog))
					}
					compareDeliveries(t, gotLog, wantLog)
				})
			}
		}
	}
}

// compareDeliveries fails at the first delivery where the kernel's log
// departs from the reference stepper's.
func compareDeliveries(t *testing.T, got, want []delivery) {
	t.Helper()
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			t.Fatalf("delivery %d: kernel %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("kernel run handed out %d messages, reference %d", len(got), len(want))
	}
}

// checkLanesClean fails unless every lane of the mesh is committed: no
// dirty list holds a lane and no lane's dirty flag is up. A flag left up
// would mark a lane that was touched without being listed, which Commit
// then never reaches.
func checkLanesClean(t *testing.T, m *Mesh) {
	t.Helper()
	if n := len(m.dirtyFlit) + len(m.dirtyInj) + len(m.dirtyEject); n != 0 {
		t.Fatalf("%d lanes still listed after Commit", n)
	}
	for _, r := range m.routers {
		for p := range r.in {
			for v, f := range r.in[p] {
				if *f.DirtyFlag() {
					t.Fatalf("router %d input (%d, %d) dirty after Commit", r.id, p, v)
				}
			}
		}
		for v := range r.inj.lanes {
			if *r.inj.lanes[v].q.DirtyFlag() {
				t.Fatalf("router %d injection lane %d dirty after Commit", r.id, v)
			}
		}
		if *r.ejectQ.DirtyFlag() {
			t.Fatalf("router %d eject queue dirty after Commit", r.id)
		}
	}
}

// TestMeshCommitsTouchedLanesOnly steps a mesh cycle by cycle. An idle cycle touches no lane; an Inject into a sleeping router
// and a TryEject, both made outside any router tick, are committed in the
// cycle they happen.
func TestMeshCommitsTouchedLanesOnly(t *testing.T) {
	m, k := newTestMesh(3, 3)
	src, dst := m.NodeAt(0, 0), m.NodeAt(2, 2)
	inject, eject := false, false
	k.Register(sim.TickFunc(func(uint64) {
		if inject {
			m.Inject(src, dst, testMsg(8))
			inject = false
		}
		if eject {
			if _, ok := m.TryEject(dst); !ok {
				t.Fatal("nothing to eject")
			}
			eject = false
		}
	}))
	// A serial ticker runs after Eval and before Commit: it sees how many
	// lanes the cycle touched.
	var touched int
	k.RegisterSerial(sim.TickFunc(func(uint64) {
		touched = len(m.dirtyFlit) + len(m.dirtyInj) + len(m.dirtyEject)
	}))
	k.Run(10)

	k.Step()
	if touched != 0 {
		t.Fatalf("idle cycle touched %d lanes", touched)
	}
	checkLanesClean(t, m)

	if m.routers[src].queued {
		t.Fatal("source router queued on an idle mesh")
	}
	inject = true
	k.Step()
	if touched != 1 || m.routers[src].inj.lanes[0].q.Len() != 1 {
		t.Fatalf("Inject into a sleeping router: %d lanes touched, want 1 committed", touched)
	}
	checkLanesClean(t, m)

	for i := 0; !m.HasEjectable(dst); i++ {
		if i == 100 {
			t.Fatal("message never arrived")
		}
		k.Step()
		checkLanesClean(t, m)
	}
	for i := 0; i < 3; i++ {
		k.Step() // routers fall asleep; the parked message keeps the mesh awake
	}
	eject = true
	k.Step()
	if touched != 1 || m.routers[dst].ejectQ.Pending() != 0 {
		t.Fatalf("TryEject: %d lanes touched, eject queue holds %d after Commit, want 1 and 0",
			touched, m.routers[dst].ejectQ.Pending())
	}
	checkLanesClean(t, m)
	for _, r := range m.routers {
		if r.queued && r.id != dst {
			t.Fatalf("router %d still queued after the mesh drained", r.id)
		}
	}
}
