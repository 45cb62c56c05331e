package noc

import (
	"fmt"
	"testing"

	"github.com/panic-nic/panic/internal/sim"
)

// randomTraffic offers a message at every node with probability load per
// cycle, sized uniformly in [1, maxBytes] bytes and bound for a random
// node, and takes each node's next arrival with probability 0.7 per cycle.
type randomTraffic struct {
	m        *Mesh
	rng      *sim.RNG
	load     float64
	maxBytes int
	nextID   uint64
	log      []delivery
}

func (d *randomTraffic) Tick(cycle uint64) {
	for n := 0; n < d.m.Nodes(); n++ {
		node := NodeID(n)
		if d.rng.Bool(0.7) {
			if msg, ok := d.m.TryEject(node); ok {
				d.log = append(d.log, delivery{cycle, node, msg.ID})
			}
		}
		if !d.rng.Bool(d.load) {
			continue
		}
		dst := NodeID(d.rng.Intn(d.m.Nodes()))
		size := 1 + d.rng.Intn(d.maxBytes)
		if d.m.CanInject(node, dst) {
			d.nextID++
			msg := testMsg(size)
			msg.ID = d.nextID
			d.m.Inject(node, dst, msg)
		}
	}
}

// wormScenario is one differential run of random traffic.
type wormScenario struct {
	w, h     int
	load     float64
	maxBytes int
	seed     uint64
	// chunk is the length of each Run (0 = the whole horizon in two
	// Runs). Every Run starts with a wake-all cycle, which writes the
	// advancing worms back into their lanes.
	chunk uint64
}

// runSnapshot is what a caller can observe after one Run.
type runSnapshot struct {
	delivered int
	stats     Stats
}

// runWormScenario runs the scenario for horizon cycles on the kernel or on
// the reference stepper, resetting the Stats at the first Run boundary at
// or past half time. It returns the delivery log, a snapshot after every
// Run, and the flit hops advanced by worms.
func runWormScenario(sc wormScenario, horizon uint64, reference bool) ([]delivery, []runSnapshot, uint64) {
	cfg := DefaultMeshConfig()
	cfg.Width, cfg.Height = sc.w, sc.h
	cfg.EjectDepth = 4
	m := NewMesh(cfg)
	k := sim.NewKernel(sim.GHz)
	if reference {
		k.UseReference()
	}
	m.RegisterWith(k)
	d := &randomTraffic{m: m, rng: sim.NewRNG(sc.seed), load: sc.load, maxBytes: sc.maxBytes}
	k.Register(d)
	chunk := sc.chunk
	if chunk == 0 {
		chunk = horizon / 2
	}
	var snaps []runSnapshot
	reset := false
	for k.Now() < horizon {
		k.Run(min(chunk, horizon-k.Now()))
		if !reset && k.Now() >= horizon/2 {
			m.ResetStats()
			reset = true
		}
		snaps = append(snaps, runSnapshot{len(d.log), m.Stats()})
	}
	return d.log, snaps, m.Work().WormHops
}

// TestWormAdvanceMatchesFlitStepping compares worm advance against pure
// flit stepping (the reference stepper never forms a worm) on random
// traffic over mesh shapes, loads, message sizes and seeds, with long Runs
// and with 97-cycle Runs whose wake-all cycles land mid-worm: the delivery
// logs and the Stats after every Run must be identical.
func TestWormAdvanceMatchesFlitStepping(t *testing.T) {
	horizon := uint64(2000)
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		horizon, seeds = 1000, seeds[:1]
	}
	var wormHops uint64
	for _, shape := range [][2]int{{6, 6}, {4, 4}, {8, 3}} {
		for _, load := range []float64{0.05, 0.3, 1} {
			for _, maxBytes := range []int{64, 300, 1500} {
				for _, seed := range seeds {
					for _, chunk := range []uint64{0, 97} {
						sc := wormScenario{shape[0], shape[1], load, maxBytes, seed, chunk}
						name := fmt.Sprintf("%dx%d/load%v/max%dB/seed%d/chunk%d", sc.w, sc.h, load, maxBytes, seed, chunk)
						t.Run(name, func(t *testing.T) {
							wantLog, wantSnaps, refHops := runWormScenario(sc, horizon, true)
							gotLog, gotSnaps, hops := runWormScenario(sc, horizon, false)
							if refHops != 0 {
								t.Fatalf("the reference stepper advanced %d flit hops by worms", refHops)
							}
							wormHops += hops
							for i, want := range wantSnaps {
								if got := gotSnaps[i]; got != want {
									t.Fatalf("after Run %d: kernel %+v, reference %+v", i+1, got, want)
								}
							}
							compareDeliveries(t, gotLog, wantLog)
						})
					}
				}
			}
		}
	}
	if wormHops == 0 {
		t.Fatal("no worm advanced a flit in any scenario")
	}
}

// TestWormCrossesFaultedLink streams 1,500 B frames along the top row of a
// 6x6 mesh and, while a frame advances as a worm, severs a link on its
// path and later degrades another to one flit in three, lifting each
// fault again. Installing a fault writes the worms back into their lanes;
// the deliveries and Stats must match flit stepping, and worms must form
// again once the faults are gone.
func TestWormCrossesFaultedLink(t *testing.T) {
	run := func(reference bool) ([]delivery, Stats, []int, uint64) {
		m, k := newTestMesh(6, 6)
		if reference {
			k.UseReference()
		}
		src, dst := m.NodeAt(0, 0), m.NodeAt(5, 0)
		var log []delivery
		var nextID uint64
		k.Register(sim.TickFunc(func(cycle uint64) {
			if msg, ok := m.TryEject(dst); ok {
				log = append(log, delivery{cycle, dst, msg.ID})
			}
			if cycle < 4000 && m.CanInject(src, dst) {
				nextID++
				msg := testMsg(1500)
				msg.ID = nextID
				m.Inject(src, dst, msg)
			}
		}))
		// worms[i] is how many worms advanced just before fault event i.
		var worms []int
		fault := func(at uint64, from, to NodeID, f LinkFault) {
			k.At(at, func() {
				worms = append(worms, len(m.worms))
				m.SetLinkFault(from, to, f)
			})
		}
		fault(1000, m.NodeAt(2, 0), m.NodeAt(3, 0), LinkFault{Severed: true})
		fault(1060, m.NodeAt(2, 0), m.NodeAt(3, 0), LinkFault{})
		fault(2000, m.NodeAt(3, 0), m.NodeAt(4, 0), LinkFault{PassEveryN: 3})
		fault(2200, m.NodeAt(3, 0), m.NodeAt(4, 0), LinkFault{})
		k.Run(3000)
		hopsBefore := m.Work().WormHops
		k.Run(2000)
		return log, m.Stats(), worms, m.Work().WormHops - hopsBefore
	}
	wantLog, wantStats, _, _ := run(true)
	gotLog, gotStats, worms, lateHops := run(false)
	for _, i := range []int{0, 2} { // the installs; no worm forms under a fault
		if worms[i] == 0 {
			t.Fatalf("fault event %d found no advancing worm to write back", i)
		}
	}
	if lateHops == 0 {
		t.Fatal("no worm formed after the faults were lifted")
	}
	if gotStats != wantStats {
		t.Fatalf("kernel Stats %+v, reference %+v", gotStats, wantStats)
	}
	if len(wantLog) < 20 {
		t.Fatalf("only %d frames delivered", len(wantLog))
	}
	compareDeliveries(t, gotLog, wantLog)
}

// scriptSend is one scripted injection: bytes from src to dst at cycle at
// (or as soon after as the injection queue has room).
type scriptSend struct {
	at       uint64
	src, dst NodeID
	bytes    int
}

// scriptTile injects scripted messages and takes every arrival at once,
// except at node held before cycle heldUntil. Like a tile, it sleeps
// between its injections and is woken by the mesh's node wakers when an
// arrival parks, so the kernel skips the cycles in which only worms
// advance.
type scriptTile struct {
	m         *Mesh
	sends     []scriptSend // in cycle order
	next      int
	held      NodeID
	heldUntil uint64
	log       []delivery
}

func (d *scriptTile) Tick(cycle uint64) {
	for n := 0; n < d.m.Nodes(); n++ {
		if NodeID(n) == d.held && cycle < d.heldUntil {
			continue
		}
		for {
			msg, ok := d.m.TryEject(NodeID(n))
			if !ok {
				break
			}
			d.log = append(d.log, delivery{cycle, NodeID(n), msg.ID})
		}
	}
	for ; d.next < len(d.sends); d.next++ {
		s := d.sends[d.next]
		if s.at > cycle || !d.m.CanInject(s.src, s.dst) {
			return
		}
		msg := testMsg(s.bytes)
		msg.ID = uint64(d.next + 1)
		d.m.Inject(s.src, s.dst, msg)
	}
}

// EndCycle implements sim.EventAware: the tile wakes next cycle for an
// arrival it may take, at heldUntil for one it holds, and otherwise at
// its next injection.
func (d *scriptTile) EndCycle(cycle uint64) uint64 {
	wake := uint64(sim.WakeNever)
	if d.next < len(d.sends) {
		wake = max(d.sends[d.next].at, cycle+1)
	}
	for n := 0; n < d.m.Nodes(); n++ {
		if !d.m.HasEjectable(NodeID(n)) {
			continue
		}
		if NodeID(n) == d.held && cycle+1 < d.heldUntil {
			wake = min(wake, d.heldUntil)
		} else {
			return cycle + 1
		}
	}
	return wake
}

// SyncTo implements sim.EventAware: a sleeping tile defers nothing.
func (d *scriptTile) SyncTo(uint64) {}

// scriptRun is what one scripted run observed: the deliveries, and after
// every Run the Stats and the conservation audit's verdict.
type scriptRun struct {
	log    []delivery
	stats  []Stats
	audits []string
}

// runScript runs sends on a 6x6 mesh for horizon cycles in Runs of chunk
// cycles, on the kernel or on the reference stepper. setup may schedule
// events on the kernel and set the tile's hold before the first Run.
func runScript(sends []scriptSend, horizon, chunk uint64, reference bool, setup func(*Mesh, *sim.Kernel, *scriptTile)) scriptRun {
	m, k := newTestMesh(6, 6)
	if reference {
		k.UseReference()
	}
	d := &scriptTile{m: m, sends: sends}
	k.Register(d)
	for n := 0; n < m.Nodes(); n++ {
		m.SetNodeWaker(NodeID(n), k.PokerFor(d))
	}
	if setup != nil {
		setup(m, k, d)
	}
	var out scriptRun
	for k.Now() < horizon {
		k.Run(min(chunk, horizon-k.Now()))
		out.stats = append(out.stats, m.Stats())
		audit := "ok"
		if err := m.AuditConservation(); err != nil {
			audit = err.Error()
		}
		out.audits = append(out.audits, audit)
	}
	out.log = d.log
	return out
}

// compareScript fails the test unless the kernel's run observed exactly
// what the reference stepper's did.
func compareScript(t *testing.T, got, want scriptRun) {
	t.Helper()
	if len(want.log) == 0 {
		t.Fatal("nothing was delivered")
	}
	for i := range want.stats {
		if got.stats[i] != want.stats[i] || got.audits[i] != want.audits[i] {
			t.Fatalf("after Run %d: kernel %+v (audit %s), reference %+v (audit %s)",
				i+1, got.stats[i], got.audits[i], want.stats[i], want.audits[i])
		}
	}
	compareDeliveries(t, got.log, want.log)
}

// quietProbe records, at start-of-cycle events, whether worm steps were
// still pending: the mesh slept through the cycles before with a worm
// advancing, so Begin has a catch-up to do.
func quietProbe(m *Mesh, k *sim.Kernel, at uint64, slept *bool) {
	k.At(at, func() { *slept = len(m.worms) > 0 && m.wormsNext < at })
}

// TestWormSleepInjectBehindSource injects at a worm's source while the
// worm sleeps with its tail in the source injector: Begin must catch the
// worm up before the router serializing the new message ticks, and the
// deliveries must match flit stepping.
func TestWormSleepInjectBehindSource(t *testing.T) {
	m, _ := newTestMesh(6, 6)
	src := m.NodeAt(0, 0)
	sends := []scriptSend{
		{0, src, m.NodeAt(5, 0), 1500},
		{100, src, m.NodeAt(5, 0), 600},
		{101, src, m.NodeAt(0, 5), 1500},
		{160, m.NodeAt(2, 3), m.NodeAt(5, 0), 800},
	}
	var slept bool
	got := runScript(sends, 3000, 3000, false, func(m *Mesh, k *sim.Kernel, _ *scriptTile) { quietProbe(m, k, 100, &slept) })
	want := runScript(sends, 3000, 3000, true, nil)
	if !slept {
		t.Fatal("the injection did not meet a sleeping worm")
	}
	compareScript(t, got, want)
}

// TestWormSleepLinkFaultMidWindow installs a link fault on a sleeping
// worm's path from a start-of-cycle event, and lifts it again: the worm
// must be caught up to the kernel's clock before it is written back into
// its lanes.
func TestWormSleepLinkFaultMidWindow(t *testing.T) {
	m, _ := newTestMesh(6, 6)
	from, to := m.NodeAt(3, 0), m.NodeAt(4, 0)
	sends := []scriptSend{
		{0, m.NodeAt(0, 0), m.NodeAt(5, 0), 1500},
		{400, m.NodeAt(0, 0), m.NodeAt(5, 0), 1500},
	}
	for _, f := range []LinkFault{{Severed: true}, {PassEveryN: 3}} {
		var slept [2]bool
		faults := func(m *Mesh, k *sim.Kernel, _ *scriptTile) {
			for _, at := range []uint64{90, 500} {
				k.At(at, func() { m.SetLinkFault(from, to, f) })
				k.At(at+40, func() { m.SetLinkFault(from, to, LinkFault{}) })
			}
		}
		got := runScript(sends, 3000, 3000, false, func(m *Mesh, k *sim.Kernel, d *scriptTile) {
			quietProbe(m, k, 90, &slept[0])
			quietProbe(m, k, 500, &slept[1])
			faults(m, k, d)
		})
		want := runScript(sends, 3000, 3000, true, faults)
		if !slept[0] || !slept[1] {
			t.Fatalf("fault %+v: the fault events found sleeping worms %v, want both", f, slept)
		}
		compareScript(t, got, want)
	}
}

// TestWormSleepStatsBetweenRuns reads Stats and the conservation audit
// after every 37-cycle Run, many of which end inside a worm's quiet
// window: SyncTo must catch the worms up so both read what flit stepping
// reads, and the next Run's wake-all cycle writes the worms back.
func TestWormSleepStatsBetweenRuns(t *testing.T) {
	var sends []scriptSend
	for i := 0; i < 12; i++ {
		src := NodeID((7 * i) % 36)
		sends = append(sends, scriptSend{uint64(250 * i), src, NodeID((11*i + 5) % 36), 300 + 100*i})
	}
	// A Run ends inside a quiet window when, after its last stepped
	// cycle, worm steps up to its end are still to run.
	midWindow := 0
	got := runScript(sends, 4000, 37, false, func(m *Mesh, k *sim.Kernel, _ *scriptTile) {
		k.ObserveCycleEnd(func(c uint64) {
			if end := (c/37 + 1) * 37; c+1 < end && len(m.worms) > 0 && m.wormsNext == c+1 && m.EndCycle(c) >= end {
				midWindow++
			}
		})
	})
	want := runScript(sends, 4000, 37, true, nil)
	if midWindow == 0 {
		t.Fatal("no Run ended inside a worm's quiet window")
	}
	compareScript(t, got, want)
}

// TestWormSleepFollowerBlockedUpstream backs a 256 B message up behind a
// full eject queue, with a follower from the same source waiting on its
// tail lane's credit one router upstream, then frees the queue at once:
// the message becomes a worm whose lanes are full, so its tail lane
// passes nothing until the gap reaches it, and no router is queued
// meanwhile. The worm may not sleep past the tail lane's first pop,
// whose credit the blocked router acts on; the follower turns off the
// path before the destination, so a late credit shows in its latency.
func TestWormSleepFollowerBlockedUpstream(t *testing.T) {
	m, _ := newTestMesh(6, 6)
	dst := m.NodeAt(5, 0)
	var sends []scriptSend
	for i := 0; i < 8; i++ {
		sends = append(sends, scriptSend{0, m.NodeAt(5, 1), dst, 8})
	}
	sends = append(sends,
		scriptSend{50, m.NodeAt(0, 0), dst, 256},
		scriptSend{51, m.NodeAt(0, 0), m.NodeAt(3, 2), 600})
	hold := func(_ *Mesh, _ *sim.Kernel, d *scriptTile) { d.held, d.heldUntil = dst, 400 }
	var hops uint64
	got := runScript(sends, 2000, 2000, false, func(m *Mesh, k *sim.Kernel, d *scriptTile) {
		hold(m, k, d)
		k.ObserveCycleEnd(func(uint64) { hops = m.Work().WormHops })
	})
	want := runScript(sends, 2000, 2000, true, hold)
	if hops == 0 {
		t.Fatal("no worm formed")
	}
	compareScript(t, got, want)
}

// TestWormSleepsThroughLongStream holds the mesh's wake declaration for a
// lone 1,500 B frame: with nothing else in the mesh, the worm's quiet
// window must let the mesh sleep past the next cycle, and the kernel
// skip cycles.
func TestWormSleepsThroughLongStream(t *testing.T) {
	m, k := newTestMesh(6, 6)
	d := &scriptTile{m: m, sends: []scriptSend{{0, m.NodeAt(0, 0), m.NodeAt(5, 5), 1500}}}
	k.Register(d)
	for n := 0; n < m.Nodes(); n++ {
		m.SetNodeWaker(NodeID(n), k.PokerFor(d))
	}
	var longest uint64
	k.ObserveCycleEnd(func(c uint64) {
		if len(m.worms) == 1 && m.wormsNext == c+1 && len(m.woken) == 0 && m.parked == 0 {
			longest = max(longest, m.EndCycle(c)-c)
		}
	})
	k.Run(1000)
	if longest <= 1 {
		t.Fatalf("a lone worm kept the mesh awake: longest wake %d cycles ahead, want more than 1", longest)
	}
	if len(d.log) != 1 || k.SkippedCycles() == 0 {
		t.Fatalf("delivered %d frames, skipped %d cycles; want 1 and some", len(d.log), k.SkippedCycles())
	}
}
