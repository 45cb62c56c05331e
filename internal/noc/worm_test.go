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
