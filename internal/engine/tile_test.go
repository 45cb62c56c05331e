package engine

import (
	"testing"

	"github.com/panic-nic/panic/internal/noc"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sched"
	"github.com/panic-nic/panic/internal/sim"
	"github.com/panic-nic/panic/internal/trace"
)

// rig is a minimal test bench: a mesh, a kernel, a route table, and
// helpers to place tiles.
type rig struct {
	k      *sim.Kernel
	mesh   *noc.Mesh
	routes *RouteTable
	rng    *sim.RNG
	tiles  []*Tile
}

func newRig(w, h int) *rig {
	cfg := noc.DefaultMeshConfig()
	cfg.Width, cfg.Height = w, h
	m := noc.NewMesh(cfg)
	k := sim.NewKernel(500 * sim.MHz)
	m.RegisterWith(k)
	return &rig{k: k, mesh: m, routes: NewRouteTable(), rng: sim.NewRNG(1)}
}

// place binds addr to (x,y) and builds a tile there.
func (r *rig) place(addr packet.Addr, x, y int, eng Engine, opts ...func(*TileConfig)) *Tile {
	node := r.mesh.NodeAt(x, y)
	r.routes.Bind(addr, node)
	cfg := TileConfig{Addr: addr, Node: node, QueueCap: 16, Policy: sched.Backpressure}
	for _, o := range opts {
		o(&cfg)
	}
	t := NewTile(cfg, eng, r.mesh, r.routes, r.rng.Fork())
	r.k.Register(t)
	r.tiles = append(r.tiles, t)
	return t
}

// fixedEngine has constant service time and forwards along the chain.
type fixedEngine struct {
	name  string
	svc   uint64
	count uint64
}

func (f *fixedEngine) Name() string                            { return f.name }
func (f *fixedEngine) ServiceCycles(*packet.Message) uint64    { return f.svc }
func (f *fixedEngine) Process(_ *Ctx, m *packet.Message) []Out { f.count++; return []Out{{Msg: m}} }

func chainMsg(id uint64, hops ...packet.Hop) *packet.Message {
	m := &packet.Message{
		ID: id,
		Pkt: packet.NewPacket(64,
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP},
			&packet.UDP{SrcPort: 1, DstPort: 2},
		),
	}
	if len(hops) > 0 {
		m.InsertChain(&packet.Chain{Hops: hops})
	}
	return m
}

func TestTileChainTraversal(t *testing.T) {
	r := newRig(3, 3)
	e1 := &fixedEngine{name: "a", svc: 3}
	e2 := &fixedEngine{name: "b", svc: 3}
	sinkEng := NewCollectorEngine("sink", 1, nil)
	tr := trace.New(trace.Options{})
	traced := func(c *TileConfig) { c.Trace = tr.Buffer("tile") }
	r.place(1, 0, 0, e1, traced)
	r.place(2, 2, 0, e2, traced)
	r.place(3, 2, 2, sinkEng, traced)
	r.k.Register(tr)
	r.routes.SetDefault(3) // default route to the sink

	msg := chainMsg(7, packet.Hop{Engine: 1, Slack: 10}, packet.Hop{Engine: 2, Slack: 20}, packet.Hop{Engine: 3, Slack: 30})
	msg.TraceID = 7
	r.mesh.Inject(r.mesh.NodeAt(1, 1), r.mesh.NodeAt(0, 0), msg)

	if !r.k.RunUntil(func() bool { return sinkEng.Count() == 1 }, 500) {
		t.Fatal("message did not reach the sink")
	}
	if e1.count != 1 || e2.count != 1 {
		t.Errorf("engine visits: %d, %d", e1.count, e2.count)
	}
	// The enqueue spans record the visits in chain order.
	var visits []uint32
	for _, sp := range tr.Set().Spans {
		if sp.Msg == 7 && sp.Kind == trace.KindEnq {
			visits = append(visits, sp.Loc)
		}
	}
	if len(visits) != 3 || visits[0] != 1 || visits[1] != 2 || visits[2] != 3 {
		t.Errorf("enqueue spans at engines %v, want [1 2 3]", visits)
	}
	got := sinkEng.Last()
	// The chain's cursor rests on the consuming engine's own hop.
	if c := got.Chain(); c == nil || c.Remaining() != 1 {
		t.Errorf("chain cursor wrong: %+v", got.Chain())
	} else if hop, _ := c.Current(); hop.Engine != 3 {
		t.Errorf("final hop = %d, want 3", hop.Engine)
	}
}

func TestTileDefaultRouteForChainless(t *testing.T) {
	r := newRig(2, 2)
	fwd := &fixedEngine{name: "fwd", svc: 1}
	defEng := NewCollectorEngine("rmt", 1, nil)
	r.place(1, 0, 0, fwd)
	r.place(2, 1, 1, defEng)
	r.routes.SetDefault(2)
	r.mesh.Inject(r.mesh.NodeAt(0, 1), r.mesh.NodeAt(0, 0), chainMsg(1))
	if !r.k.RunUntil(func() bool { return defEng.Count() == 1 }, 200) {
		t.Fatal("chainless message did not take the default route")
	}
}

func TestTilePerTileDefaultOverride(t *testing.T) {
	r := newRig(2, 2)
	fwd := &fixedEngine{name: "fwd", svc: 1}
	a := NewCollectorEngine("a", 1, nil)
	b := NewCollectorEngine("b", 1, nil)
	r.place(1, 0, 0, fwd, func(c *TileConfig) { c.DefaultSpread = []packet.Addr{3} })
	r.place(2, 1, 0, a)
	r.place(3, 1, 1, b)
	r.routes.SetDefault(2)
	r.mesh.Inject(r.mesh.NodeAt(0, 1), r.mesh.NodeAt(0, 0), chainMsg(1))
	if !r.k.RunUntil(func() bool { return b.Count() == 1 }, 200) {
		t.Fatal("override default not used")
	}
	if a.Count() != 0 {
		t.Error("message also reached table default")
	}
}

func TestTileServiceTimeAndUtilization(t *testing.T) {
	r := newRig(2, 1)
	slow := &fixedEngine{name: "slow", svc: 10}
	sinkEng := NewCollectorEngine("sink", 1, nil)
	tile := r.place(1, 0, 0, slow)
	r.place(2, 1, 0, sinkEng)
	r.routes.SetDefault(2)
	for i := 0; i < 5; i++ {
		m := chainMsg(uint64(i), packet.Hop{Engine: 1})
		r.mesh.Inject(r.mesh.NodeAt(1, 0), r.mesh.NodeAt(0, 0), m)
	}
	if !r.k.RunUntil(func() bool { return sinkEng.Count() == 5 }, 500) {
		t.Fatal("not all messages processed")
	}
	s := tile.Stats()
	if s.Processed != 5 {
		t.Errorf("processed = %d", s.Processed)
	}
	if s.BusyCycles != 50 {
		t.Errorf("busy cycles = %d, want 50", s.BusyCycles)
	}
	// 5 back-to-back messages through a 10-cycle server: total queue wait
	// is 0+10+20+30+40 minus pipelining overlap of arrivals; at minimum
	// the later ones waited.
	if s.QueueWaitTotal == 0 {
		t.Error("no queueing recorded for serialized service")
	}
}

func TestTileSlackSchedulingOrdersQueue(t *testing.T) {
	// Two messages arrive while the engine is busy; the one with smaller
	// slack must be served first even though it arrived second.
	r := newRig(2, 1)
	eng := &fixedEngine{name: "e", svc: 30}
	collector := NewCollectorEngine("sink", 1, nil)
	var order []uint64
	sink := SinkFunc(func(m *packet.Message, _ uint64) { order = append(order, m.ID) })
	collector = NewCollectorEngine("sink", 1, sink)
	r.place(1, 0, 0, eng)
	r.place(2, 1, 0, collector)
	r.routes.SetDefault(2)

	src := r.mesh.NodeAt(1, 0)
	// Msg 1 arrives first and starts service. Msgs 2 (slack 1000) and 3
	// (slack 10) queue behind it; 3 must win.
	r.mesh.Inject(src, r.mesh.NodeAt(0, 0), chainMsg(1, packet.Hop{Engine: 1, Slack: 0}))
	r.k.Run(10)
	r.mesh.Inject(src, r.mesh.NodeAt(0, 0), chainMsg(2, packet.Hop{Engine: 1, Slack: 1000}))
	r.k.Run(3)
	r.mesh.Inject(src, r.mesh.NodeAt(0, 0), chainMsg(3, packet.Hop{Engine: 1, Slack: 10}))
	if !r.k.RunUntil(func() bool { return collector.Count() == 3 }, 1000) {
		t.Fatal("not all delivered")
	}
	want := []uint64{1, 3, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v", order, want)
		}
	}
}

func TestTileFIFORankIgnoresSlack(t *testing.T) {
	r := newRig(2, 1)
	eng := &fixedEngine{name: "e", svc: 30}
	var order []uint64
	collector := NewCollectorEngine("sink", 1, SinkFunc(func(m *packet.Message, _ uint64) { order = append(order, m.ID) }))
	r.place(1, 0, 0, eng, func(c *TileConfig) { c.Rank = sched.RankFIFO })
	r.place(2, 1, 0, collector)
	r.routes.SetDefault(2)
	src := r.mesh.NodeAt(1, 0)
	r.mesh.Inject(src, r.mesh.NodeAt(0, 0), chainMsg(1, packet.Hop{Engine: 1, Slack: 0}))
	r.k.Run(10)
	r.mesh.Inject(src, r.mesh.NodeAt(0, 0), chainMsg(2, packet.Hop{Engine: 1, Slack: 1000}))
	r.k.Run(3)
	r.mesh.Inject(src, r.mesh.NodeAt(0, 0), chainMsg(3, packet.Hop{Engine: 1, Slack: 10}))
	if !r.k.RunUntil(func() bool { return collector.Count() == 3 }, 1000) {
		t.Fatal("not all delivered")
	}
	want := []uint64{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v", order, want)
		}
	}
}

func TestTileLossyDropsWorst(t *testing.T) {
	r := newRig(2, 1)
	eng := &fixedEngine{name: "e", svc: 1000} // effectively stuck
	tile := r.place(1, 0, 0, eng, func(c *TileConfig) {
		c.QueueCap = 2
		c.Policy = sched.DropLowestPriority
	})
	collector := NewCollectorEngine("sink", 1, nil)
	r.place(2, 1, 0, collector)
	r.routes.SetDefault(2)
	src := r.mesh.NodeAt(1, 0)
	for i := 0; i < 6; i++ {
		r.mesh.Inject(src, r.mesh.NodeAt(0, 0), chainMsg(uint64(i), packet.Hop{Engine: 1, Slack: uint32(100 * i)}))
	}
	r.k.Run(300)
	if tile.Stats().Dropped < 3 {
		t.Errorf("dropped = %d, want >= 3 (one in service, two queued)", tile.Stats().Dropped)
	}
	if tile.QueueLen() != 2 {
		t.Errorf("queue len = %d, want 2", tile.QueueLen())
	}
}

func TestTileBackpressureHoldsInNetwork(t *testing.T) {
	r := newRig(2, 1)
	eng := &fixedEngine{name: "e", svc: 100000}
	tile := r.place(1, 0, 0, eng, func(c *TileConfig) {
		c.QueueCap = 2
		c.Policy = sched.Backpressure
	})
	collector := NewCollectorEngine("sink", 1, nil)
	r.place(2, 1, 0, collector)
	r.routes.SetDefault(2)
	src := r.mesh.NodeAt(1, 0)
	sent := 0
	r.k.Register(sim.TickFunc(func(uint64) {
		if sent < 100 && r.mesh.CanInject(src, r.mesh.NodeAt(0, 0)) {
			r.mesh.Inject(src, r.mesh.NodeAt(0, 0), chainMsg(uint64(sent), packet.Hop{Engine: 1}))
			sent++
		}
	}))
	r.k.Run(2000)
	if tile.Stats().Dropped != 0 {
		t.Errorf("lossless tile dropped %d", tile.Stats().Dropped)
	}
	if tile.QueueLen() > 2 {
		t.Errorf("queue overfilled: %d", tile.QueueLen())
	}
	// The network clogs once every buffer fills: far fewer than 100 fit.
	if sent >= 60 {
		t.Errorf("backpressure did not reach the injector (sent %d)", sent)
	}
}

func TestTileValidation(t *testing.T) {
	r := newRig(2, 1)
	eng := &fixedEngine{name: "e", svc: 1}
	r.routes.Bind(1, r.mesh.NodeAt(0, 0))
	for name, cfg := range map[string]TileConfig{
		"zero queue": {Addr: 1, Node: r.mesh.NodeAt(0, 0), QueueCap: 0},
		"unbound":    {Addr: 9, Node: r.mesh.NodeAt(0, 0), QueueCap: 4},
		"wrong node": {Addr: 1, Node: r.mesh.NodeAt(1, 0), QueueCap: 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", name)
				}
			}()
			NewTile(cfg, eng, r.mesh, r.routes, r.rng)
		}()
	}
}

func TestRouteTableValidation(t *testing.T) {
	rt := NewRouteTable()
	rt.Bind(1, 5)
	if !rt.Has(1) || rt.Lookup(1) != 5 {
		t.Error("bind/lookup failed")
	}
	c := rt.Clone()
	c.Bind(2, 6)
	if rt.Has(2) {
		t.Error("clone not independent")
	}
	for name, fn := range map[string]func(){
		"rebind":        func() { rt.Bind(1, 7) },
		"bind invalid":  func() { rt.Bind(packet.AddrInvalid, 1) },
		"lookup absent": func() { rt.Lookup(99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", name)
				}
			}()
			fn()
		}()
	}
}
