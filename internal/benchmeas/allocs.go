package benchmeas

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/noc"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/rmt"
	"github.com/panic-nic/panic/internal/sched"
	"github.com/panic-nic/panic/internal/sim"
	"github.com/panic-nic/panic/internal/trace"
)

// loopFabric is a single-node fabric stub: everything injected comes
// straight back out of TryEject, so one tile churns a message through its
// full hot path (eject -> enqueue -> dequeue -> service -> inject) forever
// with no allocations of its own. It mirrors the harness behind the
// engine package's zero-alloc unit test so the committed baseline and the
// unit test guard the same contract.
type loopFabric struct {
	msg *packet.Message
}

func (f *loopFabric) Nodes() int                         { return 1 }
func (f *loopFabric) CanInject(src, dst noc.NodeID) bool { return f.msg == nil }
func (f *loopFabric) Inject(_, _ noc.NodeID, m *packet.Message) {
	if f.msg != nil {
		panic("benchmeas: inject while occupied")
	}
	f.msg = m
}
func (f *loopFabric) TryEject(noc.NodeID) (*packet.Message, bool) {
	m := f.msg
	f.msg = nil
	return m, m != nil
}
func (f *loopFabric) HasEjectable(noc.NodeID) bool { return f.msg != nil }
func (f *loopFabric) FlitsFor(*packet.Message) int { return 1 }

// echoEngine bounces every message back to its own tile through a reused
// Out slice, so Process itself is allocation-free.
type echoEngine struct {
	outs []engine.Out
}

func (e *echoEngine) Name() string                         { return "echo" }
func (e *echoEngine) ServiceCycles(*packet.Message) uint64 { return 1 }
func (e *echoEngine) Process(_ *engine.Ctx, m *packet.Message) []engine.Out {
	e.outs[0] = engine.Out{Msg: m, To: 1}
	return e.outs
}

// allocTile builds the loopback harness with the given trace buffer and
// primes it past its warm-up allocations (queue heap growth, outbox
// growth) so the steady state is measurable.
func allocTile(buf *trace.Buffer, traceID uint64) (*engine.Tile, *uint64) {
	fab := &loopFabric{}
	routes := engine.NewRouteTable()
	routes.Bind(1, 0)
	cfg := engine.TileConfig{
		Addr: 1, Node: 0, QueueCap: 16, Policy: sched.Backpressure,
		Trace: buf,
	}
	tile := engine.NewTile(cfg, &echoEngine{outs: make([]engine.Out, 1)}, fab, routes, sim.NewRNG(1).Fork())
	fab.msg = &packet.Message{
		ID:      1,
		TraceID: traceID,
		Pkt: packet.NewPacket(64,
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP},
			&packet.UDP{SrcPort: 1, DstPort: 2},
		),
	}
	cycle := new(uint64)
	for ; *cycle < 64; *cycle++ {
		tile.Tick(*cycle)
	}
	return tile, cycle
}

// allocsPerOp measures steady-state heap allocations per call of fn with
// the same semantics as testing.AllocsPerRun — GOMAXPROCS pinned to 1 and
// the average truncated to an integer — so the committed baseline enforces
// exactly the contract the engine package's zero-alloc unit test does.
func allocsPerOp(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // settle any first-call growth
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// schedQueueAllocs measures the scheduling queue's rotation: a resident
// population cycles through ever-increasing ranks, which is the slack
// scheduler's steady state (ranks grow with the cycle counter forever, so
// every push lands at the worst end of the sorted slice and shifts the
// residents).
func schedQueueAllocs() float64 {
	q := sched.NewQueue(16, sched.Backpressure)
	for i := 0; i < 8; i++ {
		q.Push(&packet.Message{ID: uint64(i)}, uint64(i))
	}
	rank := uint64(8)
	fn := func() {
		m, ok := q.Pop()
		if !ok {
			panic("benchmeas: sched queue drained")
		}
		q.Push(m, rank)
		rank++
	}
	for i := 0; i < 4096; i++ { // settle the entry slice's growth
		fn()
	}
	return allocsPerOp(4096, fn)
}

// meshPing bounces one message between two mesh nodes forever, keeping
// exactly one flit stream in flight so every tick exercises the router
// fast path (head caching, precomputed next hops) alongside 30+ idle
// routers exercising the skip-scan.
type meshPing struct {
	fab      noc.Fabric
	src, dst noc.NodeID
	msg      *packet.Message
	inflight bool
}

func (d *meshPing) Tick(uint64) {
	if m, ok := d.fab.TryEject(d.dst); ok {
		d.msg, d.inflight = m, false
	}
	if !d.inflight && d.fab.CanInject(d.src, d.dst) {
		d.fab.Inject(d.src, d.dst, d.msg)
		d.inflight = true
	}
}

// meshTickAllocs measures the mesh's per-cycle allocation rate under a
// kernel (the mesh's staged queues commit through the kernel's phases).
func meshTickAllocs() float64 {
	mesh := noc.NewMesh(noc.DefaultMeshConfig())
	k := sim.NewKernel(sim.Frequency(1e9))
	mesh.RegisterWith(k)
	k.Register(&meshPing{
		fab: mesh, src: 0, dst: 7,
		msg: &packet.Message{ID: 1, Pkt: packet.NewPacket(64,
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4})},
	})
	k.Run(1024) // settle FIFO rings
	return allocsPerOp(4096, func() { k.Run(1) })
}

// kvsFrame is a chainless KVS GET as it arrives at the canonical steering
// program's ingress.
func kvsFrame() *packet.Message {
	return &packet.Message{
		Tenant: 1, Port: 0,
		Pkt: packet.NewPacket(0,
			&packet.Ethernet{Dst: packet.MAC{2, 0, 0, 0, 0, 1}, EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: packet.IP4{10, 0, 0, 1}, Dst: packet.IP4{10, 0, 0, 9}},
			&packet.UDP{SrcPort: 7000, DstPort: packet.KVSPort},
			&packet.KVS{Op: packet.KVSGet, Tenant: 1, Key: 42},
		),
	}
}

// pipelinePass returns a function that runs msg through pipe once,
// accepting it and ticking until it exits. With ingress set, every pass
// strips the chain the previous one wrote, so each sees the same chainless
// frame (the stripped chain header is reused by the next deparse).
func pipelinePass(pipe *rmt.Pipeline, msg *packet.Message, ingress bool) func() {
	cycle := uint64(0)
	return func() {
		if ingress {
			msg.StripChain()
		}
		pipe.Accept(msg, cycle)
		for {
			cycle++
			if res, ok := pipe.Tick(); ok {
				msg = res.Msg
				return
			}
		}
	}
}

// flowCacheHitAllocs measures the RMT pipeline's per-message allocation
// rate on the flow-cache hit path: the same flow re-enters the canonical
// steering program, so every pass after warm-up replays the cached verdict
// and rewrites the resident chain in place.
func flowCacheHitAllocs() float64 {
	pipe := rmt.NewPipeline(core.BuildProgram(core.DefaultProgramConfig(2)), 1, 1)
	pipe.EnableFlowCache()
	run := pipelinePass(pipe, kvsFrame(), false)
	// Two distinct warm-up keys: the chainless ingress packet, then the
	// steady-state packet carrying the chain the first pass wrote, whose
	// second miss caches it (allocsPerOp's settling call is its first hit).
	run()
	run()
	run()
	return allocsPerOp(2048, run)
}

// plainWalkAllocs measures Program.Process, the uncached table walk, on a
// KVS frame at ingress: it runs on the program's scratch and writes the
// chain into the header the previous pass shed.
func plainWalkAllocs() float64 {
	prog := core.BuildProgram(core.DefaultProgramConfig(2))
	msg := kvsFrame()
	return allocsPerOp(2048, func() {
		msg.StripChain()
		if _, err := prog.Process(msg, 1); err != nil {
			panic(err)
		}
	})
}

// recordWalkAllocs measures the flow cache's recording walk without its
// insertion: with a shadow check on every hit, each pass of a cached flow
// re-runs the recording walk on the program's scratch and compares the
// fresh entry with the cached one instead of replaying it.
func recordWalkAllocs() float64 {
	pipe := rmt.NewPipeline(core.BuildProgram(core.DefaultProgramConfig(2)), 1, 1)
	pipe.EnableFlowCache()
	pipe.EnableShadowCheck(1)
	run := pipelinePass(pipe, kvsFrame(), true)
	run() // the first miss only marks the flow in the doorkeeper
	run() // the second caches it
	a := allocsPerOp(2048, run)
	if checks, mismatches, first := pipe.ShadowCheckStats(); checks < 2048 || mismatches != 0 {
		panic(fmt.Sprintf("benchmeas: %d shadow walks, %d mismatches (%s)", checks, mismatches, first))
	}
	return a
}

// firstMissAllocs measures the flow cache's miss of a never-seen key: each
// pass writes a fresh KVS key into the frame, so the doorkeeper has not
// seen the probe, the pipeline runs the plain walk, and nothing is kept.
func firstMissAllocs() float64 {
	pipe := rmt.NewPipeline(core.BuildProgram(core.DefaultProgramConfig(2)), 1, 1)
	pipe.EnableFlowCache()
	msg := kvsFrame()
	run := pipelinePass(pipe, msg, false)
	key := uint64(1) << 32
	pass := func() {
		msg.StripChain() // re-serializes the frame, so the key goes in after
		buf := msg.Pkt.Buf
		binary.BigEndian.PutUint64(buf[len(buf)-12:], key) // the KVS header ends the frame
		run()
	}
	// One key's second miss caches it and grows the key prefix over the
	// frame; its third pass hits, so a fresh key that missed would have hit
	// had the prefix not covered it.
	pass()
	pass()
	pass()
	before := pipe.FlowCacheStats()
	a := allocsPerOp(2048, func() {
		key++
		pass()
	})
	if st := pipe.FlowCacheStats(); before.Hits == 0 || st.Hits != before.Hits || st.Misses-before.Misses != 2049 {
		panic(fmt.Sprintf("benchmeas: fresh keys %+v after %+v, want a cached flow and 2049 more misses", st, before))
	}
	return a
}

// espRoundTripAllocs measures the IPSec engine encrypting a pooled message
// and decrypting it again: the outer shell comes from the pool and goes
// back to it, and the chain moves between the packets in place.
func espRoundTripAllocs() float64 {
	pool := packet.NewMessagePool()
	ctx := &engine.Ctx{Pool: pool}
	e := engine.NewIPSecEngine(engine.IPSecConfig{BytesPerCycle: 4})
	msg := pool.KVS(0,
		packet.Ethernet{Dst: packet.MAC{2, 0, 0, 0, 0, 1}, EtherType: packet.EtherTypeIPv4},
		packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: packet.IP4{10, 0, 0, 1}, Dst: packet.IP4{203, 0, 0, 9}},
		packet.UDP{SrcPort: packet.KVSPort, DstPort: 7000},
		packet.KVS{Op: packet.KVSGetResp, Tenant: 1, Key: 42},
	)
	msg.InsertChainHops(0, []packet.Hop{{Engine: 4}, {Engine: 2}})
	return allocsPerOp(2048, func() {
		e.Process(ctx, msg) // encrypt
		e.Process(ctx, msg) // decrypt
	})
}

// MsgAllocResult is the canonical saturated NIC's heap allocation per
// delivered message: Allocs heap objects of AllocBytes bytes in all over
// SimCycles simulated cycles after warm-up, in which Delivered messages
// reached the host or the wire. The simulation is deterministic and runs on
// one goroutine, so the figures repeat from run to run and on any host with
// the same Go release, up to the runtime's own background allocations (see
// msgAllocSlack and msgAllocBytesSlack).
type MsgAllocResult struct {
	SimCycles        uint64  `json:"sim_cycles"`
	Delivered        uint64  `json:"delivered"`
	Allocs           uint64  `json:"allocs"`
	AllocsPerMsg     float64 `json:"allocs_per_msg"`
	AllocBytes       uint64  `json:"alloc_bytes"`
	AllocBytesPerMsg float64 `json:"alloc_bytes_per_msg"`
}

// MeshWorkResult is the canonical saturated NIC's mesh work per delivered
// message, over the same window as its MsgAllocResult: router ticks run,
// flit hops advanced by worms instead, and the lane visits those worm
// steps made (noc.WorkCounters). The counts are exact and repeat on any
// host.
type MeshWorkResult struct {
	SimCycles           uint64  `json:"sim_cycles"`
	Delivered           uint64  `json:"delivered"`
	RouterTicks         uint64  `json:"router_ticks"`
	FlitHops            uint64  `json:"flit_hops"`
	WormHops            uint64  `json:"worm_hops"`
	WormLaneSteps       uint64  `json:"worm_lane_steps"`
	RouterTicksPerMsg   float64 `json:"router_ticks_per_msg"`
	WormHopsPerMsg      float64 `json:"worm_hops_per_msg"`
	WormLaneStepsPerMsg float64 `json:"worm_lane_steps_per_msg"`
}

// msgAllocCycles is the window MeasureCanonicalNIC counts over, and
// msgAllocSlack and msgAllocBytesSlack the rises Compare forgives: the Go
// runtime's own background allocations move the figures by about 0.001
// allocs and 0.1 bytes per message between runs. A rise of one 8-byte
// stored sample per message still fails.
const (
	msgAllocCycles     = 100_000
	msgAllocSlack      = 0.01
	msgAllocBytesSlack = 2.0
)

// MeasureCanonicalNIC counts heap allocations and mesh work per delivered
// message on the canonical saturated NIC (the saturating run's system)
// over cycles simulated cycles.
func MeasureCanonicalNIC(cycles uint64) (MsgAllocResult, MeshWorkResult) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	nic := buildNIC(0.9)
	nic.Run(20_000) // fill the pipelines and the pool
	runtime.GC()
	mesh := nic.Builder.Mesh
	before := nic.WireLat.Count + nic.HostLat.Count
	w0, hops0 := mesh.Work(), mesh.Stats().FlitHops
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	nic.Run(cycles)
	runtime.ReadMemStats(&m1)
	w1 := mesh.Work()
	delivered := nic.WireLat.Count + nic.HostLat.Count - before
	a := MsgAllocResult{
		SimCycles: cycles, Delivered: delivered,
		Allocs: m1.Mallocs - m0.Mallocs, AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
	}
	w := MeshWorkResult{
		SimCycles:     cycles,
		Delivered:     delivered,
		RouterTicks:   w1.RouterTicks - w0.RouterTicks,
		FlitHops:      mesh.Stats().FlitHops - hops0,
		WormHops:      w1.WormHops - w0.WormHops,
		WormLaneSteps: w1.WormLaneSteps - w0.WormLaneSteps,
	}
	if delivered > 0 {
		a.AllocsPerMsg = float64(a.Allocs) / float64(delivered)
		a.AllocBytesPerMsg = float64(a.AllocBytes) / float64(delivered)
		w.RouterTicksPerMsg = float64(w.RouterTicks) / float64(delivered)
		w.WormHopsPerMsg = float64(w.WormHops) / float64(delivered)
		w.WormLaneStepsPerMsg = float64(w.WormLaneSteps) / float64(delivered)
	}
	return a, w
}

// MeasureAllocs samples the allocation rate of the hot paths whose cost
// contract is zero allocations per operation: the tile service loop, the
// scheduling queue, the mesh router tick, the RMT flow-cache hit path, the
// plain and the recording RMT table walks, the flow cache's first miss,
// and the IPSec engine's encrypt-decrypt round trip.
func MeasureAllocs() []AllocResult {
	cases := []struct {
		name    string
		buf     func() *trace.Buffer
		traceID uint64
	}{
		{"tile-hot-path-untraced", func() *trace.Buffer { return nil }, 5},
		{"tile-hot-path-sampled-out", func() *trace.Buffer {
			tr := trace.New(trace.Options{Sample: 2})
			return tr.Buffer("echo")
		}, 5}, // 5 % 2 != 0: the sampling filter rejects every span
	}
	out := make([]AllocResult, 0, len(cases))
	for _, c := range cases {
		tile, cycle := allocTile(c.buf(), c.traceID)
		a := allocsPerOp(512, func() {
			tile.Tick(*cycle)
			*cycle++
		})
		out = append(out, AllocResult{Name: c.name, AllocsPerOp: a})
	}
	out = append(out,
		AllocResult{Name: "sched-queue-push-pop", AllocsPerOp: schedQueueAllocs()},
		AllocResult{Name: "mesh-router-tick", AllocsPerOp: meshTickAllocs()},
		AllocResult{Name: "rmt-flowcache-hit", AllocsPerOp: flowCacheHitAllocs()},
		AllocResult{Name: "rmt-plain-walk", AllocsPerOp: plainWalkAllocs()},
		AllocResult{Name: "rmt-record-walk", AllocsPerOp: recordWalkAllocs()},
		AllocResult{Name: "rmt-first-miss", AllocsPerOp: firstMissAllocs()},
		AllocResult{Name: "ipsec-esp-roundtrip", AllocsPerOp: espRoundTripAllocs()},
	)
	return out
}
