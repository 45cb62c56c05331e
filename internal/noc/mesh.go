package noc

import (
	"fmt"

	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
	"github.com/panic-nic/panic/internal/trace"
)

// Port directions on a mesh router. Local is the tile attachment.
const (
	portLocal = iota
	portNorth
	portEast
	portSouth
	portWest
	numPorts
)

var oppositePort = [numPorts]int{portLocal, portSouth, portWest, portNorth, portEast}

// MeshConfig parameterizes a 2D mesh.
type MeshConfig struct {
	// Width and Height are the mesh dimensions in tiles.
	Width, Height int
	// FlitWidthBits is the channel width; a message of b bits occupies
	// ceil(b/FlitWidthBits) flits.
	FlitWidthBits int
	// BufferDepth is the per-input-port buffer depth in flits (per
	// virtual channel). Values below 2 halve channel throughput (the
	// credit loop needs a flit in flight plus one buffered); NewMesh
	// rejects them.
	BufferDepth int
	// VirtualChannels is the number of virtual channels per physical
	// link (0 or 1 = plain wormhole). Packets are assigned a VC at
	// injection and keep it end to end; flits of packets on different
	// VCs interleave on a link, so one blocked packet no longer stalls
	// the wire — the standard answer to the paper's §6 flow-control
	// question. XY routing stays deadlock-free with any VC count.
	VirtualChannels int
	// InjectDepth and EjectDepth are the per-node message queue depths at
	// the local ports.
	InjectDepth, EjectDepth int
}

// DefaultMeshConfig returns the paper's default operating point: a 6×6 mesh
// of 64-bit channels (Table 3, first row).
func DefaultMeshConfig() MeshConfig {
	return MeshConfig{Width: 6, Height: 6, FlitWidthBits: 64, BufferDepth: 8, VirtualChannels: 1, InjectDepth: 8, EjectDepth: 8}
}

// Mesh is a 2D mesh of wormhole routers. It implements Fabric, sim.Ticker,
// sim.Preparer (publishing the cycle before Eval), sim.Committer (for all
// of its staged lanes), and sim.EventAware (declaring when it next needs
// to tick); RegisterWith attaches it to a kernel.
//
// Statistics are accumulated per router and summed on demand by Stats;
// the totals read every cycle (occupancy, parked ejections, installed
// faults) are kept at mesh level.
type Mesh struct {
	cfg     MeshConfig
	vcs     int
	routers []*router
	now     uint64
	// statsReset records that ResetStats zeroed the delivered counters,
	// which disarms the delivered-vs-ejected audit (occIn/occOut survive).
	statsReset bool
	// occIn and occOut count every message ever injected into / ejected
	// from the mesh and are never reset: their difference is the in-flight
	// message count (InFlight) the custody audit checks. parked counts
	// messages pushed into eject queues and not yet taken by TryEject;
	// faults counts installed (non-clean) link faults.
	occIn, occOut uint64
	parked        int
	faults        int

	// The mesh is the only Committer of its lanes. A lane joins its
	// type's list on the push or pop that finds it clean, so each appears
	// at most once per cycle, and Commit commits exactly the listed lanes.
	// Lists are pre-sized to every lane the mesh owns and never grow.
	dirtyFlit  []*sim.FIFO[Flit]
	dirtyInj   []*sim.FIFO[injEntry]
	dirtyEject []*sim.FIFO[*packet.Message]

	// Liveness state (see sim.EventAware). selfPoke raises the mesh's
	// kernel-level wake flag when a tile or control plane touches mesh
	// state from outside a mesh tick; tileWake[node] wakes the local tile when the mesh hands it an
	// arrival or returns an injection credit; tickAll forces every router
	// live for one cycle (the kernel's wake-all contract). woken collects
	// the routers poked for the next cycle (each at most once); Begin
	// swaps it into live, the routers Tick runs. commitWake holds the
	// routers a tile's Inject or TryEject touched, poked at Commit.
	selfPoke   sim.Poker
	tileWake   []sim.Poker
	tickAll    bool
	live       []*router
	woken      []*router
	commitWake []*router

	// Worm advance (worm.go). worms are the advancing worms and freeWorms
	// their recycled records; hops lists the heads of messages of at least
	// wormMinFlits flits that left a lane this cycle, the births and
	// growths Commit applies. reference is set from the reference
	// stepper's first cycle on: every worm is written back then, and none
	// forms again. followers is materializeWorms' scratch space for one
	// lane's real entries. wormsNext is the first cycle whose worm step
	// has not run: while the mesh sleeps through a worm's quiet window the
	// steps are caught up lazily (catchUpWorms), and clock is the
	// kernel's, for the catch-up SetLinkFault does.
	worms     []*worm
	freeWorms []*worm
	hops      []headHop
	reference bool
	followers []Flit
	wormsNext uint64
	clock     *sim.Clock

	work WorkCounters
}

// injEntry is a message waiting at a local injection port.
type injEntry struct {
	msg    *packet.Message
	dst    NodeID
	flits  int
	enqued uint64
}

type router struct {
	m      *Mesh
	id     NodeID
	x, y   int
	in     [numPorts][]*sim.FIFO[Flit] // [port][vc]; in[portLocal] unused
	inj    injector
	ejectQ *sim.FIFO[*packet.Message]
	// nextPort[dst] is the precomputed XY-routing output port for every
	// destination node — the per-flit route computation reduced to one
	// table read, as a real router's route-compute stage would be a small
	// combinational lookup.
	nextPort []uint8
	// heads[p][v] caches the head flit of input (p, vc) for the duration
	// of one tick, so output arbitration reads an array instead of
	// re-peeking FIFOs O(outputs × inputs) times. Entries go stale only
	// after a pop, and consumed[p] already guards every read after a pop.
	heads [numPorts][]headState
	// assembly reassembles one message per VC at the local output.
	assembly []struct {
		msg    *packet.Message
		enqued uint64
	}
	// holder[out][vc] is the input port whose wormhole owns that VC lane
	// of the output, or -1.
	holder   [numPorts][]int
	rrIn     [numPorts]int // round-robin pointer over inputs, per output
	rrVC     [numPorts]int // round-robin pointer over VCs, per output
	consumed [numPorts]bool
	neighbor [numPorts]*router
	// linkFault[o] is the injected fault on the outgoing link at port o
	// (zero value = healthy). Local ports cannot fault.
	linkFault [numPorts]LinkFault
	// prefix[p] counts the flits of an advancing worm held as a number at
	// the front of input lane p (for portLocal: the injector's remaining
	// flits), and headWorm[p] is the worm whose head flit sits in input
	// lane p, if any. Single-VC meshes only; see worm.go.
	prefix   [numPorts]int
	headWorm [numPorts]*worm
	// stats are this router's counters. injected/occOut are written by
	// the local tile; the rest by the router's own tick.
	stats routerStats
	// tb is this router's trace buffer (nil when tracing is off). One
	// buffer per router keeps the drained span stream independent of the
	// order routers and tiles tick in.
	tb *trace.Buffer

	// Event-mode liveness. A router whose tick moves no flit changes no
	// state at all (round-robin pointers, holders, assembly, and counters
	// only mutate on a send), so it can sleep until one of its inputs,
	// credits, or faults changes — each such edge pokes it, and a tick
	// that moved a flit pokes the router itself. queued means the router
	// is on the mesh's woken list; faultWake is the next cycle a
	// PassEveryN-limited output with a waiting candidate opens (0 = none):
	// fault windows open by the clock, not by a poke.
	queued     bool
	faultWake  uint64
	commitPoke bool // on the mesh's commitWake list
}

// poke puts the router on the mesh's worklist for the next cycle (or the
// current one if called from a start-of-cycle event, before Begin swaps
// the list in). A router already queued is not queued twice.
func (r *router) poke() {
	if !r.queued {
		r.queued = true
		r.m.woken = append(r.m.woken, r)
	}
}

// track puts lane f on its dirty list if this is the first push or pop
// since its last commit. Call it before the push or pop, which raises the
// lane's dirty flag.
func track[T any](list *[]*sim.FIFO[T], f *sim.FIFO[T]) {
	if !*f.DirtyFlag() {
		*list = append(*list, f)
	}
}

// commitLanes commits and cleans every listed lane and returns the
// emptied list.
func commitLanes[T any](list []*sim.FIFO[T]) []*sim.FIFO[T] {
	for _, f := range list {
		f.Commit()
		*f.DirtyFlag() = false
	}
	return list[:0]
}

// headState is one input lane's cached head flit for the current tick.
type headState struct {
	f  Flit
	ok bool
}

// routerStats are one router's contribution to the mesh totals. occOut
// counts every message ever ejected from this router and is never reset;
// the custody audit checks it against the eject queue and the mesh total.
type routerStats struct {
	injected     uint64
	occOut       uint64
	delivered    uint64
	flitHops     uint64
	totalLatency uint64
}

// LinkFault is an injected condition on one directional mesh link. The
// zero value means healthy.
type LinkFault struct {
	// Severed blocks the link entirely: no flit crosses until the fault
	// is lifted. Under XY routing traffic for that turn wedges in place
	// (and backpressure spreads) — exactly the failure a health monitor
	// has to detect from the outside.
	Severed bool
	// PassEveryN >= 2 degrades the link to at most one flit every N
	// cycles (a flaky SerDes running with retries). 0 or 1 = full rate.
	PassEveryN int
}

// Clean reports whether the fault is the healthy zero state.
func (f LinkFault) Clean() bool { return !f.Severed && f.PassEveryN < 2 }

// blocks reports whether the fault gates the link shut at the given cycle.
func (f LinkFault) blocks(now uint64) bool {
	if f.Severed {
		return true
	}
	return f.PassEveryN >= 2 && now%uint64(f.PassEveryN) != 0
}

// injector serializes queued messages into flits at the local input port.
// Each virtual channel has an independent lane, so a backpressured packet
// does not block later packets on other VCs; the physical port still
// emits at most one flit per cycle. Packets are assigned to VCs by
// destination, which preserves per-(src,dst) ordering — packets to the
// same destination always share a lane and a single wormhole path.
type injector struct {
	lanes []injLane
}

type injLane struct {
	q     *sim.FIFO[injEntry]
	cur   injEntry
	sent  int
	valid bool
}

// vcFor maps a destination to its virtual channel.
func (i *injector) vcFor(dst NodeID) int { return int(dst) % len(i.lanes) }

// peek returns the candidate flit on the given VC lane, if any. An idle
// lane offers the head of its own message queue.
func (i *injector) peek(vc int) (Flit, bool) {
	l := &i.lanes[vc]
	if l.valid {
		last := l.sent == l.cur.flits-1
		return Flit{Dst: l.cur.dst, VC: vc, Head: false, Tail: last}, true
	}
	e, ok := l.q.Peek()
	if !ok {
		return Flit{}, false
	}
	return Flit{Msg: e.msg, Dst: e.dst, VC: vc, Head: true, Tail: e.flits == 1, Flits: int32(e.flits), Enq: e.enqued}, true
}

func (i *injector) pop(vc int) {
	l := &i.lanes[vc]
	if l.valid {
		l.sent++
		if l.sent == l.cur.flits {
			l.valid = false
		}
		return
	}
	e := l.q.Pop()
	if e.flits > 1 {
		l.cur, l.sent, l.valid = e, 1, true
	}
}

// NewMesh builds a Width×Height mesh.
func NewMesh(cfg MeshConfig) *Mesh {
	if cfg.Width < 1 || cfg.Height < 1 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d", cfg.Width, cfg.Height))
	}
	if cfg.FlitWidthBits < 1 {
		panic("noc: flit width must be positive")
	}
	if cfg.BufferDepth < 2 {
		panic("noc: buffer depth below 2 cannot sustain wormhole throughput")
	}
	if cfg.InjectDepth < 1 || cfg.EjectDepth < 1 {
		panic("noc: local queue depths must be positive")
	}
	if cfg.VirtualChannels < 0 {
		panic("noc: negative virtual channel count")
	}
	vcs := cfg.VirtualChannels
	if vcs == 0 {
		vcs = 1
	}
	m := &Mesh{cfg: cfg, vcs: vcs}
	n := cfg.Width * cfg.Height
	m.routers = make([]*router, n)
	for id := range m.routers {
		r := &router{m: m, id: NodeID(id), x: id % cfg.Width, y: id / cfg.Width}
		for p := portNorth; p < numPorts; p++ {
			r.in[p] = make([]*sim.FIFO[Flit], vcs)
			for v := 0; v < vcs; v++ {
				r.in[p][v] = sim.NewFIFO[Flit](cfg.BufferDepth)
			}
		}
		r.inj.lanes = make([]injLane, vcs)
		for v := range r.inj.lanes {
			r.inj.lanes[v].q = sim.NewFIFO[injEntry](cfg.InjectDepth)
		}
		r.ejectQ = sim.NewFIFO[*packet.Message](cfg.EjectDepth)
		r.assembly = make([]struct {
			msg    *packet.Message
			enqued uint64
		}, vcs)
		for p := range r.holder {
			r.holder[p] = make([]int, vcs)
			for v := range r.holder[p] {
				r.holder[p][v] = -1
			}
		}
		for p := range r.heads {
			r.heads[p] = make([]headState, vcs)
		}
		m.routers[id] = r
	}
	m.dirtyFlit = make([]*sim.FIFO[Flit], 0, n*(numPorts-1)*vcs)
	m.dirtyInj = make([]*sim.FIFO[injEntry], 0, n*vcs)
	m.dirtyEject = make([]*sim.FIFO[*packet.Message], 0, n)
	m.live = make([]*router, 0, n)
	m.woken = make([]*router, 0, n)
	m.commitWake = make([]*router, 0, n)
	// A worm holds its message's outputs, so there are never more worms
	// than router outputs, nor more head hops in a cycle.
	m.worms = make([]*worm, 0, n*numPorts)
	m.freeWorms = make([]*worm, 0, n*numPorts)
	m.hops = make([]headHop, 0, n*numPorts)
	m.followers = make([]Flit, 0, cfg.BufferDepth)
	for _, r := range m.routers {
		r.nextPort = make([]uint8, n)
		for dst := range r.nextPort {
			r.nextPort[dst] = uint8(r.route(NodeID(dst)))
		}
	}
	for _, r := range m.routers {
		if r.y > 0 {
			r.neighbor[portNorth] = m.routers[int(r.id)-cfg.Width]
		}
		if r.y < cfg.Height-1 {
			r.neighbor[portSouth] = m.routers[int(r.id)+cfg.Width]
		}
		if r.x > 0 {
			r.neighbor[portWest] = m.routers[int(r.id)-1]
		}
		if r.x < cfg.Width-1 {
			r.neighbor[portEast] = m.routers[int(r.id)+1]
		}
	}
	return m
}

// RegisterWith attaches the mesh to a kernel. Its staged lanes are not
// registered: the mesh commits them itself. The mesh wires its own
// kernel-level poker for wakes originating outside mesh ticks (Inject,
// TryEject, SetLinkFault).
func (m *Mesh) RegisterWith(k *sim.Kernel) {
	k.Register(m)
	m.selfPoke = k.PokerFor(m)
	m.clock = k.Clock()
}

// SetNodeWaker wires the poker that wakes the tile attached at node when
// the mesh ejects a message to it or returns an injection credit. Unwired
// nodes keep the zero no-op Poker, which is only safe for tiles that never
// sleep; the builder wires every placed tile.
func (m *Mesh) SetNodeWaker(node NodeID, p sim.Poker) {
	if m.tileWake == nil {
		m.tileWake = make([]sim.Poker, len(m.routers))
	}
	m.tileWake[node] = p
}

// wakeTile pokes the tile attached at the given node, if wired.
func (m *Mesh) wakeTile(node NodeID) {
	if m.tileWake != nil {
		m.tileWake[node].Poke()
	}
}

// AttachTracer gives every router its own trace buffer, so hop and
// transit spans emitted during Eval do not interleave in tick order.
// Buffers are created in router-ID order, which fixes their drain order at
// commit and keeps trace output deterministic.
func (m *Mesh) AttachTracer(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	for _, r := range m.routers {
		name := "router" + m.CoordOf(r.id).String()
		tr.NameLoc(trace.LocNode, uint32(r.id), name)
		r.tb = tr.Buffer(name)
	}
}

// Config returns the mesh configuration.
func (m *Mesh) Config() MeshConfig { return m.cfg }

// Nodes implements Fabric.
func (m *Mesh) Nodes() int { return len(m.routers) }

// NodeAt returns the node at mesh coordinate (x, y).
func (m *Mesh) NodeAt(x, y int) NodeID {
	if x < 0 || x >= m.cfg.Width || y < 0 || y >= m.cfg.Height {
		panic(fmt.Sprintf("noc: NodeAt(%d,%d) outside %dx%d mesh", x, y, m.cfg.Width, m.cfg.Height))
	}
	return NodeID(y*m.cfg.Width + x)
}

// CoordOf returns the mesh coordinate of a node.
func (m *Mesh) CoordOf(id NodeID) Coord {
	return Coord{X: int(id) % m.cfg.Width, Y: int(id) / m.cfg.Width}
}

// FlitsFor implements Fabric.
func (m *Mesh) FlitsFor(msg *packet.Message) int {
	return flitsFor(msg.WireLen(), m.cfg.FlitWidthBits)
}

// CanInject implements Fabric.
func (m *Mesh) CanInject(src, dst NodeID) bool {
	inj := &m.routers[src].inj
	return inj.lanes[inj.vcFor(dst)].q.CanPush()
}

// Inject implements Fabric.
func (m *Mesh) Inject(src, dst NodeID, msg *packet.Message) {
	if int(dst) < 0 || int(dst) >= len(m.routers) {
		panic(fmt.Sprintf("noc: Inject to invalid node %d", dst))
	}
	msg.AssertLive()
	r := m.routers[src]
	q := r.inj.lanes[r.inj.vcFor(dst)].q
	track(&m.dirtyInj, q)
	q.Push(injEntry{msg: msg, dst: dst, flits: m.FlitsFor(msg), enqued: m.now})
	r.stats.injected++
	m.occIn++
	m.pokeAtCommit(r)
	m.selfPoke.Poke()
}

// TryEject implements Fabric.
func (m *Mesh) TryEject(node NodeID) (*packet.Message, bool) {
	r := m.routers[node]
	if !r.ejectQ.CanPop() {
		return nil, false
	}
	r.stats.occOut++
	m.occOut++
	m.parked--
	// The freed eject slot may unblock a head flit the router reserved
	// against.
	m.pokeAtCommit(r)
	m.selfPoke.Poke()
	track(&m.dirtyEject, r.ejectQ)
	return r.ejectQ.Pop(), true
}

// pokeAtCommit queues r for the cycle after the Commit that makes a
// tile's staged Inject or TryEject visible. Poking at the call instead
// would wake the router a cycle too early when the call comes from
// outside Eval (between runs, or from an event), before the lane it
// touched commits.
func (m *Mesh) pokeAtCommit(r *router) {
	if !r.commitPoke {
		r.commitPoke = true
		m.commitWake = append(m.commitWake, r)
	}
}

// HasEjectable implements Fabric.
func (m *Mesh) HasEjectable(node NodeID) bool {
	return m.routers[node].ejectQ.CanPop()
}

// portToward returns the output port on from's router facing the adjacent
// node to; it panics when the nodes are not mesh neighbors (link faults
// are per physical link, not per path).
func (m *Mesh) portToward(from, to NodeID) int {
	r := m.routers[from]
	for p := portNorth; p < numPorts; p++ {
		if nb := r.neighbor[p]; nb != nil && nb.id == to {
			return p
		}
	}
	panic(fmt.Sprintf("noc: nodes %v and %v are not adjacent", m.CoordOf(from), m.CoordOf(to)))
}

// SetLinkFault installs (or, with the zero LinkFault, lifts) a fault on
// the directional link from -> to. The nodes must be adjacent. Call it
// between cycles: from a start-of-cycle event or between runs. Advancing
// worms are caught up to the kernel's clock and written back into their
// lanes first, so the fault gates their flits one by one.
func (m *Mesh) SetLinkFault(from, to NodeID, f LinkFault) {
	if m.clock != nil {
		m.catchUpWorms(m.clock.Now())
	}
	m.materializeWorms()
	lf := &m.routers[from].linkFault[m.portToward(from, to)]
	if lf.Clean() && !f.Clean() {
		m.faults++
	} else if !lf.Clean() && f.Clean() {
		m.faults--
	}
	*lf = f
	// Lifting a fault can unblock a sleeping router's waiting candidate.
	m.routers[from].poke()
	m.selfPoke.Poke()
}

// LinkFaultBetween returns the installed fault on the directional link
// from -> to.
func (m *Mesh) LinkFaultBetween(from, to NodeID) LinkFault {
	return m.routers[from].linkFault[m.portToward(from, to)]
}

// Stats returns the accumulated statistics, summed over routers.
func (m *Mesh) Stats() Stats {
	var s Stats
	for _, r := range m.routers {
		s.Injected += r.stats.injected
		s.Delivered += r.stats.delivered
		s.FlitHops += r.stats.flitHops
		s.TotalLatency += r.stats.totalLatency
	}
	return s
}

// ResetStats zeroes the accumulated statistics (for measuring steady state
// after warmup). The lifetime occupancy counters are preserved.
func (m *Mesh) ResetStats() {
	m.statsReset = true
	for _, r := range m.routers {
		r.stats = routerStats{occOut: r.stats.occOut}
	}
}

// WorkCounters count the mesh's host work. They measure simulator speed,
// not the modeled hardware: they stay out of Stats and fingerprints, and
// ResetStats leaves them alone.
type WorkCounters struct {
	// RouterTicks counts router ticks run.
	RouterTicks uint64
	// WormHops counts the flit hops advanced by worms instead of router
	// ticks (a subset of Stats.FlitHops).
	WormHops uint64
	// WormLaneSteps counts the lanes worm steps visited: every lane of
	// every worm, every cycle it advanced.
	WormLaneSteps uint64
}

// Work returns the mesh's lifetime work counters.
func (m *Mesh) Work() WorkCounters { return m.work }

// Begin implements sim.Preparer: the cycle number is published before Eval
// so routers and injecting tiles read a stable value however the Eval
// phase is ordered. Begin also fixes the cycle's router worklist — pokes
// are consumed here, before Eval, so the set of routers that tick can
// never depend on tick order. A poke landing later in this cycle keeps
// the mesh awake (EndCycle sees the woken list) and is consumed by the
// next Begin. Timed fault-window wakes are scanned for only while a link
// fault is installed. Before anything else, Begin catches up the worm steps
// of the cycles the mesh slept through; the reference stepper's first
// cycle then writes every worm back into its lanes, so from there on every
// cycle steps real flits only. Worms survive every other wake-all cycle:
// nothing outside the mesh reads or writes their lanes.
func (m *Mesh) Begin(cycle uint64) {
	m.catchUpWorms(cycle)
	m.now = cycle
	if m.tickAll {
		m.tickAll = false
		if m.reference {
			m.materializeWorms()
		}
		for _, r := range m.routers {
			r.poke()
		}
	}
	if m.faults > 0 {
		for _, r := range m.routers {
			if r.faultWake != 0 && cycle >= r.faultWake {
				r.poke()
			}
		}
	}
	m.live, m.woken = m.woken, m.live[:0]
	for _, r := range m.live {
		r.queued = false
	}
}

// WakeAll implements sim.BulkWaker: the next Begin queues every router.
// Under the reference stepper it also writes the worms back, and no worm
// forms again.
func (m *Mesh) WakeAll(reference bool) {
	m.tickAll = true
	m.reference = reference
}

// Tick implements sim.Ticker: one cycle of every router on the worklist,
// then one step of every worm. Router ticks within a cycle are
// order-independent, so the worklist's order does not matter.
func (m *Mesh) Tick(cycle uint64) {
	m.now = cycle
	m.work.RouterTicks += uint64(len(m.live))
	for _, r := range m.live {
		r.tick()
	}
	if len(m.worms) > 0 {
		m.stepWorms()
	}
	m.wormsNext = cycle + 1
}

// Commit implements sim.Committer: every lane pushed or popped this cycle
// makes its staged state visible, and every router a tile's Inject or
// TryEject touched is queued for the next cycle, when it can see the
// change. Lanes commit independently, so the lists' order does not matter.
// Then every long message's head hop of this cycle births or grows its
// worm, unless a link fault is installed or the reference stepper runs.
func (m *Mesh) Commit() {
	m.dirtyFlit = commitLanes(m.dirtyFlit)
	m.dirtyInj = commitLanes(m.dirtyInj)
	m.dirtyEject = commitLanes(m.dirtyEject)
	if len(m.hops) > 0 {
		if m.faults == 0 && !m.reference {
			for _, h := range m.hops {
				m.applyHop(h)
			}
		}
		m.hops = m.hops[:0]
	}
	for _, r := range m.commitWake {
		r.commitPoke = false
		r.poke()
	}
	m.commitWake = m.commitWake[:0]
}

// EndCycle implements sim.EventAware. The mesh must tick next cycle while
// any router is queued — it moved a flit or was poked —, or while a
// message is parked in an eject queue: a tile that has not yet taken the
// arrival may sleep through it, so the mesh must be the component that
// pins the cycle live and keeps the kernel from skipping it. Otherwise
// advancing worms bound the sleep by their quiet window (wormWake), the
// earliest fault-window opening (if any) bounds it too, and with neither
// the mesh sleeps until poked. An unqueued router's tick would change no
// state, so the worm steps are all a sleeping mesh defers; SyncTo catches
// them up.
func (m *Mesh) EndCycle(cycle uint64) uint64 {
	if len(m.woken) > 0 || m.parked > 0 {
		return cycle + 1
	}
	wake := uint64(sim.WakeNever)
	if len(m.worms) > 0 {
		wake = m.wormWake(cycle)
	}
	if m.faults > 0 {
		for _, r := range m.routers {
			if r.faultWake != 0 && r.faultWake < wake {
				wake = r.faultWake
			}
		}
	}
	return wake
}

// SyncTo implements sim.EventAware: the worm steps through cycle run, so
// Stats and audits read the counts of flit stepping.
func (m *Mesh) SyncTo(cycle uint64) { m.catchUpWorms(cycle + 1) }

// peekIn returns the head flit at (input port, vc).
func (r *router) peekIn(p, vc int) (Flit, bool) {
	if p == portLocal {
		return r.inj.peek(vc)
	}
	return r.in[p][vc].Peek()
}

func (r *router) popIn(p, vc int) {
	if p == portLocal {
		if l := &r.inj.lanes[vc]; !l.valid {
			// This pop drains the lane's message queue, returning an
			// injection credit to the local tile at commit.
			r.m.wakeTile(r.id)
			track(&r.m.dirtyInj, l.q)
		}
		r.inj.pop(vc)
		return
	}
	track(&r.m.dirtyFlit, r.in[p][vc])
	r.in[p][vc].Pop()
	// The freed buffer slot is an upstream credit at commit: the neighbor
	// feeding this port may have a flit waiting on it.
	if nb := r.neighbor[p]; nb != nil {
		nb.poke()
	}
}

// route returns the output port for a flit under XY dimension-order
// routing.
func (r *router) route(dst NodeID) int {
	dx := int(dst)%r.m.cfg.Width - r.x
	dy := int(dst)/r.m.cfg.Width - r.y
	switch {
	case dx > 0:
		return portEast
	case dx < 0:
		return portWest
	case dy > 0:
		return portSouth
	case dy < 0:
		return portNorth
	default:
		return portLocal
	}
}

// canAccept reports whether output port o can take one more flit on the
// flit's VC.
func (r *router) canAccept(o int, f Flit) bool {
	if o == portLocal {
		if f.Head {
			// Reserve an eject slot: other VCs mid-assembly also hold
			// reservations. Occupancy is the conservative Pending count —
			// committed entries plus same-cycle pushes, blind to the local
			// tile's same-cycle pops — so the decision is identical whether
			// the tile has ticked yet or not (the order-independence
			// contract; same-cycle eject credits return next cycle).
			free := r.ejectQ.Cap() - r.ejectQ.Pending()
			reserved := 0
			for v := range r.assembly {
				if v != f.VC && r.assembly[v].msg != nil {
					reserved++
				}
			}
			return free > reserved
		}
		return true
	}
	nb := r.neighbor[o]
	if nb == nil {
		panic(fmt.Sprintf("noc: route to missing neighbor %d from %v", o, r.m.CoordOf(r.id)))
	}
	// A worm's prefix occupies the lane's front slots.
	p := oppositePort[o]
	q := nb.in[p][f.VC]
	return q.Pending()+nb.prefix[p] < q.Cap()
}

// deliver moves a flit out through output port o.
func (r *router) deliver(o int, f Flit) {
	if o == portLocal {
		a := &r.assembly[f.VC]
		if f.Head {
			a.msg, a.enqued = f.Msg, f.Enq
		}
		if f.Tail {
			msg := a.msg
			a.msg = nil
			track(&r.m.dirtyEject, r.ejectQ)
			r.ejectQ.Push(msg)
			r.m.parked++
			r.m.wakeTile(r.id) // arrival visible to the tile at commit
			r.stats.delivered++
			r.stats.totalLatency += r.m.now - a.enqued
			if r.tb.Want(msg.TraceID) {
				// One mesh-transit span per message, from injection-queue
				// entry to tail-flit ejection at the destination router.
				r.tb.Emit(trace.Span{
					Msg: msg.TraceID, Kind: trace.KindEject,
					LocKind: trace.LocNode, Loc: uint32(r.id),
					Start: a.enqued, End: r.m.now,
					Tenant: msg.Tenant,
				})
			}
		}
		return
	}
	if f.Head && f.Msg != nil && r.tb.Want(f.Msg.TraceID) {
		r.tb.Emit(trace.Span{
			Msg: f.Msg.TraceID, Kind: trace.KindHop,
			LocKind: trace.LocNode, Loc: uint32(r.id),
			Start: r.m.now, End: r.m.now,
			A: uint64(o), B: uint64(f.Dst),
			Tenant: f.Msg.Tenant,
		})
	}
	in := r.neighbor[o].in[oppositePort[o]][f.VC]
	track(&r.m.dirtyFlit, in)
	in.Push(f)
	r.neighbor[o].poke() // the flit is the neighbor's input next cycle
	r.stats.flitHops++
}

// laneReady reports whether input lane (p, vc) holds a committed flit (for
// the injector: a mid-serialization message or a queued one) that the
// router may forward: a lane fronted by a worm's prefix is not ready.
func (r *router) laneReady(p, vc int) bool {
	if p == portLocal {
		l := &r.inj.lanes[vc]
		return (l.valid || l.q.CanPop()) && r.prefix[p] == 0
	}
	return r.in[p][vc].CanPop() && r.prefix[p] == 0
}

// pokeIfReady pokes a single-VC router that has a ready input lane and is
// not queued yet. A router without one ticks as a no-op, so a worm need
// not poke it.
func (r *router) pokeIfReady() {
	if r.queued {
		return
	}
	for p := 0; p < numPorts; p++ {
		if r.laneReady(p, 0) {
			r.poke()
			return
		}
	}
}

// holdsEntry reports whether any input lane of a single-VC router holds a
// real entry: a flit, or a message at the injector that is not a worm's,
// whether ready or queued behind a worm's prefix.
func (r *router) holdsEntry() bool {
	for p := portNorth; p < numPorts; p++ {
		if r.in[p][0].Len() > 0 {
			return true
		}
	}
	l := &r.inj.lanes[0]
	return l.q.Len() > 0 || l.valid && r.prefix[portLocal] == 0
}

// holderOf returns the output port whose VC-v wormhole is owned by input
// port p, or -1. A body flit is only ever forwarded by its holder, so this
// is the fast-path route lookup.
func (r *router) holderOf(p, v int) int {
	for o := 0; o < numPorts; o++ {
		if r.holder[o][v] == p {
			return o
		}
	}
	return -1
}

// noteFaultWindow records that a candidate is waiting on fault-gated
// output o. PassEveryN windows open by the clock, with no poke to ride, so
// the next opening becomes a timed wake; a severed link only reopens via
// SetLinkFault, which pokes.
func (r *router) noteFaultWindow(o int) {
	if n := uint64(r.linkFault[o].PassEveryN); n >= 2 {
		next := r.m.now + n - r.m.now%n
		if r.faultWake == 0 || next < r.faultWake {
			r.faultWake = next
		}
	}
}

// streamOne forwards the cached head flit of input lane (p, v) through
// output o, exactly as the general arbitration below would when that lane
// is the only live input competing for o: the wormhole already owns the
// output, so the only questions left are the link fault gate and
// downstream acceptance. It reports whether the flit moved.
func (r *router) streamOne(o, p, v int) bool {
	if o != portLocal && r.linkFault[o].blocks(r.m.now) {
		r.noteFaultWindow(o)
		return false
	}
	f := r.heads[p][v].f
	if !r.canAccept(o, f) {
		return false
	}
	r.popIn(p, v)
	r.deliver(o, f)
	if f.Tail {
		r.holder[o][v] = -1
	}
	r.rrVC[o] = (v + 1) % r.m.vcs
	return true
}

func (r *router) tick() {
	r.faultWake = 0
	vcs := r.m.vcs
	// Cache every input lane's head flit once: output arbitration below
	// would otherwise re-peek each input once per output port. consumed[p]
	// guards the cache after a pop (one pop per input port per cycle).
	// The same pass counts live lanes, so an idle router is proven idle
	// (and a lone mid-wormhole lane spotted) without a separate scan.
	inputs := 0
	headSeen := false
	var livePort [numPorts]int8
	for p := 0; p < numPorts; p++ {
		for v := 0; v < vcs; v++ {
			h := &r.heads[p][v]
			// Test emptiness before peeking: most lanes are empty in any
			// given cycle, and the occupancy test is two integer loads
			// where a peek copies out a whole flit.
			if !r.laneReady(p, v) {
				h.ok = false
				continue
			}
			h.f, h.ok = r.peekIn(p, v)
			headSeen = headSeen || h.f.Head
			if inputs < numPorts {
				livePort[inputs] = int8(p)
			}
			inputs++
		}
	}
	if inputs == 0 {
		return
	}
	// Streaming fast path: every live lane is mid-wormhole (no head flit
	// needs allocating), and each wormhole owns a distinct output — then
	// arbitration degenerates to "move each flit if its output accepts it",
	// with no cross-lane interaction to order. Under saturation nearly
	// every hop qualifies (a 256-byte frame is 32 flits, 31 of them body).
	// Restricted to single-VC meshes so a lane is identified by its port.
	if !headSeen && vcs == 1 && inputs <= numPorts {
		var outOf [numPorts]int8
		var used [numPorts]bool
		ok := true
		for i := 0; i < inputs; i++ {
			o := r.holderOf(int(livePort[i]), 0)
			if o < 0 || used[o] {
				ok = false
				break
			}
			used[o] = true
			outOf[i] = int8(o)
		}
		if ok {
			moved := false
			for i := 0; i < inputs; i++ {
				if r.streamOne(int(outOf[i]), int(livePort[i]), 0) {
					moved = true
				}
			}
			if moved {
				r.poke()
			}
			return
		}
	}
	for p := range r.consumed {
		r.consumed[p] = false
	}
	// Build a conservative per-output candidate mask (a head flit routed
	// to o, or an active wormhole with flits waiting) so arbitration skips
	// outputs nothing can use this cycle.
	var cand [numPorts]bool
	for p := 0; p < numPorts; p++ {
		for v := 0; v < vcs; v++ {
			if h := &r.heads[p][v]; h.ok && h.f.Head {
				cand[r.nextPort[h.f.Dst]] = true
			}
		}
	}
	for o := 0; o < numPorts; o++ {
		if cand[o] {
			continue
		}
		for v := 0; v < vcs; v++ {
			if h := r.holder[o][v]; h >= 0 && r.heads[h][v].ok {
				cand[o] = true
				break
			}
		}
	}
	moved := false
	for o := 0; o < numPorts; o++ {
		if !cand[o] {
			continue
		}
		if o != portLocal && r.linkFault[o].blocks(r.m.now) {
			r.noteFaultWindow(o)
			continue
		}
		// One flit per output per cycle; VCs take turns (round-robin),
		// letting packets interleave on the physical link.
		sent := false
		for vi := 0; vi < vcs && !sent; vi++ {
			v := (r.rrVC[o] + vi) % vcs
			if h := r.holder[o][v]; h >= 0 {
				hs := &r.heads[h][v]
				if !hs.ok || r.consumed[h] || !r.canAccept(o, hs.f) {
					continue
				}
				f := hs.f
				r.popIn(h, v)
				r.consumed[h] = true
				r.deliver(o, f)
				if f.Tail {
					r.holder[o][v] = -1
				}
				r.rrVC[o] = (v + 1) % vcs
				sent = true
				continue
			}
			// Allocate this VC lane to a waiting head flit.
			for ii := 0; ii < numPorts; ii++ {
				in := (r.rrIn[o] + ii) % numPorts
				if r.consumed[in] {
					continue
				}
				hs := &r.heads[in][v]
				if !hs.ok || !hs.f.Head || int(r.nextPort[hs.f.Dst]) != o || !r.canAccept(o, hs.f) {
					continue
				}
				f := hs.f
				r.popIn(in, v)
				r.consumed[in] = true
				r.deliver(o, f)
				if !f.Tail {
					r.holder[o][v] = in
				}
				if f.Flits >= wormMinFlits && vcs == 1 {
					r.m.hops = append(r.m.hops, headHop{r, in, o, f.Msg, f.Dst})
				}
				r.rrIn[o] = (in + 1) % numPorts
				r.rrVC[o] = (v + 1) % vcs
				sent = true
				break
			}
		}
		if sent {
			moved = true
		}
	}
	// A tick that moved nothing changed nothing (the no-op proof behind
	// the idle early-return applies to a fully blocked router too:
	// round-robin state, holders, assembly, and stats only mutate on a
	// send), so the router sleeps until an input, credit, or fault edge
	// pokes it. One that moved a flit stays on the worklist.
	if moved {
		r.poke()
	}
}
