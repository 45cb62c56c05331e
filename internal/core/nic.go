package core

import (
	"fmt"
	"sort"

	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/fault"
	"github.com/panic-nic/panic/internal/invariant"
	"github.com/panic-nic/panic/internal/noc"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/rmt"
	"github.com/panic-nic/panic/internal/sched"
	"github.com/panic-nic/panic/internal/stats"
	"github.com/panic-nic/panic/internal/trace"
)

// Config parameterizes a PANIC NIC.
type Config struct {
	// FreqHz is the NIC clock (the paper's operating point is 500 MHz).
	FreqHz float64
	// LineRateGbps and Ports describe the Ethernet side.
	LineRateGbps float64
	Ports        int
	// Mesh is the on-chip network geometry (Table 3's rows are 6×6 and
	// 8×8 at 64 or 128 bits).
	Mesh noc.MeshConfig
	// RMTPipelines is the number of parallel heavyweight RMT engines
	// (§4.2: throughput is FreqHz × RMTPipelines packets/s).
	RMTPipelines int
	// QueueCap is each engine's scheduling-queue capacity.
	QueueCap int
	// Policy picks lossless backpressure or priority-drop overflow.
	Policy sched.Policy
	// Rank orders scheduling queues (nil = LSTF on chain slack).
	Rank sched.RankFunc
	// TenantWeights enables weighted-LSTF scheduling: each offload queue
	// scales a message's slack inversely to its tenant's weight and charges
	// deficit-style rate credits, so an aggressor tenant cannot starve a
	// victim's slack budget. Ignored when Rank is set explicitly. Every
	// tile gets its own rank instance (credit state is per queue, as per-
	// engine hardware counters would be).
	TenantWeights map[uint16]uint64
	// Tenants lists the tenants the RMT program installs per-tenant chain
	// entries for (classified from the wire: KVS header tenant or ESP SPI).
	// Empty defaults to the sorted TenantWeights keys.
	Tenants []uint16
	// TenantQuantumBytes is the per-weight-unit byte credit each tenant
	// earns every 64-cycle refill period (0 = the sched package default,
	// 1024 B ≈ 64 Gbps at 500 MHz). Set it to a tenant's fair share of the
	// bottleneck link so an over-budget aggressor exhausts its credit and
	// ranks behind in-budget tenants even after its slack has aged away.
	TenantQuantumBytes uint64
	// Program configures the steering program (Ports is overridden).
	Program ProgramConfig
	// CacheCapacity is the on-NIC KVS cache size in keys (0 disables).
	CacheCapacity int
	// IPSec configures the crypto engine datapath.
	IPSec engine.IPSecConfig
	// PCIeGbps, DMALatency, and DMAJitter model the host connection.
	PCIeGbps              float64
	DMALatency, DMAJitter uint64
	// HostCycles and HostValueBytes model the host KVS software.
	HostCycles     uint64
	HostValueBytes uint32
	// InterruptCoalesce is the PCIe engine's coalescing count.
	InterruptCoalesce int
	// RateLimits installs per-tenant rate limits (Gbps) on the SENIC-style
	// rate-limiter engine; non-empty enables the engine and prepends it to
	// every KVS chain (sets Program.EnableRateLimiter).
	RateLimits map[uint16]float64
	// LSO, when set, places a TCP segmentation engine and chains
	// host-originated TCP sends through it (sets Program.EnableLSO).
	LSO *engine.LSOConfig
	// IPSecReplicas and DMAReplicas are the TOTAL instance counts for the
	// crypto and RX-DMA engines (0 or 1 = primary only, max 5). Extra
	// instances are hot standbys at AddrIPSecAlt+i / AddrDMAAlt+i that the
	// health monitor fails over to by rewriting RMT steering.
	IPSecReplicas int
	DMAReplicas   int
	// Health configures the self-healing control plane (disabled unless
	// Health.Enable).
	Health HealthConfig
	// FaultPlan, when set, is armed onto the kernel before the clock
	// starts; its events feed the NIC's failure-event log.
	FaultPlan *fault.Plan
	// CompactPlacement clusters all engines into the mesh's top-left
	// corner instead of spreading them (the placement ablation for the
	// paper's §6 question "How should different engines be placed?").
	// Spread placement is the default and performs much better: corner
	// placement concentrates every flow onto a few links.
	CompactPlacement bool
	// Tracer, when non-nil, enables cycle-accurate span tracing: every
	// placed tile, every mesh router, the terminal sinks, and the failure
	// log get private trace buffers, and the tracer is registered on the
	// kernel as the LAST committer so each cycle's spans drain after all
	// staged sinks flush. Nil costs nothing on the hot path.
	Tracer *trace.Tracer
	Seed   uint64
	// Invariants, when non-nil, arms the runtime invariant monitor: every
	// sampling interval the kernel's end-of-cycle barrier audits message
	// conservation (per tile and per tenant), queue and credit bounds,
	// WLSTF credit conservation, flow-cache coherence (sampled cache hits
	// shadow-executed against the full table walk), health-monitor action
	// legality, and trace-span well-formedness (see ROBUSTNESS.md). The
	// simulation stream is bit-identical with the monitor on or off; nil
	// (the default) registers nothing and costs nothing.
	Invariants *invariant.Config
	// RackTap, when non-nil, inspects every frame reaching wire egress
	// before it is counted as a local delivery; returning true consumes
	// the message. The fleet layer uses it to pick rack-destined frames
	// (IP dst in 172.0.0.0/8, another NIC's subnet) off the wire and walk
	// them through the ToR model. The tap runs inside the MACs' staged
	// sinks during the sequential Commit phase, so it needs no locking
	// and fires in deterministic (port, delivery) order. Nil costs
	// nothing.
	RackTap func(m *packet.Message, now uint64) bool
	// FastForward is ignored: the kernel always jumps the clock over
	// provably idle cycles. It is kept only because a caller outside this
	// module still sets it, and goes at that caller's next change.
	FastForward bool
}

// DefaultConfig returns the canonical PANIC operating point: a two-port
// 100 Gbps NIC at 500 MHz with two RMT pipelines on a 6×6 mesh of 128-bit
// channels (the paper's §4.2 headline configuration and Table 3 row 3).
func DefaultConfig() Config {
	mesh := noc.DefaultMeshConfig()
	mesh.FlitWidthBits = 128
	return Config{
		FreqHz:            500e6,
		LineRateGbps:      100,
		Ports:             2,
		Mesh:              mesh,
		RMTPipelines:      2,
		QueueCap:          64,
		Policy:            sched.DropLowestPriority,
		Program:           DefaultProgramConfig(2),
		CacheCapacity:     1024,
		IPSec:             engine.IPSecConfig{BytesPerCycle: 16, SetupCycles: 20},
		PCIeGbps:          256,
		DMALatency:        150, // ~300 ns host round trip at 500 MHz
		DMAJitter:         50,
		HostCycles:        1000, // ~2 µs host software path
		HostValueBytes:    512,
		InterruptCoalesce: 8,
		Seed:              1,
	}
}

// NIC is an assembled PANIC NIC.
type NIC struct {
	Cfg     Config
	Builder *Builder
	Program *rmt.Program

	MACs     []*engine.EthernetMAC
	macTiles []*engine.Tile
	LSOEng   *engine.LSOEngine
	RateLim  *engine.RateLimiterEngine
	DMA      *engine.DMAEngine
	TxDMA    *engine.TxDMAEngine
	PCIe     *engine.PCIeEngine
	IPSec    *engine.IPSecEngine
	Cache    *engine.KVSCacheEngine
	RDMA     *engine.RDMAEngine
	Host     *KVSHost

	// IPSecAlts and DMAAlts are the hot-standby replica engines (empty
	// unless Cfg.IPSecReplicas / Cfg.DMAReplicas > 1).
	IPSecAlts []*engine.IPSecEngine
	DMAAlts   []*engine.DMAEngine
	// Events is the structured failure log (fault injections plus health
	// monitor actions). Always non-nil.
	Events *EventLog
	// Monitor is the self-healing control plane (nil unless
	// Cfg.Health.Enable).
	Monitor *HealthMonitor
	// Invar is the runtime invariant monitor (nil unless Cfg.Invariants).
	Invar *invariant.Monitor
	// wlstfs are the per-queue weighted-LSTF rank instances, retained so
	// the invariant monitor can audit their credit ledgers.
	wlstfs []*sched.WLSTF

	// HostLat histograms request latency to host delivery; WireLat
	// histograms request-to-response latency at wire egress.
	HostLat *LatencyCollector
	WireLat *LatencyCollector
	// Drops counts messages shed by scheduling queues.
	Drops *stats.Counter
}

// NewNIC assembles a PANIC NIC. sources[i] feeds Ethernet port i and may
// be nil for a TX-only port; len(sources) must not exceed cfg.Ports.
func NewNIC(cfg Config, sources []engine.Source) *NIC {
	if cfg.Ports < 1 || len(sources) > cfg.Ports {
		panic(fmt.Sprintf("core: %d sources for %d ports", len(sources), cfg.Ports))
	}
	if cfg.RMTPipelines < 1 {
		panic("core: need at least one RMT pipeline")
	}
	w, h := cfg.Mesh.Width, cfg.Mesh.Height
	if cfg.Ports > h || cfg.RMTPipelines > h || w < 4 || h < 3 {
		panic(fmt.Sprintf("core: %dx%d mesh too small for %d ports and %d pipelines", w, h, cfg.Ports, cfg.RMTPipelines))
	}
	cfg.Program.Ports = cfg.Ports
	cfg.Program.EnableRateLimiter = len(cfg.RateLimits) > 0
	if cfg.Program.EnableRateLimiter {
		tenants := make([]uint16, 0, len(cfg.RateLimits))
		for t := range cfg.RateLimits {
			tenants = append(tenants, t)
		}
		sort.Slice(tenants, func(i, j int) bool { return tenants[i] < tenants[j] })
		cfg.Program.RateLimitTenants = tenants
	}
	cfg.Program.EnableLSO = cfg.LSO != nil
	if len(cfg.Tenants) == 0 && len(cfg.TenantWeights) > 0 {
		for t := range cfg.TenantWeights {
			cfg.Tenants = append(cfg.Tenants, t)
		}
		sort.Slice(cfg.Tenants, func(i, j int) bool { return cfg.Tenants[i] < cfg.Tenants[j] })
	}
	cfg.Program.Tenants = cfg.Tenants

	n := &NIC{
		Cfg:     cfg,
		HostLat: NewLatencyCollector(),
		WireLat: NewLatencyCollector(),
		Drops:   &stats.Counter{},
	}
	b := NewBuilder(cfg.FreqHz, cfg.Mesh, cfg.Seed)
	b.Tracer = cfg.Tracer
	b.Mesh.AttachTracer(cfg.Tracer)
	n.Builder = b
	n.Program = BuildProgram(cfg.Program)
	n.Host = NewKVSHost(cfg.HostCycles, cfg.HostValueBytes)
	// One message pool serves the whole NIC: its sources, engines and host
	// build messages from it, and every terminal point below releases to
	// it.
	pool := b.pool
	n.Host.UsePool(pool)
	for _, src := range sources {
		if pu, ok := src.(poolUser); ok {
			pu.UsePool(pool)
		}
	}

	// The drop counter is shared by every tile: increments commute, so the
	// final count does not depend on tick order.
	dropSink := engine.SinkFunc(func(m *packet.Message, _ uint64) {
		n.Drops.Inc()
		pool.Put(m)
	})
	// A collector with an OnDeliver observer keeps its messages: the
	// observer may retain what it sees.
	release := func(c *LatencyCollector, m *packet.Message) {
		if c.OnDeliver == nil {
			pool.Put(m)
		}
	}
	// Terminal-sink Deliver spans share one buffer: StagedSink targets run
	// during the sequential Commit phase, so the single writer rule holds.
	var sinksBuf *trace.Buffer
	if cfg.Tracer != nil {
		cfg.Tracer.NameLoc(trace.LocSink, sinkHost, "host")
		cfg.Tracer.NameLoc(trace.LocSink, sinkWire, "wire")
		sinksBuf = cfg.Tracer.Buffer("sinks")
	}
	wrapSink := func(inner engine.Sink, loc uint32) engine.Sink {
		if sinksBuf == nil {
			return inner
		}
		return tracedSink{inner: inner, buf: sinksBuf, loc: loc}
	}
	common := func(c *engine.TileConfig) {
		c.QueueCap = cfg.QueueCap
		c.Policy = cfg.Policy
		c.Rank = cfg.Rank
		if c.Rank == nil && len(cfg.TenantWeights) > 0 {
			// Each tile gets its own credit state; the instance is retained
			// so the invariant monitor can audit its ledger.
			w := sched.NewWLSTF(sched.WLSTFConfig{
				Weights:      cfg.TenantWeights,
				QuantumBytes: cfg.TenantQuantumBytes,
			})
			n.wlstfs = append(n.wlstfs, w)
			c.Rank = w.Rank
		}
	}
	// Chainless traffic (fresh ingress, reinjections, host responses) is
	// sprayed round-robin across the parallel RMT pipelines, as ingress
	// hardware would load-balance them.
	spread := make([]packet.Addr, cfg.RMTPipelines)
	for i := range spread {
		spread[i] = AddrRMTBase + packet.Addr(i)
	}

	// Placement spreads engines over the whole mesh (Figure 3c): MACs on
	// the west edge, RMT pipelines through the center column, host
	// interface on the east edge, offloads staggered in between, so no
	// mesh row carries every flow.
	midY := h / 2
	ethY := func(p int) int { return clampY(midY-cfg.Ports/2+p, h) }
	rmtY := func(i int) int { return clampY(1+2*i, h) }
	if cfg.CompactPlacement {
		midY = 0
		ethY = func(p int) int { return p }
		rmtY = func(i int) int { return i }
	}

	// West edge: Ethernet MACs (fabric edge, external interfaces). The wire
	// collector is shared by every port, so each MAC writes through its own
	// StagedSink, registered right after its tile: deliveries buffer
	// privately during Eval and flush at Commit in tile order, keeping the
	// collector independent of tick order.
	for p := 0; p < cfg.Ports; p++ {
		var src engine.Source
		if p < len(sources) {
			src = sources[p]
		}
		// The rack tap wraps outside the traced sink: a frame consumed by
		// the fleet's ToR path is in flight in the rack, not delivered
		// here, so it emits no local Deliver span and never reaches the
		// wire collector.
		var wireTarget engine.Sink = wrapSink(engine.SinkFunc(func(m *packet.Message, now uint64) {
			n.WireLat.Deliver(m, now)
			release(n.WireLat, m)
		}), sinkWire)
		if cfg.RackTap != nil {
			wireTarget = tapSink{tap: cfg.RackTap, inner: wireTarget}
		}
		wireSink := engine.NewStagedSink(wireTarget)
		mac := engine.NewEthernetMAC(engine.MACConfig{
			Port: p, LineRateGbps: cfg.LineRateGbps, FreqHz: cfg.FreqHz,
		}, src, wireSink)
		n.MACs = append(n.MACs, mac)
		tile := b.PlaceTile(AddrEthBase+packet.Addr(p), 0, ethY(p), mac, common,
			func(c *engine.TileConfig) { c.DefaultSpread = spread })
		b.Kernel.Register(wireSink)
		tile.DropSink = dropSink
		n.macTiles = append(n.macTiles, tile)
	}

	// Center column: the heavyweight RMT pipelines, staggered vertically.
	rmtX := w / 2
	if cfg.CompactPlacement {
		rmtX = 1
	}
	for i := 0; i < cfg.RMTPipelines; i++ {
		pipe := rmt.NewPipeline(n.Program, 1, 1)
		// Each pipeline gets a private cache (no mutable state shared
		// between pipelines); verdicts are identical to the full walk.
		pipe.EnableFlowCache()
		b.PlaceRMT(AddrRMTBase+packet.Addr(i), rmtX, rmtY(i), pipe, common,
			func(c *engine.TileConfig) { c.Rank = nil }) // FIFO admission
	}

	// Right edge: DMA and PCIe (the host interface). The host collector and
	// KVS host are shared by the primary DMA and its replicas, so each
	// instance gets its own StagedSink (same scheme as the MACs above).
	hostSink := engine.SinkFunc(func(m *packet.Message, now uint64) {
		n.HostLat.Deliver(m, now)
		n.Host.Absorb(m, now)
		release(n.HostLat, m)
	})
	dmaSink := engine.NewStagedSink(wrapSink(hostSink, sinkHost))
	n.DMA = engine.NewDMAEngine(engine.DMAConfig{
		PCIeGbps: cfg.PCIeGbps, FreqHz: cfg.FreqHz,
		BaseLatencyCycles: cfg.DMALatency, JitterCycles: cfg.DMAJitter,
		NotifyAddr: AddrPCIe,
	}, dmaSink, nil)
	dmaY := clampY(midY, h)
	if cfg.CompactPlacement {
		dmaY = 0
	}
	dmaTile := b.PlaceTile(AddrDMA, w-1, dmaY, n.DMA, common,
		func(c *engine.TileConfig) { c.DefaultSpread = spread })
	b.Kernel.Register(dmaSink)
	dmaTile.DropSink = dropSink

	coalesce := cfg.InterruptCoalesce
	if coalesce < 1 {
		coalesce = 1
	}
	n.PCIe = engine.NewPCIeEngine(engine.PCIeConfig{CoalesceCount: coalesce, InterruptCycles: 4})
	pcieY := clampY(midY-1, h)
	if cfg.CompactPlacement {
		pcieY = 1
	}
	b.PlaceTile(AddrPCIe, w-1, pcieY, n.PCIe, common)

	// TX-side DMA: fetches host responses independently of the receive
	// path (split RX/TX DMA, as on real NICs).
	n.TxDMA = engine.NewTxDMAEngine(cfg.PCIeGbps, cfg.FreqHz, n.Host)
	txY := clampY(midY+1, h)
	if cfg.CompactPlacement {
		txY = 2
	}
	txTile := b.PlaceTile(AddrTxDMA, w-1, txY, n.TxDMA, common,
		func(c *engine.TileConfig) { c.DefaultSpread = spread })
	// The RX-DMA staged sinks feed the KVS host's TX queue, which the
	// TX-DMA tile polls: each flush pokes that tile so a sleeping TX side
	// sees the new response work (the flush happens at Commit, after the
	// tile's wake schedule for the cycle was already declared).
	dmaSink.SetWaker(b.Kernel.PokerFor(txTile))

	// Interior: the offload engines.
	n.IPSec = engine.NewIPSecEngine(cfg.IPSec)
	ipsecX, ipsecY := clampFree(b, 1, h-2)
	if cfg.CompactPlacement {
		ipsecX, ipsecY = clampFree(b, 2, 0)
	}
	ipsecTile := b.PlaceTile(AddrIPSec, ipsecX, ipsecY, n.IPSec, common,
		func(c *engine.TileConfig) { c.DefaultSpread = spread })
	ipsecTile.DropSink = dropSink

	cacheCap := cfg.CacheCapacity
	if cacheCap < 1 {
		cacheCap = 1
	}
	n.Cache = engine.NewKVSCacheEngine(engine.KVSCacheConfig{
		Capacity: cacheCap, LookupCycles: 2, RDMAAddr: AddrRDMA,
	})
	cacheX, cacheY := clampFree(b, rmtX+1, clampY(midY+1, h))
	if cfg.CompactPlacement {
		cacheX, cacheY = clampFree(b, 2, 1)
	}
	cacheTile := b.PlaceTile(AddrKVSCache, cacheX, cacheY, n.Cache, common)
	cacheTile.DropSink = dropSink

	n.RDMA = engine.NewRDMAEngine(engine.RDMAConfig{DMAAddr: AddrDMA, IssueCycles: 4})
	rdmaX, rdmaY := clampFree(b, rmtX+1, clampY(midY-1, h))
	if cfg.CompactPlacement {
		rdmaX, rdmaY = clampFree(b, 3, 0)
	}
	rdmaTile := b.PlaceTile(AddrRDMA, rdmaX, rdmaY, n.RDMA, common,
		func(c *engine.TileConfig) { c.DefaultSpread = spread })
	rdmaTile.DropSink = dropSink

	// Optional offloads: TCP segmentation and per-tenant rate limiting.
	if cfg.LSO != nil {
		n.LSOEng = engine.NewLSOEngine(*cfg.LSO)
		x, y := b.NextFree()
		lsoTile := b.PlaceTile(AddrLSO, x, y, n.LSOEng, common)
		lsoTile.DropSink = dropSink
	}
	if len(cfg.RateLimits) > 0 {
		n.RateLim = engine.NewRateLimiterEngine(engine.RateLimiterConfig{FreqHz: cfg.FreqHz, BurstBytes: 16 * 1024})
		for tenant, gbps := range cfg.RateLimits {
			n.RateLim.SetLimit(tenant, gbps)
		}
		x, y := b.NextFree()
		rlTile := b.PlaceTile(AddrRateLim, x, y, n.RateLim, common)
		rlTile.DropSink = dropSink
	}

	// Hot-standby replicas for the failover control plane: full engine
	// instances at their own addresses, reachable only after the health
	// monitor rewrites RMT steering toward them.
	if cfg.IPSecReplicas > 5 || cfg.DMAReplicas > 5 {
		panic(fmt.Sprintf("core: replica counts %d/%d exceed the 5-instance address space",
			cfg.IPSecReplicas, cfg.DMAReplicas))
	}
	for i := 1; i < cfg.IPSecReplicas; i++ {
		alt := engine.NewIPSecEngine(cfg.IPSec)
		n.IPSecAlts = append(n.IPSecAlts, alt)
		x, y := b.NextFree()
		t := b.PlaceTile(AddrIPSecAlt+packet.Addr(i-1), x, y, alt, common,
			func(c *engine.TileConfig) { c.DefaultSpread = spread })
		t.DropSink = dropSink
	}
	for i := 1; i < cfg.DMAReplicas; i++ {
		altSink := engine.NewStagedSink(wrapSink(hostSink, sinkHost))
		altSink.SetWaker(b.Kernel.PokerFor(txTile))
		alt := engine.NewDMAEngine(engine.DMAConfig{
			PCIeGbps: cfg.PCIeGbps, FreqHz: cfg.FreqHz,
			BaseLatencyCycles: cfg.DMALatency, JitterCycles: cfg.DMAJitter,
			NotifyAddr: AddrPCIe,
		}, altSink, nil)
		n.DMAAlts = append(n.DMAAlts, alt)
		x, y := b.NextFree()
		t := b.PlaceTile(AddrDMAAlt+packet.Addr(i-1), x, y, alt, common,
			func(c *engine.TileConfig) { c.DefaultSpread = spread })
		b.Kernel.Register(altSink)
		t.DropSink = dropSink
	}

	b.Routes.SetDefault(AddrRMTBase)

	n.Events = &EventLog{}
	n.Events.AttachTracer(cfg.Tracer)
	if cfg.Health.Enable {
		mon := NewHealthMonitor(cfg.Health, b, n.Program, n.Events)
		ipsecGroup := []packet.Addr{AddrIPSec}
		for i := range n.IPSecAlts {
			ipsecGroup = append(ipsecGroup, AddrIPSecAlt+packet.Addr(i))
		}
		dmaGroup := []packet.Addr{AddrDMA}
		for i := range n.DMAAlts {
			dmaGroup = append(dmaGroup, AddrDMAAlt+packet.Addr(i))
		}
		for _, a := range ipsecGroup {
			mon.SetStandbys(a, standbysFor(ipsecGroup, a))
		}
		for _, a := range dmaGroup {
			mon.SetStandbys(a, standbysFor(dmaGroup, a))
		}
		// Registered serial, after every tile: each check samples the
		// cycle's final state, and its probes and table rewrites touch
		// state owned by many tiles, so it must run after every Eval-phase
		// tick of the cycle. A serial ticker keeps no cycle live, so the
		// check cycles are declared to the kernel.
		b.Kernel.RegisterSerial(mon)
		b.Kernel.Due(mon.nextCheck)
		n.Monitor = mon
	}
	if cfg.FaultPlan != nil {
		if err := cfg.FaultPlan.Arm(b.Kernel, n.faultHooks()); err != nil {
			panic(fmt.Sprintf("core: arming fault plan: %v", err))
		}
	}
	// The tracer commits LAST: every staged sink registered above flushes
	// its deliveries (and their Deliver spans) before the tracer drains the
	// buffers, so a cycle's trace is complete when it reaches the stream.
	if cfg.Tracer != nil {
		b.Kernel.Register(cfg.Tracer)
	}
	// The invariant monitor observes the end-of-cycle barrier — after every
	// committer including the tracer, so its checks see the cycle's final,
	// fully drained state.
	if cfg.Invariants != nil {
		n.Invar = invariant.New(*cfg.Invariants)
		n.wireInvariants()
		n.Invar.Attach(b.Kernel)
	}
	return n
}

// poolUser is a source that builds its messages from a pool.
type poolUser interface {
	UsePool(p *packet.MessagePool)
}

// Terminal sink indices for LocSink span locations.
const (
	sinkHost uint32 = 0
	sinkWire uint32 = 1
)

// tracedSink wraps a StagedSink target with Deliver-span emission. Targets
// run in the sequential Commit phase, so every tracedSink can share the
// one "sinks" buffer without violating the single-writer rule.
type tracedSink struct {
	inner engine.Sink
	buf   *trace.Buffer
	loc   uint32
}

// Deliver implements engine.Sink.
func (s tracedSink) Deliver(m *packet.Message, now uint64) {
	if s.buf.Want(m.TraceID) {
		s.buf.Emit(trace.Span{
			Msg: m.TraceID, Kind: trace.KindDeliver,
			LocKind: trace.LocSink, Loc: s.loc,
			Start: now, End: now, B: uint64(m.WireLen()),
			Tenant: m.Tenant,
		})
	}
	s.inner.Deliver(m, now)
}

// tapSink gives a Config.RackTap first refusal on wire deliveries. Like
// tracedSink it runs in the sequential Commit phase.
type tapSink struct {
	tap   func(*packet.Message, uint64) bool
	inner engine.Sink
}

// Deliver implements engine.Sink.
func (s tapSink) Deliver(m *packet.Message, now uint64) {
	if s.tap(m, now) {
		return
	}
	s.inner.Deliver(m, now)
}

// standbysFor returns group minus self, preserving group order.
func standbysFor(group []packet.Addr, self packet.Addr) []packet.Addr {
	out := make([]packet.Addr, 0, len(group)-1)
	for _, a := range group {
		if a != self {
			out = append(out, a)
		}
	}
	return out
}

// Run advances the simulation by the given number of cycles.
func (n *NIC) Run(cycles uint64) { n.Builder.Kernel.Run(cycles) }

// Now returns the current cycle.
func (n *NIC) Now() uint64 { return n.Builder.Kernel.Now() }

// UseReference runs the NIC on the kernel's reference stepper from the
// next cycle on (see sim.Kernel.UseReference). Tests compare its result
// with the normal loop's, byte for byte.
func (n *NIC) UseReference() { n.Builder.Kernel.UseReference() }

// Close is a no-op: a NIC's kernel runs on its caller's goroutine and holds
// nothing to release. It stays so that callers tearing down a NIC and a
// Fleet (whose Close stops shard goroutines) can treat them alike.
func (n *NIC) Close() {}

// RunQuiet runs until no message has been delivered or dropped for
// idleWindow cycles, or until maxCycles elapse. It reports whether the NIC
// went quiet.
func (n *NIC) RunQuiet(idleWindow, maxCycles uint64) bool {
	activity := func() uint64 {
		return n.HostLat.Count + n.WireLat.Count + n.Drops.Value()
	}
	last := activity()
	lastChange := n.Now()
	for n.Now() < maxCycles {
		n.Run(idleWindow / 4)
		if a := activity(); a != last {
			last = a
			lastChange = n.Now()
		} else if n.Now()-lastChange >= idleWindow {
			return true
		}
	}
	return false
}

// Tile returns the tile hosting the given well-known engine address.
func (n *NIC) Tile(addr packet.Addr) *engine.Tile { return n.Builder.TileByAddr(addr) }

// RMTStats sums the RMT tiles' counters.
func (n *NIC) RMTStats() engine.RMTStats {
	var s engine.RMTStats
	for _, t := range n.Builder.RMTs {
		ts := t.Stats()
		s.Accepted += ts.Accepted
		s.Emitted += ts.Emitted
		s.Ejected += ts.Ejected
		s.Dropped += ts.Dropped
		s.Unrouted += ts.Unrouted
		s.StallCycles += ts.StallCycles
		s.QueueDropped += ts.QueueDropped
		s.Refused += ts.Refused
	}
	return s
}

// FlowCacheStats sums the RMT pipelines' flow-cache counters.
func (n *NIC) FlowCacheStats() rmt.FlowCacheStats {
	var s rmt.FlowCacheStats
	for _, t := range n.Builder.RMTs {
		fs := t.Pipeline().FlowCacheStats()
		s.Hits += fs.Hits
		s.Misses += fs.Misses
		s.NegHits += fs.NegHits
		s.Flushes += fs.Flushes
	}
	return s
}

// Summary renders a human-readable run report: the Snapshot's headline
// rows plus the KVS cache and IPSec engine counters.
func (n *NIC) Summary() string {
	s := n.Snapshot()
	t := stats.NewTable("metric", "value")
	t.AddRow("cycles", s.Cycle)
	t.AddRow("rx packets", s.RxPackets)
	t.AddRow("tx packets", s.TxPackets)
	t.AddRow("host deliveries", s.HostDeliveries)
	t.AddRow("wire deliveries", s.WireDeliveries)
	t.AddRow("sched drops", s.SchedDrops)
	t.AddRow("rmt drops", s.RMTDropped)
	t.AddRow("rmt passes", s.RMTAccepted)
	// A negative hit follows a miss, so hits+misses counts every lookup
	// that could have happened.
	if s.FlowCacheHits+s.FlowCacheMisses > 0 {
		t.AddRow("rmt flow-cache hit rate", fmt.Sprintf("%.1f%%", s.FlowCacheHitRate*100))
	}
	if s.WireDeliveries > 0 {
		t.AddRow("rtt p50 (ns)", s.RTTp50Ns)
		t.AddRow("rtt p99 (ns)", s.RTTp99Ns)
	}
	if s.HostDeliveries > 0 {
		t.AddRow("host-delivery p50 (ns)", s.HostP50Ns)
	}
	if s.Cycle > 0 {
		t.AddRow("wire goodput (Gbps)", s.WireGoodputGbps)
	}
	hits, misses, _ := n.Cache.Counts()
	t.AddRow("cache hits/misses", fmt.Sprintf("%d/%d", hits, misses))
	dec, enc := n.IPSec.Counts()
	t.AddRow("ipsec dec/enc", fmt.Sprintf("%d/%d", dec, enc))
	return t.String()
}

// TenantTotals sums per-tenant engine tallies across every offload tile.
func (n *NIC) TenantTotals() map[uint16]engine.TenantTally {
	out := make(map[uint16]engine.TenantTally)
	for _, tile := range n.Builder.Tiles {
		for id, ta := range tile.TenantStats() {
			sum := out[id]
			sum.Enqueued += ta.Enqueued
			sum.Processed += ta.Processed
			sum.ServiceCycles += ta.ServiceCycles
			sum.QueueWaitTotal += ta.QueueWaitTotal
			sum.Dropped += ta.Dropped
			out[id] = sum
		}
	}
	return out
}

// TenantReport renders per-tenant wire latency and aggregate engine
// occupancy — the isolation scoreboard: a victim's p99 and service share
// should hold steady as an aggressor ramps.
func (n *NIC) TenantReport() string {
	t := stats.NewTable("tenant", "wire count", "rtt p50 (ns)", "rtt p99 (ns)", "svc cycles", "enq", "dropped")
	for _, ts := range n.Snapshot().Tenants {
		p50, p99 := "-", "-"
		if ts.WireCount > 0 {
			p50 = fmt.Sprintf("%.0f", ts.RTTp50Ns)
			p99 = fmt.Sprintf("%.0f", ts.RTTp99Ns)
		}
		t.AddRow(fmt.Sprintf("%d", ts.Tenant), ts.WireCount, p50, p99, ts.ServiceCycles, ts.Enqueued, ts.Dropped)
	}
	return t.String()
}

// TileReport renders per-tile utilization, queueing, and drop statistics —
// the first place to look when a run shows unexpected latency.
func (n *NIC) TileReport() string {
	t := stats.NewTable("tile", "busy", "processed", "dropped", "stall", "mean qwait", "qlen")
	for _, tile := range n.Builder.Tiles {
		s := tile.Stats()
		t.AddRow(tile.Name(), s.BusyCycles, s.Processed, s.Dropped, s.StallCycles,
			fmt.Sprintf("%.1f", s.MeanQueueWait()), tile.QueueLen())
	}
	for i, r := range n.Builder.RMTs {
		s := r.Stats()
		t.AddRow(fmt.Sprintf("rmt%d", i), "-", s.Accepted, s.Dropped+s.QueueDropped+s.Refused, s.StallCycles, "-", r.QueueLen())
	}
	return t.String()
}

// clampY bounds a row index into the mesh.
func clampY(y, h int) int {
	if y < 0 {
		return 0
	}
	if y >= h {
		return h - 1
	}
	return y
}

// clampFree returns (x, y) if unoccupied, else the next free node.
func clampFree(b *Builder, x, y int) (int, int) {
	if !b.used[b.Mesh.NodeAt(x, y)] {
		return x, y
	}
	return b.NextFree()
}
