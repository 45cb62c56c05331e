// Package core assembles PANIC NICs: it places RMT engines, offload
// engines, Ethernet MACs, and the DMA/PCIe engines on the on-chip mesh
// (Figure 3c of the paper), installs the RMT steering program that
// computes offload chains and slack values, and exposes end-to-end
// latency/throughput measurement.
package core

import (
	"fmt"

	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/noc"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/rmt"
	"github.com/panic-nic/panic/internal/sim"
	"github.com/panic-nic/panic/internal/trace"
)

// Well-known engine addresses used by the canonical PANIC assembly and its
// RMT programs.
const (
	AddrRMTBase  packet.Addr = 1  // RMT pipeline i = AddrRMTBase + i
	AddrEthBase  packet.Addr = 16 // Ethernet port i = AddrEthBase + i
	AddrDMA      packet.Addr = 32
	AddrPCIe     packet.Addr = 33
	AddrIPSec    packet.Addr = 34
	AddrKVSCache packet.Addr = 35
	AddrRDMA     packet.Addr = 36
	AddrTxDMA    packet.Addr = 37
	AddrLSO      packet.Addr = 38
	AddrRateLim  packet.Addr = 39
	// Replica addresses for the self-healing control plane: IPSec replica i
	// is AddrIPSecAlt+i, DMA replica i is AddrDMAAlt+i (up to 4 each).
	AddrIPSecAlt packet.Addr = 40
	AddrDMAAlt   packet.Addr = 44
	AddrExtra    packet.Addr = 48 // first free address for extra offloads
	// AddrPuntBase is the first alias address the health monitor binds when
	// punting a failed engine's traffic to the host (each punt gets a fresh
	// alias so reintegration can rewrite it back unambiguously).
	AddrPuntBase packet.Addr = 64
)

// EngineAddrs maps canonical engine names to well-known addresses — the
// name table for fault plans (fault.ParsePlan) and CLI flags.
func EngineAddrs() map[string]packet.Addr {
	m := map[string]packet.Addr{
		"dma":       AddrDMA,
		"pcie":      AddrPCIe,
		"ipsec":     AddrIPSec,
		"kvscache":  AddrKVSCache,
		"cache":     AddrKVSCache,
		"rdma":      AddrRDMA,
		"txdma":     AddrTxDMA,
		"lso":       AddrLSO,
		"ratelimit": AddrRateLim,
	}
	for i := 0; i < 4; i++ {
		m[fmt.Sprintf("rmt%d", i)] = AddrRMTBase + packet.Addr(i)
		m[fmt.Sprintf("eth%d", i)] = AddrEthBase + packet.Addr(i)
		m[fmt.Sprintf("ipsec-alt%d", i)] = AddrIPSecAlt + packet.Addr(i)
		m[fmt.Sprintf("dma-alt%d", i)] = AddrDMAAlt + packet.Addr(i)
	}
	return m
}

// EngineName returns the canonical name for a well-known address, or its
// decimal form when unnamed.
func EngineName(addr packet.Addr) string {
	if addr == packet.AddrInvalid {
		return "-" // link faults carry no engine address
	}
	for name, a := range EngineAddrs() {
		if a == addr && name != "cache" { // prefer "kvscache" for 35
			return name
		}
	}
	return fmt.Sprintf("%d", addr)
}

// Builder places engines on a mesh and wires the shared route table. It is
// the low-level assembly API; NIC wraps it with the canonical layout.
type Builder struct {
	Kernel *sim.Kernel
	Mesh   *noc.Mesh
	Routes *engine.RouteTable
	rng    *sim.RNG
	used   map[noc.NodeID]bool
	// pool is the message pool every placed tile builds from and
	// releases to (see packet.MessagePool).
	pool *packet.MessagePool

	// Tracer, when set before placements, gives every placed tile a
	// private trace buffer (nil = tracing off, zero cost).
	Tracer *trace.Tracer

	Tiles []*engine.Tile
	RMTs  []*engine.RMTTile
}

// NewBuilder creates a builder with a fresh kernel and mesh.
func NewBuilder(freqHz float64, meshCfg noc.MeshConfig, seed uint64) *Builder {
	k := sim.NewKernel(sim.Frequency(freqHz))
	m := noc.NewMesh(meshCfg)
	m.RegisterWith(k)
	return &Builder{
		Kernel: k,
		Mesh:   m,
		Routes: engine.NewRouteTable(),
		rng:    sim.NewRNG(seed),
		used:   make(map[noc.NodeID]bool),
		pool:   packet.NewMessagePool(),
	}
}

// claim marks a mesh node used.
func (b *Builder) claim(x, y int) noc.NodeID {
	node := b.Mesh.NodeAt(x, y)
	if b.used[node] {
		panic(fmt.Sprintf("core: node (%d,%d) already occupied", x, y))
	}
	b.used[node] = true
	return node
}

// NextFree returns an unoccupied mesh node, scanning row-major. It panics
// when the mesh is full.
func (b *Builder) NextFree() (int, int) {
	cfg := b.Mesh.Config()
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			if !b.used[b.Mesh.NodeAt(x, y)] {
				return x, y
			}
		}
	}
	panic("core: mesh is full")
}

// PlaceTile puts an offload engine at (x, y) with the given config
// overrides applied.
func (b *Builder) PlaceTile(addr packet.Addr, x, y int, eng engine.Engine, opts ...func(*engine.TileConfig)) *engine.Tile {
	node := b.claim(x, y)
	b.Routes.Bind(addr, node)
	cfg := engine.TileConfig{Addr: addr, Node: node, QueueCap: 64}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.Trace = b.traceBuf(addr)
	t := engine.NewTile(cfg, eng, b.Mesh, b.Routes, b.rng.Fork())
	t.UsePool(b.pool)
	b.Kernel.Register(t)
	// Event-engine wiring, valid in both kernel modes: the mesh pokes the
	// tile about deliveries and injection credits, and the tile may sleep
	// between its self-scheduled wake cycles.
	poke := b.Kernel.PokerFor(t)
	b.Mesh.SetNodeWaker(node, poke)
	t.EnableEventSleep(poke, b.Kernel.Clock())
	b.Tiles = append(b.Tiles, t)
	return t
}

// PlaceRMT puts an RMT engine at (x, y).
func (b *Builder) PlaceRMT(addr packet.Addr, x, y int, pipe *rmt.Pipeline, opts ...func(*engine.TileConfig)) *engine.RMTTile {
	node := b.claim(x, y)
	b.Routes.Bind(addr, node)
	cfg := engine.TileConfig{Addr: addr, Node: node, QueueCap: 64}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.Trace = b.traceBuf(addr)
	t := engine.NewRMTTile(cfg, pipe, b.Mesh, b.Routes)
	t.UsePool(b.pool)
	b.Kernel.Register(t)
	b.Mesh.SetNodeWaker(node, b.Kernel.PokerFor(t))
	t.EnableEventSleep()
	b.RMTs = append(b.RMTs, t)
	return t
}

// traceBuf names the placed engine's trace location and allocates its
// private span buffer. Placement order fixes buffer-creation order, which
// fixes the trace stream's drain order (the determinism contract).
func (b *Builder) traceBuf(addr packet.Addr) *trace.Buffer {
	if b.Tracer == nil {
		return nil
	}
	name := EngineName(addr)
	b.Tracer.NameLoc(trace.LocEngine, uint32(addr), name)
	return b.Tracer.Buffer(name)
}

// TileByAddr returns the placed tile with the given address, or nil.
func (b *Builder) TileByAddr(addr packet.Addr) *engine.Tile {
	for _, t := range b.Tiles {
		if t.Addr() == addr {
			return t
		}
	}
	return nil
}
