// Package fleet simulates the rack, not just the NIC: N independent PANIC
// NIC instances joined by a modeled top-of-rack switch, with tenant-to-NIC
// placement, cross-NIC request/response traffic, fleet-wide fault plans,
// and tenant migration between NICs.
//
// # Execution model
//
// Each NIC keeps its own cycle-accurate kernel. The fleet advances all of
// them in epochs of at most the ToR latency L, sharded across goroutines
// by sim.EpochSet. Inside an epoch the NICs share nothing: cross-NIC
// frames are diverted at wire egress into per-NIC buffers (single writer
// each) by core.Config.RackTap, and only the barrier moves them — through
// the ToR cost model, into the destination NIC's uplink arrival queue.
// The conservative-lookahead argument makes this exact, not approximate:
// a frame egressing at cycle c inside epoch [s, s+E) arrives at c+L >=
// s+E, i.e. never before the next epoch begins, so no shard can ever need
// a message another shard has not yet produced. Because the barrier
// processes NICs in canonical order (0..N-1, buffers in append order,
// batches stable-sorted by arrival cycle), the simulation is
// byte-identical for ANY shard count, and on the kernel's reference
// stepper (Fleet.UseReference).
package fleet

import (
	"fmt"
	"sort"
	"strings"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/fault"
	"github.com/panic-nic/panic/internal/invariant"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
	"github.com/panic-nic/panic/internal/trace"
	"github.com/panic-nic/panic/internal/workload"
)

// TenantSpec places one tenant's workload in the rack: its requests
// originate at NIC Client and are served by NIC Home. When the two
// differ, every request crosses the ToR (and its response crosses back);
// when equal, the tenant is purely NIC-local.
type TenantSpec struct {
	Tenant   uint16
	Home     int
	Client   int
	Class    packet.Class
	RateGbps float64
	Keys     uint64
	GetRatio float64
	// ValueBytes sizes SET payloads and cached GET responses.
	ValueBytes uint32
	// Count bounds the stream (0 = unlimited).
	Count   uint64
	Poisson bool
	// Seed drives the stream (0 derives one from the fleet seed and the
	// tenant id).
	Seed uint64
}

// Migration moves a tenant's serving home to another NIC at the first
// epoch barrier at or after Cycle. New requests from every client NIC
// re-route immediately (placement is consulted per generated request);
// requests already in flight drain at the old home, whose chain tables
// keep serving the tenant.
type Migration struct {
	Cycle  uint64
	Tenant uint16
	To     int
}

// Config parameterizes a fleet.
type Config struct {
	// NICs is the rack size (1..200; subnet 172.N/16 addresses NIC N).
	NICs int
	// TorLatency is the inter-NIC one-way latency in cycles and the
	// epoch length (the conservative lookahead). 0 means 64.
	TorLatency uint64
	// Shards is the number of goroutines NICs are sharded across (NIC i
	// runs on shard i%Shards). 0 or 1 is fully sequential. The result is
	// byte-identical for every value.
	Shards int
	// TorGbps caps the switch fabric's aggregate bandwidth (0 =
	// unlimited); frames beyond an epoch's budget are dropped and
	// counted.
	TorGbps float64
	// NIC is the per-NIC configuration template. The fleet overrides,
	// per instance: Seed (template seed + NIC id), Program rack-forward
	// routing, Tenants (every fleet tenant, so any NIC can serve a
	// migrated tenant), RackTap, FaultPlan, Invariants, and Tracer.
	NIC core.Config
	// Tenants is the rack's workload placement.
	Tenants []TenantSpec
	// Migrations is the tenant re-homing schedule.
	Migrations []Migration
	// FaultPlans maps NIC id -> fault plan (reusing internal/fault), the
	// fleet-wide fault surface.
	FaultPlans map[int]*fault.Plan
	// Trace attaches a per-NIC tracer (NIC-id span dimension) sampling
	// one message in TraceSample.
	Trace       bool
	TraceSample uint64
	// Invariants arms both the per-NIC monitors and the fleet-level ToR
	// conservation check.
	Invariants *invariant.Config
}

// Fleet is an assembled rack.
type Fleet struct {
	Cfg     Config
	NICs    []*core.NIC
	Tracers []*trace.Tracer
	// Monitor is the fleet-level invariant monitor (nil unless
	// Cfg.Invariants); it runs at every epoch barrier.
	Monitor *invariant.Monitor
	// Oplog records fleet control-plane actions (migrations), one line
	// each, in apply order.
	Oplog []string

	set        *sim.EpochSet
	tor        *tor
	uplinks    []*uplink
	egress     [][]*packet.Message
	placement  map[uint16]int
	migrations []Migration // sorted by cycle, unapplied suffix
	now        uint64
}

// New assembles the rack. It panics on configuration errors (mirroring
// core.NewNIC).
func New(cfg Config) *Fleet {
	if cfg.NICs < 1 || cfg.NICs > 200 {
		panic(fmt.Sprintf("fleet: %d NICs out of range [1,200]", cfg.NICs))
	}
	if cfg.TorLatency == 0 {
		cfg.TorLatency = 64
	}
	if cfg.NIC.FreqHz == 0 {
		cfg.NIC = core.DefaultConfig()
	}
	if cfg.NIC.Ports < 2 {
		panic("fleet: the NIC template needs >= 2 ports (client side + ToR uplink)")
	}
	uplinkPort := cfg.NIC.Ports - 1

	f := &Fleet{
		Cfg:       cfg,
		tor:       &tor{latency: cfg.TorLatency},
		placement: make(map[uint16]int, len(cfg.Tenants)),
		egress:    make([][]*packet.Message, cfg.NICs),
	}
	if cfg.TorGbps > 0 {
		freq := cfg.NIC.FreqHz
		f.tor.budgetFn = func(epochCycles uint64) float64 {
			return cfg.TorGbps * 1e9 * float64(epochCycles) / freq
		}
	}

	allTenants := make([]uint16, 0, len(cfg.Tenants))
	for _, spec := range cfg.Tenants {
		if spec.Home < 0 || spec.Home >= cfg.NICs || spec.Client < 0 || spec.Client >= cfg.NICs {
			panic(fmt.Sprintf("fleet: tenant %d placed on NIC %d/%d in a %d-NIC rack",
				spec.Tenant, spec.Home, spec.Client, cfg.NICs))
		}
		if _, dup := f.placement[spec.Tenant]; dup {
			panic(fmt.Sprintf("fleet: tenant %d specified twice", spec.Tenant))
		}
		f.placement[spec.Tenant] = spec.Home
		allTenants = append(allTenants, spec.Tenant)
	}
	sort.Slice(allTenants, func(i, j int) bool { return allTenants[i] < allTenants[j] })
	homes := func(t uint16) int { return f.placement[t] }

	f.migrations = append(f.migrations, cfg.Migrations...)
	sort.SliceStable(f.migrations, func(i, j int) bool { return f.migrations[i].Cycle < f.migrations[j].Cycle })
	for _, m := range f.migrations {
		if m.To < 0 || m.To >= cfg.NICs {
			panic(fmt.Sprintf("fleet: migration of tenant %d to NIC %d in a %d-NIC rack", m.Tenant, m.To, cfg.NICs))
		}
		if _, known := f.placement[m.Tenant]; !known {
			panic(fmt.Sprintf("fleet: migration of unknown tenant %d", m.Tenant))
		}
	}

	kernels := make([]*sim.Kernel, 0, cfg.NICs)
	for id := 0; id < cfg.NICs; id++ {
		c := cfg.NIC
		c.Seed = cfg.NIC.Seed + uint64(id)
		c.Program.RackForward = true
		c.Program.RackLocalNIC = id
		c.Program.RackUplinkPort = uplinkPort
		c.Program.RackClientPort = 0
		c.Tenants = allTenants
		c.FaultPlan = cfg.FaultPlans[id]
		c.Invariants = cfg.Invariants
		c.RackTap = f.tapFor(id)
		if cfg.Trace {
			tr := trace.New(trace.Options{FreqHz: c.FreqHz, Sample: cfg.TraceSample, NIC: id})
			c.Tracer = tr
			f.Tracers = append(f.Tracers, tr)
		}

		// Port 0 carries the NIC's attached clients (every tenant whose
		// Client is this NIC, merged in spec order); the last port is the
		// ToR uplink.
		var clients []workload.Source
		for _, spec := range cfg.Tenants {
			if spec.Client != id {
				continue
			}
			seed := spec.Seed
			if seed == 0 {
				seed = cfg.NIC.Seed*7919 + uint64(spec.Tenant)*127 + 13
			}
			clients = append(clients, workload.NewRackKVSStream(workload.KVSTenantConfig{
				Tenant: spec.Tenant, Class: spec.Class,
				RateGbps: spec.RateGbps, FreqHz: c.FreqHz, Poisson: spec.Poisson,
				Keys: spec.Keys, GetRatio: spec.GetRatio, ValueBytes: spec.ValueBytes,
				Count: spec.Count, Seed: seed,
			}, id, homes))
		}
		up := &uplink{}
		f.uplinks = append(f.uplinks, up)
		srcs := make([]engine.Source, cfg.NIC.Ports)
		if len(clients) == 1 {
			srcs[0] = clients[0]
		} else if len(clients) > 1 {
			srcs[0] = workload.NewMerge(clients...)
		}
		srcs[uplinkPort] = up

		nic := core.NewNIC(c, srcs)
		f.NICs = append(f.NICs, nic)
		kernels = append(kernels, nic.Builder.Kernel)
	}
	f.set = sim.NewEpochSet(kernels, cfg.Shards)

	if cfg.Invariants != nil {
		f.Monitor = invariant.New(*cfg.Invariants)
		f.Monitor.AddCheck("tor-conservation", func(cycle uint64) error {
			s := f.TorStats()
			if s.Forwarded != s.Injected+s.Dropped {
				return fmt.Errorf("fabric leak: forwarded=%d != injected=%d + dropped=%d",
					s.Forwarded, s.Injected, s.Dropped)
			}
			if s.Injected != s.Emitted+s.Pending {
				return fmt.Errorf("uplink leak: injected=%d != emitted=%d + pending=%d",
					s.Injected, s.Emitted, s.Pending)
			}
			return nil
		})
	}
	return f
}

// tapFor builds NIC id's egress tap: frames addressed to another NIC's
// rack subnet are diverted into this NIC's egress buffer (single writer
// during an epoch — the tap runs in the NIC's own Commit phase).
func (f *Fleet) tapFor(id int) func(*packet.Message, uint64) bool {
	return func(m *packet.Message, _ uint64) bool {
		ip, ok := m.Pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4)
		if !ok || ip.Dst[0] != 172 {
			return false
		}
		dst := int(ip.Dst[1])
		if dst == id || dst >= len(f.NICs) {
			// Own subnet (final client delivery) or a stray address:
			// deliver locally.
			return false
		}
		f.egress[id] = append(f.egress[id], m)
		return true
	}
}

// Run advances the whole rack by cycles, stopping at every epoch barrier
// to exchange cross-NIC traffic, apply due migrations, and run the
// fleet-level invariant checks.
func (f *Fleet) Run(cycles uint64) {
	end := f.now + cycles
	for f.now < end {
		f.applyMigrations()
		epoch := f.Cfg.TorLatency
		if f.now+epoch > end {
			epoch = end - f.now
		}
		f.set.Run(epoch)
		f.now += epoch
		f.tor.exchange(f.egress, f.uplinks, epoch)
		if f.Monitor != nil {
			f.Monitor.RunNow(f.now)
		}
	}
	f.applyMigrations()
}

// UseReference runs every NIC on the kernel's reference stepper from the
// next cycle on (see core.NIC.UseReference).
func (f *Fleet) UseReference() {
	for _, n := range f.NICs {
		n.UseReference()
	}
}

// applyMigrations applies every migration due at or before now. Placement
// changes only here — at a barrier, while no shard is running — so
// workload placement lookups never race and every shard count sees the
// same homes for the same epoch.
func (f *Fleet) applyMigrations() {
	for len(f.migrations) > 0 && f.migrations[0].Cycle <= f.now {
		m := f.migrations[0]
		f.migrations = f.migrations[1:]
		from := f.placement[m.Tenant]
		f.placement[m.Tenant] = m.To
		f.Oplog = append(f.Oplog,
			fmt.Sprintf("cycle=%d migrate tenant=%d home %d->%d", f.now, m.Tenant, from, m.To))
	}
}

// ScheduleMigration queues a tenant re-homing for the first barrier at or
// after cycle. Call between Run calls.
func (f *Fleet) ScheduleMigration(cycle uint64, tenant uint16, to int) error {
	if _, known := f.placement[tenant]; !known {
		return fmt.Errorf("fleet: unknown tenant %d", tenant)
	}
	if to < 0 || to >= len(f.NICs) {
		return fmt.Errorf("fleet: NIC %d out of range", to)
	}
	f.migrations = append(f.migrations, Migration{Cycle: cycle, Tenant: tenant, To: to})
	sort.SliceStable(f.migrations, func(i, j int) bool { return f.migrations[i].Cycle < f.migrations[j].Cycle })
	return nil
}

// Home returns a tenant's current serving NIC.
func (f *Fleet) Home(tenant uint16) (int, bool) {
	h, ok := f.placement[tenant]
	return h, ok
}

// Now returns the fleet clock (every NIC's kernel agrees at barriers).
func (f *Fleet) Now() uint64 { return f.now }

// TorStats returns the ToR conservation ledger.
func (f *Fleet) TorStats() TorStats { return f.tor.stats(f.uplinks) }

// Delivered sums terminal deliveries (wire + host) across the rack — the
// fleet-aggregate throughput numerator.
func (f *Fleet) Delivered() uint64 {
	var n uint64
	for _, nic := range f.NICs {
		n += nic.WireLat.Count + nic.HostLat.Count
	}
	return n
}

// Violations collects invariant violations from the fleet monitor and
// every per-NIC monitor, in canonical order.
func (f *Fleet) Violations() []invariant.Violation {
	var out []invariant.Violation
	if f.Monitor != nil {
		out = append(out, f.Monitor.Violations()...)
	}
	for _, nic := range f.NICs {
		if nic.Invar != nil {
			out = append(out, nic.Invar.Violations()...)
		}
	}
	return out
}

// Close releases the shard goroutines and every kernel's worker pool.
func (f *Fleet) Close() { f.set.Shutdown() }

// Fingerprint reduces the rack to one byte-comparable string: the ToR
// ledger, the fleet oplog, every NIC's full core fingerprint, and — when
// tracing — every NIC's exact span stream. Two runs of the same fleet
// configuration must produce identical fingerprints regardless of shard
// count or the reference stepper; the determinism tests and the
// fleet-smoke CI job compare nothing else.
func (f *Fleet) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: nics=%d torlat=%d shards-independent now=%d\n",
		len(f.NICs), f.Cfg.TorLatency, f.now)
	s := f.TorStats()
	fmt.Fprintf(&b, "tor: forwarded=%d injected=%d emitted=%d pending=%d dropped=%d\n",
		s.Forwarded, s.Injected, s.Emitted, s.Pending, s.Dropped)
	b.WriteString("oplog:\n")
	for _, line := range f.Oplog {
		b.WriteString("  " + line + "\n")
	}
	for id, nic := range f.NICs {
		fmt.Fprintf(&b, "=== nic %d ===\n", id)
		b.WriteString(nic.Fingerprint())
		if f.Tracers != nil {
			set := f.Tracers[id].Snapshot()
			fmt.Fprintf(&b, "trace: nic=%d spans=%d dropped=%d\n", set.NIC, len(set.Spans), set.Dropped)
			if err := set.WriteChrome(&b); err != nil {
				fmt.Fprintf(&b, "trace export error: %v\n", err)
			}
		}
	}
	return b.String()
}

// Summary renders a human-readable fleet report.
func (f *Fleet) Summary() string {
	var b strings.Builder
	s := f.TorStats()
	fmt.Fprintf(&b, "fleet: %d NICs, ToR latency %d cycles, %d shards\n",
		len(f.NICs), f.Cfg.TorLatency, f.set.Shards())
	fmt.Fprintf(&b, "tor: forwarded=%d delivered=%d pending=%d dropped=%d\n",
		s.Forwarded, s.Emitted, s.Pending, s.Dropped)
	for _, line := range f.Oplog {
		b.WriteString("oplog: " + line + "\n")
	}
	for id, nic := range f.NICs {
		fmt.Fprintf(&b, "nic %d: wire=%d host=%d drops=%d\n",
			id, nic.WireLat.Count, nic.HostLat.Count, nic.Drops.Value())
	}
	fmt.Fprintf(&b, "deliveries total: %d\n", f.Delivered())
	if n := len(f.Violations()); n > 0 {
		fmt.Fprintf(&b, "INVARIANT VIOLATIONS: %d\n", n)
	}
	return b.String()
}
