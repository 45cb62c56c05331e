package core

import (
	"fmt"
	"slices"

	"github.com/panic-nic/panic/internal/fault"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/rmt"
)

// This file is the NIC's hot-reload and snapshot surface: the hooks the
// serve control plane (internal/serve) calls between kernel cycles to
// reconfigure a running NIC and to publish live metrics. Every mutation
// here reuses a mechanism that is already exercised mid-run by the health
// monitor or the fault scheduler — table mutations bump the program
// generation, so the RMT flow caches invalidate themselves on the next
// lookup — which is what keeps a reloaded run bit-identical to a run that
// was configured that way from the same cycle.
//
// Call discipline: none of these methods lock. They must run on the
// goroutine driving the kernel, strictly between Run calls (the serve
// loop's cycle-aligned barrier), never concurrently with a cycle.

// SetTenantWeights swaps the weighted-LSTF weight table on every
// scheduling queue and records the new table in Cfg.TenantWeights. Weights
// must be >= 1; a tenant absent from the map reverts to the scheduler's
// default weight. It fails when the NIC was built without TenantWeights
// (the tiles then rank with plain LSTF and have no weight state to swap).
func (n *NIC) SetTenantWeights(weights map[uint16]uint64) error {
	if len(n.wlstfs) == 0 {
		return fmt.Errorf("core: NIC has no weighted-LSTF scheduler (build it with Config.TenantWeights)")
	}
	for id, w := range weights {
		if w == 0 {
			return fmt.Errorf("core: tenant %d weight must be >= 1", id)
		}
	}
	for _, s := range n.wlstfs {
		s.SetWeights(weights)
	}
	cp := make(map[uint16]uint64, len(weights))
	for id, w := range weights {
		cp[id] = w
	}
	n.Cfg.TenantWeights = cp
	return nil
}

// TenantWeight returns the tenant's current effective scheduler weight
// (1 when the NIC has no weighted-LSTF scheduler).
func (n *NIC) TenantWeight(id uint16) uint64 {
	if len(n.wlstfs) == 0 {
		return 1
	}
	return n.wlstfs[0].Weight(id)
}

// InstallACLDrop installs a drop rule for the IPv4 source prefix into the
// steering program's ACL stage — the live DoS-shedding knob. The table
// mutation bumps the program generation, so every RMT flow cache discards
// decisions that predate the rule.
func (n *NIC) InstallACLDrop(srcPrefix uint64, prefixLen, priority int) error {
	if prefixLen < 0 || prefixLen > 32 {
		return fmt.Errorf("core: acl prefix length %d out of [0,32]", prefixLen)
	}
	InstallDropRule(n.Program, srcPrefix, prefixLen, priority)
	return nil
}

// ClearACL removes every installed ACL drop rule and returns how many were
// removed.
func (n *NIC) ClearACL() int {
	acl := n.Program.Stages[0][0]
	if acl.Name != "acl" {
		panic("core: program has no acl stage")
	}
	return acl.Clear()
}

// RewriteSteering repoints every chain hop targeting old at new across the
// steering program — the same primitive the health monitor uses for
// failover, exposed for operator-driven traffic moves (e.g. steering onto
// a hot-standby replica ahead of maintenance). Both addresses must resolve
// to placed tiles. Returns the number of hops rewritten.
func (n *NIC) RewriteSteering(old, new packet.Addr) (int, error) {
	if n.Builder.TileByAddr(old) == nil && !n.isRMTAddr(old) {
		return 0, fmt.Errorf("core: no tile at address %d", old)
	}
	if n.Builder.TileByAddr(new) == nil && !n.isRMTAddr(new) {
		return 0, fmt.Errorf("core: no tile at address %d", new)
	}
	return n.Program.RewriteEngine(old, new), nil
}

// RewriteSteeringTenant repoints chain hops targeting old at new in table
// entries pinned to the given tenant only — the tenant-scoped traffic
// move. Returns the number of hops rewritten.
func (n *NIC) RewriteSteeringTenant(old, new packet.Addr, tenant uint16) (int, error) {
	if n.Builder.TileByAddr(new) == nil && !n.isRMTAddr(new) {
		return 0, fmt.Errorf("core: no tile at address %d", new)
	}
	return n.Program.RewriteEngineTenant(old, new, rmt.FieldMetaTenant, uint64(tenant)), nil
}

func (n *NIC) isRMTAddr(a packet.Addr) bool {
	return a >= AddrRMTBase && a < AddrRMTBase+packet.Addr(n.Cfg.RMTPipelines)
}

// ProgramGeneration returns the steering program's mutation counter — the
// value flow caches compare against; it strictly increases with every
// reload that touched a table.
func (n *NIC) ProgramGeneration() uint64 { return n.Program.Generation() }

// faultHooks returns the hooks that connect a fault plan to this NIC's
// hardware and failure-event log (shared between NewNIC's arm-at-assembly
// path and live injection).
func (n *NIC) faultHooks() fault.Hooks {
	return fault.Hooks{
		Tile: n.Builder.TileByAddr,
		Mesh: n.Builder.Mesh,
		Observe: func(e fault.Event, cycle uint64) {
			kind := "fault-injected"
			if e.Kind == fault.Heal || e.Kind == fault.HealLink {
				kind = "fault-lifted"
			}
			link := e.Kind == fault.LinkDegrade || e.Kind == fault.LinkSever || e.Kind == fault.HealLink
			n.Events.Append(FailureEvent{Cycle: cycle, Kind: kind, Engine: e.Engine, Link: link, Detail: e.String()})
		},
	}
}

// InjectFaultPlan arms a fault plan onto the running NIC. Event cycles are
// absolute; every event must lie strictly after the current cycle (shift a
// relative plan with fault.Plan.Shifted first). Injections and the heals
// they schedule feed the failure-event log exactly like plans armed at
// assembly.
func (n *NIC) InjectFaultPlan(plan *fault.Plan) error {
	return plan.Arm(n.Builder.Kernel, n.faultHooks())
}

// TenantSnapshot is one tenant's row in a StatsSnapshot.
type TenantSnapshot struct {
	Tenant        uint16  `json:"tenant"`
	Weight        uint64  `json:"weight"`
	WireCount     uint64  `json:"wire_count"`
	RTTp50Ns      float64 `json:"rtt_p50_ns"`
	RTTp99Ns      float64 `json:"rtt_p99_ns"`
	ServiceCycles uint64  `json:"service_cycles"`
	Enqueued      uint64  `json:"enqueued"`
	Dropped       uint64  `json:"dropped"`
}

// QueueSnapshot is one engine queue's depth row in a StatsSnapshot.
type QueueSnapshot struct {
	Tile  string `json:"tile"`
	Depth int    `json:"depth"`
}

// StatsSnapshot is a point-in-time copy of the NIC's live metrics, safe to
// serialize after the simulation has moved on. Built by Snapshot on the
// kernel-driving goroutine; contains no pointers into live state.
type StatsSnapshot struct {
	Cycle          uint64  `json:"cycle"`
	FreqHz         float64 `json:"freq_hz"`
	RxPackets      uint64  `json:"rx_packets"`
	TxPackets      uint64  `json:"tx_packets"`
	HostDeliveries uint64  `json:"host_deliveries"`
	WireDeliveries uint64  `json:"wire_deliveries"`
	SchedDrops     uint64  `json:"sched_drops"`

	RTTp50Ns          float64 `json:"rtt_p50_ns"`
	RTTp99Ns          float64 `json:"rtt_p99_ns"`
	HostP50Ns         float64 `json:"host_p50_ns"`
	WireGoodputGbps   float64 `json:"wire_goodput_gbps"`
	ThroughputMsgsSec float64 `json:"throughput_msgs_per_sim_sec"`

	RMTAccepted      uint64  `json:"rmt_accepted"`
	RMTDropped       uint64  `json:"rmt_dropped"`
	RMTStallCycles   uint64  `json:"rmt_stall_cycles"`
	FlowCacheHits    uint64  `json:"flow_cache_hits"`
	FlowCacheMisses  uint64  `json:"flow_cache_misses"`
	FlowCacheHitRate float64 `json:"flow_cache_hit_rate"`

	ProgramGeneration uint64 `json:"program_generation"`
	FailureEvents     int    `json:"failure_events"`

	Queues  []QueueSnapshot  `json:"queues"`
	Tenants []TenantSnapshot `json:"tenants"`
}

// Snapshot captures the NIC's live metrics. Like every hook in this file
// it must run on the kernel-driving goroutine between cycles; the returned
// value is then safe to hand to any other goroutine.
func (n *NIC) Snapshot() StatsSnapshot {
	freq := n.Cfg.FreqHz
	cycle := n.Now()
	ns := func(c float64) float64 { return c / freq * 1e9 }
	s := StatsSnapshot{
		Cycle:          cycle,
		FreqHz:         freq,
		HostDeliveries: n.HostLat.Count,
		WireDeliveries: n.WireLat.Count,
		SchedDrops:     n.Drops.Value(),

		ProgramGeneration: n.ProgramGeneration(),
		FailureEvents:     len(n.Events.Events()),
	}
	for _, m := range n.MACs {
		s.RxPackets += m.RxCount()
		s.TxPackets += m.TxCount()
	}
	if n.WireLat.Count > 0 {
		s.RTTp50Ns = ns(n.WireLat.All.P50())
		s.RTTp99Ns = ns(n.WireLat.All.P99())
	}
	if n.HostLat.Count > 0 {
		s.HostP50Ns = ns(n.HostLat.All.P50())
	}
	if cycle > 0 {
		seconds := float64(cycle) / freq
		s.WireGoodputGbps = float64(n.WireLat.Bytes) * 8 / seconds / 1e9
		s.ThroughputMsgsSec = float64(n.HostLat.Count+n.WireLat.Count) / seconds
	}
	rs := n.RMTStats()
	s.RMTAccepted = rs.Accepted
	s.RMTDropped = rs.Dropped + rs.QueueDropped + rs.Refused
	s.RMTStallCycles = rs.StallCycles
	fc := n.FlowCacheStats()
	s.FlowCacheHits = fc.Hits
	s.FlowCacheMisses = fc.Misses
	if fc.Hits+fc.Misses+fc.NegHits > 0 {
		s.FlowCacheHitRate = fc.HitRate()
	}
	for _, tile := range n.Builder.Tiles {
		s.Queues = append(s.Queues, QueueSnapshot{Tile: tile.Name(), Depth: tile.QueueLen()})
	}
	for i, r := range n.Builder.RMTs {
		s.Queues = append(s.Queues, QueueSnapshot{Tile: fmt.Sprintf("rmt%d", i), Depth: r.QueueLen()})
	}

	totals := n.TenantTotals()
	ids := make([]uint16, 0, len(totals))
	for id := range totals {
		ids = append(ids, id)
	}
	for id := range n.WireLat.ByTenant {
		if _, ok := totals[id]; !ok {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		ta := totals[id]
		ts := TenantSnapshot{
			Tenant: id, Weight: n.TenantWeight(id),
			ServiceCycles: ta.ServiceCycles,
			Enqueued:      ta.Enqueued,
			Dropped:       ta.Dropped,
		}
		// A tenant with no wire deliveries has no histogram; its row keeps
		// zero wire figures.
		if h := n.WireLat.ByTenant[id]; h != nil {
			ts.WireCount = uint64(h.Count())
			ts.RTTp50Ns = ns(h.P50())
			ts.RTTp99Ns = ns(h.P99())
		}
		s.Tenants = append(s.Tenants, ts)
	}
	return s
}
