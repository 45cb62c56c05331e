package noc

import "fmt"

// This file is the mesh's contribution to the runtime invariant monitor
// (internal/invariant): custody accounting over the mesh's lifetime
// occupancy counters, cross-checked against the actual buffer occupancy of
// every router. The audits are read-only and meant to run at the kernel's end-of-cycle barrier, when all staged FIFO
// state is committed (Len is exact, Pending == Len).

// InFlight returns the number of messages currently inside the fabric:
// injected by a tile but not yet handed back out of TryEject.
func (m *Mesh) InFlight() uint64 {
	in, out := m.OccCounts()
	return in - out
}

// OccCounts returns the lifetime totals of messages injected into and
// ejected from the mesh. They are never reset, so the boundary
// cross-check "every tile emission is a mesh injection" holds over whole
// runs: sum of tile Emitted counters == in, sum of tile Ejected counters
// == out.
func (m *Mesh) OccCounts() (in, out uint64) { return m.occIn, m.occOut }

// AuditConservation checks message custody inside the fabric and returns
// the first violation found:
//
//   - occIn >= occOut globally (a message cannot leave before it entered);
//   - the per-router ejection counters sum to the mesh total, and the
//     eject queues hold exactly the mesh's parked count;
//   - per router, delivered − occOut == eject-queue occupancy (every
//     assembled message is either parked awaiting its tile or already
//     ejected) — skipped after ResetStats, which zeroes delivered;
//   - in-flight >= the whole messages visibly buffered (injection queues,
//     partial reassemblies, eject queues) — the remainder is flits in
//     transit. A message mid-serialization at its source lane is not
//     counted: its head flit is already in the network and may already
//     occupy the destination's assembly slot, so counting the source lane
//     too would double-count it;
//   - in-flight == 0 implies every buffer in the mesh is empty.
//
// Call it only between cycles (e.g. from sim.Kernel.ObserveCycleEnd);
// mid-cycle the staged FIFO state makes Len undefined.
func (m *Mesh) AuditConservation() error {
	in, out := m.occIn, m.occOut
	var routerOut, buffered, parked uint64
	for _, r := range m.routers {
		routerOut += r.stats.occOut
		parked += uint64(r.ejectQ.Len())
		if !m.statsReset && r.stats.delivered-r.stats.occOut != uint64(r.ejectQ.Len()) {
			return fmt.Errorf("noc: router %d delivered %d - ejected %d != eject queue occupancy %d",
				r.id, r.stats.delivered, r.stats.occOut, r.ejectQ.Len())
		}
		buffered += uint64(r.ejectQ.Len())
		for v := range r.inj.lanes {
			buffered += uint64(r.inj.lanes[v].q.Len())
		}
		for v := range r.assembly {
			if r.assembly[v].msg != nil {
				buffered++
			}
		}
	}
	if routerOut != out {
		return fmt.Errorf("noc: routers ejected %d messages, mesh total is %d", routerOut, out)
	}
	if parked != uint64(m.parked) {
		return fmt.Errorf("noc: eject queues hold %d messages, mesh parked count is %d", parked, m.parked)
	}
	if in < out {
		return fmt.Errorf("noc: ejected %d messages but only %d were injected", out, in)
	}
	inFlight := in - out
	if inFlight < buffered {
		return fmt.Errorf("noc: in-flight %d < visibly buffered %d (occupancy counters undercount)",
			inFlight, buffered)
	}
	if inFlight == 0 {
		for _, r := range m.routers {
			for p := range r.in {
				for _, q := range r.in[p] {
					if q != nil && q.Len() != 0 {
						return fmt.Errorf("noc: router %d holds %d flits while mesh reports empty",
							r.id, q.Len())
					}
				}
			}
		}
	}
	return nil
}

// NodeLinkFaulted reports whether any mesh link adjacent to n — incoming
// or outgoing, any direction — carries an injected fault. The health
// control plane reads it as a fabric health register when vetting
// failover targets: a replica behind a severed or degraded link is not a
// safe reroute destination even when the tile itself is healthy.
func (m *Mesh) NodeLinkFaulted(n NodeID) bool {
	r := m.routers[n]
	for p := portNorth; p < numPorts; p++ {
		nb := r.neighbor[p]
		if nb == nil {
			continue
		}
		if !r.linkFault[p].Clean() {
			return true
		}
		if !nb.linkFault[m.portToward(nb.id, n)].Clean() {
			return true
		}
	}
	return false
}
