package core

import (
	"fmt"
	"sort"
	"strings"
)

// Fingerprint reduces the NIC's current state to a byte-comparable string
// covering everything the experiments report: collector stats (counts,
// bytes, and full latency distributions), per-tile and per-tenant
// counters, fabric stats, the health/fault event log, and the current
// cycle. Two runs of the same configuration are correct exactly when
// their fingerprints are byte-identical; the determinism matrix (core and
// fleet) and the fleet-smoke CI job compare nothing else.
func (n *NIC) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d\n", n.Now())
	fmt.Fprintf(&b, "wire: n=%d bytes=%d mean=%.6f p50=%.1f p99=%.1f max=%.1f\n",
		n.WireLat.Count, n.WireLat.Bytes, n.WireLat.All.Mean(),
		n.WireLat.All.P50(), n.WireLat.All.P99(), n.WireLat.All.Max())
	fmt.Fprintf(&b, "host: n=%d bytes=%d mean=%.6f p50=%.1f p99=%.1f max=%.1f\n",
		n.HostLat.Count, n.HostLat.Bytes, n.HostLat.All.Mean(),
		n.HostLat.All.P50(), n.HostLat.All.P99(), n.HostLat.All.Max())
	tenants := make([]int, 0, len(n.WireLat.ByTenant))
	for tn := range n.WireLat.ByTenant {
		tenants = append(tenants, int(tn))
	}
	sort.Ints(tenants)
	for _, tn := range tenants {
		h := n.WireLat.ByTenant[uint16(tn)]
		fmt.Fprintf(&b, "wire tenant %d: n=%d mean=%.6f\n", tn, h.Count(), h.Mean())
	}
	fmt.Fprintf(&b, "drops=%d\n", n.Drops.Value())
	for _, tile := range n.Builder.Tiles {
		st := tile.Stats()
		fmt.Fprintf(&b, "tile %s: proc=%d busy=%d drop=%d emit=%d qwait=%d stall=%d fdrop=%d corr=%d drain=%d qlen=%d\n",
			tile.Name(), st.Processed, st.BusyCycles, st.Dropped, st.Emitted,
			st.QueueWaitTotal, st.StallCycles, st.FaultDropped, st.Corrupted, st.Drained, tile.QueueLen())
		tt := tile.TenantStats()
		ids := make([]int, 0, len(tt))
		for id := range tt {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		for _, id := range ids {
			ta := tt[uint16(id)]
			fmt.Fprintf(&b, "  tenant %d: enq=%d proc=%d svc=%d qwait=%d drop=%d\n",
				id, ta.Enqueued, ta.Processed, ta.ServiceCycles, ta.QueueWaitTotal, ta.Dropped)
		}
	}
	for i, r := range n.Builder.RMTs {
		st := r.Stats()
		fmt.Fprintf(&b, "rmt %d: acc=%d emit=%d drop=%d unrouted=%d stall=%d qdrop=%d\n",
			i, st.Accepted, st.Emitted, st.Dropped, st.Unrouted, st.StallCycles, st.QueueDropped)
	}
	ms := n.Builder.Mesh.Stats()
	fmt.Fprintf(&b, "mesh: inj=%d del=%d hops=%d lat=%d\n",
		ms.Injected, ms.Delivered, ms.FlitHops, ms.TotalLatency)
	for _, m := range n.MACs {
		fmt.Fprintf(&b, "mac %s: rx=%d tx=%d rxbits=%d txbits=%d\n",
			m.Name(), m.RxCount(), m.TxCount(), m.RxBits(), m.TxBits())
	}
	gets, sets := n.Host.Counts()
	fmt.Fprintf(&b, "host kvs: gets=%d sets=%d backlog=%d\n", gets, sets, n.Host.TxBacklog())
	b.WriteString("events:\n")
	b.WriteString(n.Events.String())
	return b.String()
}
