package workload

import (
	"fmt"

	"github.com/panic-nic/panic/internal/packet"
)

// RackServiceIP returns the KVS service address inside NIC n's rack
// subnet. The fleet's addressing convention is 172.N.0.0/16 per NIC: the
// service listens on 172.N.0.2, and clients attached to NIC N originate
// from 172.N.x.y. The RMT rack-forward tables (core.ProgramConfig
// RackForward) route on exactly these prefixes.
func RackServiceIP(nic int) packet.IP4 {
	return packet.IP4{172, byte(nic), 0, 2}
}

// RackClientIP returns the address a tenant's client uses when attached
// to NIC n (tenant bytes keep per-tenant flows distinct, mirroring the
// 10.net scheme of plain KVS streams).
func RackClientIP(nic int, tenant uint16) packet.IP4 {
	return packet.IP4{172, byte(nic), byte(tenant >> 8), byte(tenant)}
}

// RackKVSStream wraps a KVS request stream for a multi-NIC rack: every
// request is readdressed into the rack subnets — source
// 172.<local>.<tenant>, destination 172.<home>.0.2, where home is looked
// up per request through the Homes placement function. When the tenant is
// homed on another NIC, the local NIC's rack-forward program chains the
// request out the uplink and the fleet's ToR carries it over (and the
// response back); when homed locally it is served in place. Because the
// home is consulted at generation time, a placement change (tenant
// migration at a fleet barrier) redirects the stream's very next request.
//
// The inner stream must be plaintext (WANShare 0): rack transit bypasses
// the WAN IPSec path by design.
type RackKVSStream struct {
	inner    *KVSStream
	localNIC int
	homes    func(tenant uint16) int
}

// NewRackKVSStream builds the wrapper. localNIC is the NIC the stream's
// port belongs to; homes maps a tenant to its serving NIC and must only
// change while the fleet is stopped at an epoch barrier.
func NewRackKVSStream(cfg KVSTenantConfig, localNIC int, homes func(tenant uint16) int) *RackKVSStream {
	if cfg.WANShare != 0 {
		panic(fmt.Sprintf("workload: rack stream for tenant %d with WANShare %v (rack transit is plaintext)",
			cfg.Tenant, cfg.WANShare))
	}
	if homes == nil {
		panic("workload: rack stream needs a placement function")
	}
	return &RackKVSStream{inner: NewKVSStream(cfg), localNIC: localNIC, homes: homes}
}

// Poll implements engine.Source.
func (s *RackKVSStream) Poll(now uint64) *packet.Message {
	m := s.inner.Poll(now)
	if m == nil {
		return nil
	}
	if ip, ok := m.Pkt.Layer(packet.LayerTypeIPv4).(*packet.IPv4); ok {
		ip.Src = RackClientIP(s.localNIC, m.Tenant)
		ip.Dst = RackServiceIP(s.homes(m.Tenant))
		m.Pkt.Serialize()
	}
	return m
}

// UsePool hands the pool to the wrapped stream.
func (s *RackKVSStream) UsePool(p *packet.MessagePool) { s.inner.UsePool(p) }

// NextArrival implements engine.ArrivalSource.
func (s *RackKVSStream) NextArrival(now uint64) (uint64, bool) {
	return s.inner.NextArrival(now)
}

// Generated returns how many messages the source has produced.
func (s *RackKVSStream) Generated() uint64 { return s.inner.Generated() }
