package workload

import "github.com/panic-nic/panic/internal/packet"

// Source mirrors engine.Source locally to avoid an import cycle in tests;
// any generator in this package satisfies both.
type Source interface {
	Poll(now uint64) *packet.Message
}

// Merge interleaves several sources into one stream. Each Poll rotates the
// starting source so no tenant is structurally favored when multiple
// sources are due in the same cycle.
type Merge struct {
	srcs []Source
	next int
}

// NewMerge builds a merged source.
func NewMerge(srcs ...Source) *Merge {
	if len(srcs) == 0 {
		panic("workload: Merge of zero sources")
	}
	return &Merge{srcs: srcs}
}

// Poll implements engine.Source.
func (m *Merge) Poll(now uint64) *packet.Message {
	for i := 0; i < len(m.srcs); i++ {
		s := m.srcs[(m.next+i)%len(m.srcs)]
		if msg := s.Poll(now); msg != nil {
			m.next = (m.next + i + 1) % len(m.srcs)
			return msg
		}
	}
	return nil
}

// poolUser is a source that builds its messages from a pool.
type poolUser interface {
	UsePool(p *packet.MessagePool)
}

// UsePool hands the pool to every child that builds messages.
func (m *Merge) UsePool(p *packet.MessagePool) {
	for _, s := range m.srcs {
		if pu, ok := s.(poolUser); ok {
			pu.UsePool(p)
		}
	}
}

// arrivalReporter mirrors engine.ArrivalSource locally (same import-cycle
// dodge as Source above).
type arrivalReporter interface {
	NextArrival(now uint64) (uint64, bool)
}

// NextArrival implements engine.ArrivalSource as the minimum over the
// children. A child that cannot report pins the merge to "due now", which
// conservatively disables fast-forward rather than risking a missed poll.
func (m *Merge) NextArrival(now uint64) (uint64, bool) {
	var best uint64
	have := false
	for _, s := range m.srcs {
		ar, ok := s.(arrivalReporter)
		if !ok {
			return now, true
		}
		a, more := ar.NextArrival(now)
		if !more {
			continue
		}
		if !have || a < best {
			best, have = a, true
		}
	}
	return best, have
}

// TenantSpec describes one tenant's stream in an N-tenant mix. The zero
// value of the KVS knobs gets sensible defaults (1024 keys, 128 B values);
// GetRatio is taken literally (0 = all SETs).
type TenantSpec struct {
	// Tenant and Class tag the stream.
	Tenant uint16
	Class  packet.Class
	// RateGbps is the tenant's offered load (Poisson arrivals).
	RateGbps float64
	// GetRatio, WANShare, ValueBytes, and Keys parameterize the KVS
	// request stream (ignored when Bulk is set).
	GetRatio   float64
	WANShare   float64
	ValueBytes uint32
	Keys       uint64
	// Bulk switches the tenant to a fixed-size UDP stream of FrameBytes
	// frames (64 when zero) instead of KVS requests.
	Bulk       bool
	FrameBytes int
}

// counted is a source that reports how many messages it has produced.
type counted interface {
	Source
	Generated() uint64
}

// TenantMix interleaves N tenants' streams with per-tenant generation
// counts, for the multi-tenant isolation experiments. Streams are seeded
// seed, seed+1, ... in spec order, so the mix is deterministic.
type TenantMix struct {
	merged *Merge
	gens   map[uint16]counted
}

// NewTenantMix builds the mix.
func NewTenantMix(freqHz float64, specs []TenantSpec, seed uint64) *TenantMix {
	if len(specs) == 0 {
		panic("workload: tenant mix of zero specs")
	}
	m := &TenantMix{gens: make(map[uint16]counted, len(specs))}
	srcs := make([]Source, 0, len(specs))
	for i, sp := range specs {
		var src counted
		if sp.Bulk {
			frame := sp.FrameBytes
			if frame == 0 {
				frame = 64
			}
			src = NewFixedStream(FixedStreamConfig{
				FrameBytes: frame,
				RateGbps:   sp.RateGbps, FreqHz: freqHz, Poisson: true,
				Tenant: sp.Tenant, Class: sp.Class,
				Seed: seed + uint64(i),
			})
		} else {
			keys := sp.Keys
			if keys == 0 {
				keys = 1024
			}
			vb := sp.ValueBytes
			if vb == 0 {
				vb = 128
			}
			src = NewKVSStream(KVSTenantConfig{
				Tenant: sp.Tenant, Class: sp.Class,
				RateGbps: sp.RateGbps, FreqHz: freqHz, Poisson: true,
				Keys: keys, GetRatio: sp.GetRatio, WANShare: sp.WANShare,
				ValueBytes: vb,
				Seed:       seed + uint64(i),
			})
		}
		if _, dup := m.gens[sp.Tenant]; dup {
			panic("workload: tenant mix with duplicate tenant ID")
		}
		m.gens[sp.Tenant] = src
		srcs = append(srcs, src)
	}
	m.merged = NewMerge(srcs...)
	return m
}

// Poll implements engine.Source.
func (m *TenantMix) Poll(now uint64) *packet.Message { return m.merged.Poll(now) }

// UsePool hands the pool to every tenant's stream.
func (m *TenantMix) UsePool(p *packet.MessagePool) { m.merged.UsePool(p) }

// NextArrival implements engine.ArrivalSource.
func (m *TenantMix) NextArrival(now uint64) (uint64, bool) { return m.merged.NextArrival(now) }

// Generated returns how many messages the given tenant's stream produced
// (0 for tenants not in the mix).
func (m *TenantMix) Generated(tenant uint16) uint64 {
	if g, ok := m.gens[tenant]; ok {
		return g.Generated()
	}
	return 0
}

// NewAggressorVictimMix builds the two-tenant isolation workload: tenant 1
// is the victim (latency-class KVS GETs at a modest rate) and tenant 2 the
// aggressor (a bulk-class flood of 512 B frames at a saturating rate).
// Both streams converge on the DMA engine — the victim's cache misses and
// every aggressor frame need the host link — so when the aggressor
// oversubscribes PCIe, a standing queue forms exactly where the scheduler
// arbitrates. The victim's spec comes first, seeded with the mix seed
// itself, so its arrival process is byte-identical to a solo run built
// from the same seed and spec.
func NewAggressorVictimMix(freqHz, victimGbps, aggressorGbps float64, seed uint64) *TenantMix {
	return NewTenantMix(freqHz, []TenantSpec{
		VictimSpec(victimGbps),
		{Tenant: 2, Class: packet.ClassBulk, RateGbps: aggressorGbps, Bulk: true, FrameBytes: 512},
	}, seed)
}

// VictimSpec is the canonical victim tenant of the isolation experiments:
// tenant 1, latency class, all-GET key-value traffic at the given rate.
func VictimSpec(gbps float64) TenantSpec {
	return TenantSpec{Tenant: 1, Class: packet.ClassLatency, RateGbps: gbps, GetRatio: 1.0}
}

// IsolationMix is the §3.1.3 experiment workload: a low-rate
// latency-sensitive tenant sharing the NIC with a bulk-throughput tenant.
type IsolationMix struct {
	// Latency and Bulk are the two tenants' streams.
	Latency, Bulk Source
	merged        *Merge
}

// NewIsolationMix builds the canonical two-tenant blend. latencyGbps
// should be a small fraction of bulkGbps for the experiment to be
// interesting.
func NewIsolationMix(freqHz, latencyGbps, bulkGbps float64, bulkFrameBytes int, seed uint64) *IsolationMix {
	lat := NewKVSStream(KVSTenantConfig{
		Tenant: 1, Class: packet.ClassLatency,
		RateGbps: latencyGbps, FreqHz: freqHz, Poisson: true,
		Keys: 1024, GetRatio: 1.0, ValueBytes: 128,
		Seed: seed,
	})
	bulk := NewFixedStream(FixedStreamConfig{
		FrameBytes: bulkFrameBytes,
		RateGbps:   bulkGbps, FreqHz: freqHz,
		Tenant: 2, Class: packet.ClassBulk,
		Seed: seed + 1,
	})
	return &IsolationMix{Latency: lat, Bulk: bulk, merged: NewMerge(lat, bulk)}
}

// Poll implements engine.Source.
func (m *IsolationMix) Poll(now uint64) *packet.Message { return m.merged.Poll(now) }

// UsePool hands the pool to both tenants' streams.
func (m *IsolationMix) UsePool(p *packet.MessagePool) { m.merged.UsePool(p) }

// NextArrival implements engine.ArrivalSource.
func (m *IsolationMix) NextArrival(now uint64) (uint64, bool) { return m.merged.NextArrival(now) }
