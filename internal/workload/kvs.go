package workload

import (
	"fmt"
	"math"

	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
)

// KVSTenantConfig parameterizes one tenant of the paper's geodistributed
// multi-tenant key-value store (§2.2).
type KVSTenantConfig struct {
	// Tenant is the tenant ID carried in the KVS header.
	Tenant uint16
	// Class tags the tenant's traffic for the scheduler.
	Class packet.Class
	// RateGbps and FreqHz set the offered load; Poisson arrivals when
	// Poisson is true, else CBR.
	RateGbps, FreqHz float64
	Poisson          bool
	// Keys is the tenant's key-space size; ZipfS the skew (>1; larger =
	// more skewed toward hot keys).
	Keys  uint64
	ZipfS float64
	// GetRatio is the fraction of requests that are GETs (rest are
	// SETs).
	GetRatio float64
	// WANShare is the fraction of requests arriving encrypted over the
	// WAN (IPSec ESP) — only those need the IPSec engine.
	WANShare float64
	// ValueBytes is the value size for SETs and cached GET responses.
	ValueBytes uint32
	// ClientNet selects the client subnet (requests come from
	// 10.ClientNet.x.y), which the RMT TX program maps back to an
	// Ethernet port. Use the port index the stream feeds.
	ClientNet byte
	// Count bounds the stream (0 = unlimited).
	Count uint64
	Seed  uint64
}

// KVSStream generates one tenant's request traffic.
type KVSStream struct {
	base
	cfg  KVSTenantConfig
	zipf *zipf
}

// NewKVSStream builds the stream. Requests are minimum-size frames (GETs)
// or value-sized frames (SETs); the request rate is derived from the mean
// frame size so the offered load matches RateGbps.
func NewKVSStream(cfg KVSTenantConfig) *KVSStream {
	if cfg.Keys == 0 {
		panic("workload: KVS tenant with empty key space")
	}
	if cfg.GetRatio < 0 || cfg.GetRatio > 1 || cfg.WANShare < 0 || cfg.WANShare > 1 {
		panic(fmt.Sprintf("workload: ratios out of range: get=%v wan=%v", cfg.GetRatio, cfg.WANShare))
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.07 // canonical YCSB-like skew
	}
	reqBytes := 64.0
	setBytes := 64.0 + float64(cfg.ValueBytes)
	meanFrame := cfg.GetRatio*reqBytes + (1-cfg.GetRatio)*setBytes
	interval := IntervalFor(int(meanFrame), cfg.RateGbps, cfg.FreqHz)
	var arr Arrival = CBR{Interval: interval}
	if cfg.Poisson {
		arr = Poisson{Mean: interval}
	}
	rng := sim.NewRNG(cfg.Seed)
	s := &KVSStream{
		base: newBase(cfg.Seed+1, arr, cfg.Count),
		cfg:  cfg,
		zipf: newZipf(rng, cfg.ZipfS, cfg.Keys),
	}
	return s
}

// Poll implements engine.Source.
func (s *KVSStream) Poll(now uint64) *packet.Message {
	if !s.due(now) {
		return nil
	}
	key := s.zipf.next()
	isGet := s.rng.Float64() < s.cfg.GetRatio
	op := packet.KVSGet
	var payload int
	var vlen uint32
	if !isGet {
		op = packet.KVSSet
		vlen = s.cfg.ValueBytes
		payload = int(vlen)
	}
	m := s.pool.KVS(payload,
		packet.Ethernet{Dst: packet.MAC{2, 0, 0, 0, 0, 2}, Src: packet.MAC{2, 0, 0, 0, 0, 1}, EtherType: packet.EtherTypeIPv4},
		packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP,
			Src: packet.IP4{10, s.cfg.ClientNet, byte(s.cfg.Tenant >> 8), byte(s.cfg.Tenant)}, Dst: packet.IP4{10, 255, 0, 2}},
		packet.UDP{SrcPort: 5000 + s.cfg.Tenant, DstPort: packet.KVSPort},
		packet.KVS{Op: op, Tenant: s.cfg.Tenant, Key: key, ValueLen: vlen},
	)
	m.ID = s.nextID
	m.Tenant = s.cfg.Tenant
	m.Class = s.cfg.Class
	if s.rng.Float64() < s.cfg.WANShare {
		wrapESP(s.pool, m)
	}
	return m
}

// wrapESP encapsulates a message for the WAN in an ESP shell from the
// pool: the plaintext packet is stashed in Inner (the IPSec engine swaps it
// back after decryption; see DESIGN.md for the substitution rationale). WAN
// clients live in 203.0.0.0/8 — both the tunnel endpoints and the inner
// source use it, so the TX program can recognize that replies must be
// re-encrypted.
func wrapESP(pool *packet.MessagePool, m *packet.Message) {
	inner := m.Pkt
	var src, dst packet.IP4
	if ip, ok := inner.Layer(packet.LayerTypeIPv4).(*packet.IPv4); ok {
		ip.Src[0] = 203 // remote client: replies need the WAN path
		src, dst = ip.Src, ip.Dst
		inner.Serialize()
	}
	ciphertext := inner.WireLen() - 14 + 12
	m.Encapsulate(pool.ESP(ciphertext,
		packet.Ethernet{Dst: packet.MAC{2, 0, 0, 0, 0, 2}, Src: packet.MAC{2, 0, 0, 0, 0, 3}, EtherType: packet.EtherTypeIPv4},
		packet.IPv4{TTL: 60, Protocol: packet.ProtoESP, Src: src, Dst: dst},
		packet.ESP{SPI: uint32(m.Tenant) + 1, Seq: uint32(m.ID)},
	))
}

// zipf draws keys with a Zipf(q) distribution over [0, imax] by rejection
// inversion (the algorithm behind math/rand's Zipf, reimplemented over the
// repository's deterministic RNG with v = 1): key k is drawn with
// probability proportional to 1/(1+k)^q.
type zipf struct {
	rng          *sim.RNG
	imax         float64
	q            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
	threshold    float64
}

func newZipf(rng *sim.RNG, q float64, n uint64) *zipf {
	if q <= 1 || n == 0 {
		panic("workload: zipf requires s > 1 and a non-empty key space")
	}
	z := &zipf{rng: rng, imax: float64(n - 1), q: q}
	z.oneminusQ = 1 - q
	z.oneminusQinv = 1 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - 1 - z.hxm // h(0.5) - exp(-q·log v), v=1
	z.threshold = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(2)))
	return z
}

func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(1+x)) * z.oneminusQinv
}

func (z *zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - 1
}

func (z *zipf) next() uint64 {
	for {
		r := z.rng.Float64()
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.threshold {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+1)*z.q) {
			return uint64(k)
		}
	}
}
