// Package bench regenerates every table and figure of the paper as Go
// benchmarks. Each benchmark simulates a fixed window per iteration and
// reports the paper's metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper's evaluation reports. The
// experiment index lives in DESIGN.md; measured-vs-paper numbers are
// recorded in EXPERIMENTS.md.
package bench

import (
	"strconv"
	"testing"

	"github.com/panic-nic/panic/internal/analytic"
	"github.com/panic-nic/panic/internal/baseline"
	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/noc"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/rmt"
	"github.com/panic-nic/panic/internal/sim"
	"github.com/panic-nic/panic/internal/workload"
)

const freq = 500e6

// BenchmarkTable2 — Table 2: packets per second needed for line rate, and
// whether the paper's RMT configuration (two parallel pipelines at 500 MHz,
// one packet per cycle each) covers it. Reported metrics per row:
// required_Mpps (analytic), rmt_Mpps (measured service rate of the
// simulated pipelines), and passes_budget (rmt/required, §4.2).
func BenchmarkTable2(b *testing.B) {
	for _, row := range table2Rows {
		b.Run(row.name, func(b *testing.B) {
			required := analytic.MinPPS(row.rate, row.ports)
			var measured float64
			for i := 0; i < b.N; i++ {
				measured = measureRMTServiceRate(rmtPipelines, table2Cycles)
			}
			b.ReportMetric(required/1e6, "required_Mpps")
			b.ReportMetric(measured/1e6, "rmt_Mpps")
			b.ReportMetric(measured/required, "passes_budget")
		})
	}
}

// table2Rows are Table 2's line-rate configurations.
var table2Rows = []struct {
	name  string
	rate  float64
	ports int
}{
	{"40Gx2", 40, 2},
	{"40Gx4", 40, 4},
	{"100Gx1", 100, 1},
	{"100Gx2", 100, 2},
}

const (
	rmtPipelines = 2 // the paper's RMT configuration, at 500 MHz
	table2Cycles = 100_000
)

// measureRMTServiceRate drives P pipelines at full offered load for the
// given cycles and returns the aggregate packets/second they sustain.
func measureRMTServiceRate(pipelines int, cycles uint64) float64 {
	prog := core.BuildProgram(core.DefaultProgramConfig(2))
	msg := kvsMsg(1)
	done := uint64(0)
	pipes := make([]*rmt.Pipeline, pipelines)
	for i := range pipes {
		pipes[i] = rmt.NewPipeline(prog, 1, 1)
	}
	for c := uint64(0); c < cycles; c++ {
		for _, p := range pipes {
			if _, ok := p.Tick(); ok {
				done++
			}
			if p.CanAccept() {
				p.Accept(msg, c)
			}
		}
	}
	return float64(done) / (float64(cycles) / freq)
}

func kvsMsg(tenant uint16) *packet.Message {
	return &packet.Message{
		Tenant: tenant,
		Pkt: packet.NewPacket(0,
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: packet.IP4{10, 0, 0, 1}, Dst: packet.IP4{10, 255, 0, 2}},
			&packet.UDP{SrcPort: 5001, DstPort: packet.KVSPort},
			&packet.KVS{Op: packet.KVSGet, Tenant: tenant, Key: 7},
		),
	}
}

// BenchmarkTable3 — Table 3: mesh bisection bandwidth (analytic), the
// paper's capacity and chain length, and the flit-level simulator's
// measured saturation throughput and the chain length it sustains.
func BenchmarkTable3(b *testing.B) {
	for _, row := range analytic.Table3() {
		p := row.Params
		b.Run(p.Topology()+"/"+strconv.Itoa(p.WidthBits)+"bit", func(b *testing.B) {
			var sat float64
			for i := 0; i < b.N; i++ {
				sat = measureTable3Saturation(p)
			}
			b.ReportMetric(row.BisectionGbps, "bisec_Gbps")
			b.ReportMetric(row.CapacityGbps, "paper_capacity_Gbps")
			b.ReportMetric(row.ChainLen, "paper_chainlen")
			b.ReportMetric(sat, "sim_Gbps")
			// Paper chain length + the 4 overhead traversals = total
			// traversals per packet the fabric must sustain at line rate;
			// the simulator reports what a single-VC wormhole mesh
			// actually delivers (see EXPERIMENTS.md).
			b.ReportMetric(row.ChainLen+analytic.OverheadTraversals, "paper_traversals_per_pkt")
			b.ReportMetric(sat/p.AggregateLineGbps(), "sim_traversals_per_pkt")
		})
	}
}

// measureTable3Saturation returns the uniform-random saturation
// throughput (Gbps) of the flit-level mesh for one Table 3 configuration,
// with 64 B messages.
func measureTable3Saturation(p analytic.MeshParams) float64 {
	cfg := noc.DefaultMeshConfig()
	cfg.Width, cfg.Height, cfg.FlitWidthBits = p.K, p.K, p.WidthBits
	return noc.MeasureSaturation(noc.NewMesh(cfg), p.FreqHz, 64, 2000, 10_000, 7).DeliveredGbps
}

// plainAndWAN builds the two-tenant mix used by the Figure 2 comparisons:
// tenant 1 plain (never needs crypto), tenant 2 fully encrypted.
func plainAndWAN(seed uint64) engine.Source {
	plain := workload.NewKVSStream(workload.KVSTenantConfig{
		Tenant: 1, Class: packet.ClassLatency,
		RateGbps: 2, FreqHz: freq, Poisson: true,
		Keys: 256, GetRatio: 1.0, ValueBytes: 128, Seed: seed,
	})
	wan := workload.NewKVSStream(workload.KVSTenantConfig{
		Tenant: 2, Class: packet.ClassLatency,
		RateGbps: 8, FreqHz: freq, Poisson: true,
		Keys: 256, GetRatio: 1.0, WANShare: 1.0, ValueBytes: 128, Seed: seed + 1,
	})
	return workload.NewMerge(plain, wan)
}

func slowIPSec() engine.IPSecConfig {
	return engine.IPSecConfig{BytesPerCycle: 4, SetupCycles: 50}
}

const fig2Cycles = 500_000

// us converts simulated cycles at 500 MHz to microseconds.
func us(cycles float64) float64 { return cycles / freq * 1e6 }

// BenchmarkFig2aPipelineHOL — Figure 2a: head-of-line blocking in the
// fixed pipeline. Reports the plain tenant's p99 host-delivery latency
// (µs) under the pipeline, pipeline+bypass, and PANIC.
func BenchmarkFig2aPipelineHOL(b *testing.B) {
	for _, arch := range []string{"pipeline", "pipeline-bypass", "panic"} {
		b.Run(arch, func(b *testing.B) {
			var p99 float64
			for i := 0; i < b.N; i++ {
				p99 = measureFig2aHOL(arch)
			}
			b.ReportMetric(p99, "plain_p99_us")
		})
	}
}

// measureFig2aHOL runs the Figure 2a mix on arch ("pipeline",
// "pipeline-bypass" or "panic") and returns the plain tenant's p99
// host-delivery latency (µs).
func measureFig2aHOL(arch string) float64 {
	if arch == "panic" {
		cfg := core.DefaultConfig()
		cfg.IPSec = slowIPSec()
		nic := core.NewNIC(cfg, []engine.Source{plainAndWAN(1)})
		nic.Run(fig2Cycles)
		return us(nic.HostLat.Tenant(1).P99())
	}
	p := baseline.NewPipelineNIC(baseline.PipelineConfig{
		FreqHz: freq, LineRateGbps: 100,
		Stages: []baseline.PipeStageSpec{{Eng: engine.NewIPSecEngine(slowIPSec()), Needs: baseline.NeedIPSec}},
		Bypass: arch == "pipeline-bypass",
	}, plainAndWAN(1))
	p.Run(fig2Cycles)
	return us(p.HostLat.Tenant(1).P99())
}

// BenchmarkFig2aRecirculation — Figure 2a: chains whose order disagrees
// with the pipeline layout recirculate, wasting ingress bandwidth. Reports
// recirculations per delivered packet.
func BenchmarkFig2aRecirculation(b *testing.B) {
	for _, c := range []struct {
		name  string
		chain []string
	}{{"in-order", []string{"A", "B"}}, {"out-of-order", []string{"B", "A"}}} {
		b.Run(c.name, func(b *testing.B) {
			var perPkt float64
			for i := 0; i < b.N; i++ {
				perPkt = measureRecirculation(c.chain...)
			}
			b.ReportMetric(perPkt, "recirc_per_pkt")
		})
	}
}

// measureRecirculation sends packets that need offloads in the given
// order through a two-stage (A, B) recirculating pipeline and returns
// recirculations per delivered packet.
func measureRecirculation(chain ...string) float64 {
	inner := workload.NewFixedStream(workload.FixedStreamConfig{
		FrameBytes: 256, RateGbps: 5, FreqHz: freq, Tenant: 1, Seed: 3,
	})
	p := baseline.NewPipelineNIC(baseline.PipelineConfig{
		FreqHz: freq, LineRateGbps: 100, Recirculate: true,
		Stages: []baseline.PipeStageSpec{
			{Eng: engine.NewByteRateEngine("A", 64, 1, nil), Needs: baseline.NeedAll},
			{Eng: engine.NewByteRateEngine("B", 64, 1, nil), Needs: baseline.NeedAll},
		},
	}, &chainTagger{inner: inner, chain: chain})
	p.Run(fig2Cycles)
	return float64(p.Recirculations) / float64(p.HostLat.Count)
}

// chainTagger pre-tags messages with an explicit offload order.
type chainTagger struct {
	inner engine.Source
	chain []string
}

func (s *chainTagger) Poll(now uint64) *packet.Message {
	m := s.inner.Poll(now)
	if m != nil {
		needs := make([]string, len(s.chain))
		copy(needs, s.chain)
		m.Needs = needs
	}
	return m
}

// BenchmarkFig2bManycoreLatency — Figure 2b: the embedded-core
// orchestration cost ("adds a latency of 10 µs or more", §2.3.2) vs
// PANIC's switch-based steering. Reports p50 host-delivery latency.
func BenchmarkFig2bManycoreLatency(b *testing.B) {
	for _, arch := range []string{"manycore-8cores", "panic"} {
		b.Run(arch, func(b *testing.B) {
			var p50 float64
			for i := 0; i < b.N; i++ {
				p50 = measureFig2bP50(arch)
			}
			b.ReportMetric(p50, "p50_us")
		})
	}
}

// measureFig2bP50 runs a 2 Gbps latency tenant on arch
// ("manycore-8cores", with 10 µs of orchestration per packet, or "panic")
// and returns its p50 host-delivery latency (µs).
func measureFig2bP50(arch string) float64 {
	src := workload.NewKVSStream(workload.KVSTenantConfig{
		Tenant: 1, Class: packet.ClassLatency,
		RateGbps: 2, FreqHz: freq, Poisson: true,
		Keys: 256, GetRatio: 1.0, ValueBytes: 128, Seed: 5,
	})
	if arch == "panic" {
		nic := core.NewNIC(core.DefaultConfig(), []engine.Source{src})
		nic.Run(fig2Cycles)
		return us(nic.HostLat.All.P50())
	}
	m := baseline.NewManycoreNIC(baseline.ManycoreConfig{
		FreqHz: freq, LineRateGbps: 100,
		Cores: 8, OrchestrationCycles: 5000, HopCycles: 2,
	}, src)
	m.Run(fig2Cycles)
	return us(m.HostLat.All.P50())
}

// BenchmarkFig2cRMTOnly — Figure 2c: offloads too complex for an RMT
// pipeline are punted to host software. Reports the encrypted tenant's p50
// latency under the RMT-only NIC (software crypto) and PANIC (on-NIC
// IPSec engine).
func BenchmarkFig2cRMTOnly(b *testing.B) {
	for _, arch := range []string{"rmt-only", "panic"} {
		b.Run(arch, func(b *testing.B) {
			var p50 float64
			for i := 0; i < b.N; i++ {
				p50, _ = measureFig2c(arch)
			}
			b.ReportMetric(p50, "p50_us")
		})
	}
}

// measureFig2c runs a fully encrypted 4 Gbps tenant on arch ("rmt-only"
// or "panic") and returns its p50 host-delivery latency (µs) and the
// number of packets whose decryption was left to host software.
func measureFig2c(arch string) (p50 float64, punted uint64) {
	src := workload.NewKVSStream(workload.KVSTenantConfig{
		Tenant: 2, Class: packet.ClassLatency,
		RateGbps: 4, FreqHz: freq, Poisson: true,
		Keys: 256, GetRatio: 1.0, WANShare: 1.0, ValueBytes: 128, Seed: 7,
	})
	if arch == "panic" {
		nic := core.NewNIC(core.DefaultConfig(), []engine.Source{src})
		nic.Run(fig2Cycles)
		return us(nic.HostLat.All.P50()), nic.Host.SoftDecrypts()
	}
	r := baseline.NewRMTOnlyNIC(baseline.RMTOnlyConfig{
		FreqHz: freq, LineRateGbps: 100,
		NeedsComplex: baseline.NeedIPSec,
		PCIeCycles:   300, HostCycles: 1000,
		HostComplexPerByte: 10, HostCores: 4,
	}, src)
	r.Run(fig2Cycles)
	return us(r.HostLat.All.P50()), r.Punted
}

// BenchmarkFig3HopLatency — Figure 3 / §3.1.2 timing claims: "The routers
// add one cycle of latency at each hop." Measures mesh delivery latency
// against hop count.
func BenchmarkFig3HopLatency(b *testing.B) {
	for _, hops := range hopCounts {
		b.Run(strconv.Itoa(hops)+"hops", func(b *testing.B) {
			var perHop float64
			for i := 0; i < b.N; i++ {
				perHop = measureHopLatency(hops)
			}
			b.ReportMetric(perHop, "cycles_per_hop")
		})
	}
}

var hopCounts = []int{1, 2, 4, 8}

func measureHopLatency(hops int) float64 {
	cfg := noc.DefaultMeshConfig()
	cfg.Width, cfg.Height = hops+1, 1
	m := noc.NewMesh(cfg)
	k := sim.NewKernel(sim.Frequency(freq))
	m.RegisterWith(k)
	m.Inject(0, noc.NodeID(hops), &packet.Message{Pkt: &packet.Packet{PayloadLen: 8}})
	k.RunUntil(func() bool { return m.Stats().Delivered == 1 }, uint64(10*hops+20))
	// Recorded latency is hops + 1 (ejection); per-hop cost excludes it.
	return (m.Stats().MeanLatency() - 1) / float64(hops)
}
