package core

import (
	"testing"

	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/workload"
)

// benchNIC assembles the benchmark NIC: the canonical two-port
// configuration under a saturating two-tenant mix, so the Eval phase has
// work on every tile each cycle.
func benchNIC(fastForward bool, load float64, pool *packet.MessagePool) *NIC {
	cfg := DefaultConfig()
	cfg.FastForward = fastForward
	return NewNIC(cfg, benchSources(load, pool))
}

// benchSources is the two-tenant saturating mix every throughput
// benchmark (and the invariant-overhead gate) feeds the NIC.
func benchSources(load float64, pool *packet.MessagePool) []engine.Source {
	freq := DefaultConfig().FreqHz
	return []engine.Source{
		workload.NewKVSStream(workload.KVSTenantConfig{
			Tenant: 1, Class: packet.ClassLatency,
			RateGbps: 100 * load, FreqHz: freq,
			Keys: 1024, GetRatio: 0.9, WANShare: 0.2, ValueBytes: 256,
			Seed: 21,
		}),
		workload.NewFixedStream(workload.FixedStreamConfig{
			FrameBytes: 256, RateGbps: 100 * load, FreqHz: freq,
			Tenant: 2, Class: packet.ClassBulk, Seed: 22, Pool: pool,
		}),
	}
}

// BenchmarkKernelThroughput measures simulated cycles per wall-second and
// delivered messages per wall-second over a saturating workload. Run with
// -benchmem to see the allocation diet.
func BenchmarkKernelThroughput(b *testing.B) {
	nic := benchNIC(false, 0.9, nil)
	defer nic.Close()
	nic.Run(2_000) // warm caches and fill the pipeline
	before := nic.WireLat.Count + nic.HostLat.Count
	b.ResetTimer()
	nic.Run(uint64(b.N))
	b.StopTimer()
	delivered := nic.WireLat.Count + nic.HostLat.Count - before
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "simcycles/s")
		b.ReportMetric(float64(delivered)/sec, "msgs/s")
	}
}

// BenchmarkKernelSaturatedMode pits the event-driven kernel against the
// ticked oracle on the identical saturating assembly. The pair
// is measured in one process on one host, so the msgs/s ratio between the
// two sub-benchmarks is the event engine's speedup — the number the
// saturated_event_mode stage in BENCH_kernel.json records and benchgate
// guards.
func BenchmarkKernelSaturatedMode(b *testing.B) {
	for _, mode := range []string{"ticked", "event"} {
		b.Run(mode, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NoEventEngine = mode == "ticked"
			nic := NewNIC(cfg, benchSources(0.9, nil))
			defer nic.Close()
			nic.Run(2_000) // warm caches and fill the pipeline
			before := nic.WireLat.Count + nic.HostLat.Count
			b.ResetTimer()
			nic.Run(uint64(b.N))
			b.StopTimer()
			delivered := nic.WireLat.Count + nic.HostLat.Count - before
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "simcycles/s")
				b.ReportMetric(float64(delivered)/sec, "msgs/s")
			}
		})
	}
}

// BenchmarkKernelThroughputPooled is the saturating run with the
// message pool wired from wire egress back to the bulk generator — the
// -benchmem comparison point for the allocation diet.
func BenchmarkKernelThroughputPooled(b *testing.B) {
	pool := packet.NewMessagePool()
	nic := benchNIC(false, 0.9, pool)
	defer nic.Close()
	recycle := func(m *packet.Message, _ uint64) {
		if m.Tenant == 2 {
			pool.Put(m)
		}
	}
	nic.WireLat.OnDeliver = recycle
	nic.HostLat.OnDeliver = recycle
	nic.Run(2_000)
	b.ResetTimer()
	nic.Run(uint64(b.N))
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "simcycles/s")
	}
}

// BenchmarkKernelLowLoadFastForward measures the low-load latency-curve
// case: a trickle of traffic with long idle gaps between packets. The
// fast-forwarding kernel jumps the gaps; the stepping kernel grinds
// through them. Simulated cycles per wall-second is the headline metric.
func BenchmarkKernelLowLoadFastForward(b *testing.B) {
	for _, ff := range []bool{false, true} {
		name := "step"
		if ff {
			name = "fastforward"
		}
		b.Run(name, func(b *testing.B) {
			nic := benchNIC(ff, 0.001, nil)
			defer nic.Close()
			b.ResetTimer()
			nic.Run(uint64(b.N))
			b.StopTimer()
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "simcycles/s")
				b.ReportMetric(float64(nic.Builder.Kernel.SkippedCycles()), "skipped")
			}
		})
	}
}
