package core

import (
	"testing"

	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/workload"
)

// benchNIC assembles the benchmark NIC: the canonical two-port
// configuration under the two-tenant mix at the given fraction of line
// rate (at 0.9 the Eval phase has work on every tile each cycle).
func benchNIC(load float64) *NIC {
	return NewNIC(DefaultConfig(), benchSources(load))
}

// benchSources is the two-tenant saturating mix every throughput
// benchmark (and the invariant-overhead gate) feeds the NIC.
func benchSources(load float64) []engine.Source {
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
			Tenant: 2, Class: packet.ClassBulk, Seed: 22,
		}),
	}
}

// BenchmarkKernelThroughput measures simulated cycles per wall-second and
// delivered messages per wall-second over a saturating workload. Run with
// -benchmem to see the allocation diet.
func BenchmarkKernelThroughput(b *testing.B) {
	nic := benchNIC(0.9)
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

// BenchmarkKernelLowLoadFastForward measures the low-load latency-curve
// case: a trickle of traffic with long idle gaps between packets, which
// the kernel jumps. Simulated cycles per wall-second is the headline
// metric.
func BenchmarkKernelLowLoadFastForward(b *testing.B) {
	nic := benchNIC(0.001)
	defer nic.Close()
	b.ResetTimer()
	nic.Run(uint64(b.N))
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "simcycles/s")
		b.ReportMetric(float64(nic.Builder.Kernel.SkippedCycles()), "skipped")
	}
}
