package core

import (
	"testing"

	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/trace"
	"github.com/panic-nic/panic/internal/workload"
)

// benchTraceNIC is benchNIC's saturating configuration with
// an optional tracer attached. An uncapped MaxSpans would hold every span
// of a long -benchtime run, so the cap stays at the default and Dropped
// absorbs the tail; span emission cost is identical either way.
func benchTraceNIC(tr *trace.Tracer) *NIC {
	cfg := DefaultConfig()
	cfg.Tracer = tr
	srcs := []engine.Source{
		workload.NewKVSStream(workload.KVSTenantConfig{
			Tenant: 1, Class: packet.ClassLatency,
			RateGbps: 90, FreqHz: cfg.FreqHz,
			Keys: 1024, GetRatio: 0.9, WANShare: 0.2, ValueBytes: 256,
			Seed: 21,
		}),
		workload.NewFixedStream(workload.FixedStreamConfig{
			FrameBytes: 256, RateGbps: 90, FreqHz: cfg.FreqHz,
			Tenant: 2, Class: packet.ClassBulk, Seed: 22,
		}),
	}
	return NewNIC(cfg, srcs)
}

// BenchmarkTraceOverhead measures the per-cycle cost of the tracing
// subsystem on the saturating benchmark workload: off (nil tracer),
// sampled 1-in-64, sampled 1-in-8, and full tracing. Run with -benchmem;
// EXPERIMENTS.md's "Tracing overhead" table is produced from this
// benchmark's ns/op and allocs/op columns.
func BenchmarkTraceOverhead(b *testing.B) {
	cases := []struct {
		name   string
		tracer func() *trace.Tracer
	}{
		{"off", func() *trace.Tracer { return nil }},
		{"sample-64", func() *trace.Tracer { return trace.New(trace.Options{Sample: 64}) }},
		{"sample-8", func() *trace.Tracer { return trace.New(trace.Options{Sample: 8}) }},
		{"full", func() *trace.Tracer { return trace.New(trace.Options{}) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			tr := c.tracer()
			nic := benchTraceNIC(tr)
			defer nic.Close()
			nic.Run(2_000) // warm caches and fill the pipeline
			b.ResetTimer()
			nic.Run(uint64(b.N))
			b.StopTimer()
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "simcycles/s")
			}
			if tr != nil {
				set := tr.Set()
				b.ReportMetric(float64(len(set.Spans)+int(set.Dropped))/float64(b.N), "spans/cycle")
			}
		})
	}
}
