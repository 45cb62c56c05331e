package core

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/panic-nic/panic/internal/invariant"
)

// BenchmarkInvariantOverhead measures the monitor's cost on the
// saturating workload: off, the default 1-in-2048-cycle sampling, and an
// aggressive 1-in-64. ROBUSTNESS.md's overhead table quotes this
// benchmark's msgs/s column; the acceptance bound (<= 5% at the default
// interval) is enforced by TestInvariantOverheadBound.
func BenchmarkInvariantOverhead(b *testing.B) {
	cases := []struct {
		name string
		inv  *invariant.Config
	}{
		{"off", nil},
		{"every-2048", &invariant.Config{Every: 2048}},
		{"every-64", &invariant.Config{Every: 64}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.TenantWeights = map[uint16]uint64{1: 3, 2: 1}
			cfg.Health = DefaultHealthConfig()
			cfg.Invariants = c.inv
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
			if c.inv != nil {
				if err := nic.Invar.Err(); err != nil {
					b.Fatalf("benchmark run not invariant-clean: %v", err)
				}
			}
		})
	}
}

// TestInvariantOverheadBound is the acceptance gate: at the default
// sampling interval the armed monitor may cost at most 5% of saturating
// throughput. Two NICs, monitor off and on, run the same workload in
// lockstep (the streams are bit-identical by construction), alternating
// which one runs each 7,500-cycle chunk first, so every pair of chunk
// runs times the same simulated work back to back. Each of five rounds
// builds a fresh pair of NICs, so no one memory layout decides the
// result. The median on/off ratio over all 45 pairs bounds the overhead:
// drift in host speed and bursts of load from other processes mostly hit
// both runs of a pair alike, and the median discards the pairs a burst
// split.
func TestInvariantOverheadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped in -short")
	}
	const chunk, rounds, pairs = 7_500, 5, 9
	build := func(inv *invariant.Config) *NIC {
		cfg := DefaultConfig()
		cfg.TenantWeights = map[uint16]uint64{1: 3, 2: 1}
		cfg.Health = DefaultHealthConfig()
		cfg.Invariants = inv
		nic := NewNIC(cfg, benchSources(0.9, nil))
		nic.Run(2_000)
		return nic
	}
	timed := func(nic *NIC) time.Duration {
		// Collect garbage first, so neither side pays for the other's heap.
		runtime.GC()
		start := time.Now()
		nic.Run(chunk)
		return time.Since(start)
	}
	ratios := make([]float64, 0, rounds*pairs)
	for r := 0; r < rounds; r++ {
		offNIC, onNIC := build(nil), build(&invariant.Config{})
		for i := 0; i < pairs; i++ {
			var off, on time.Duration
			if (r*pairs+i)%2 == 0 {
				off = timed(offNIC)
				on = timed(onNIC)
			} else {
				on = timed(onNIC)
				off = timed(offNIC)
			}
			ratios = append(ratios, float64(on)/float64(off))
		}
		if err := onNIC.Invar.Err(); err != nil {
			t.Fatalf("gate run not invariant-clean: %v", err)
		}
		offNIC.Close()
		onNIC.Close()
	}
	slices.Sort(ratios)
	overhead := ratios[len(ratios)/2] - 1
	t.Logf("on/off ratios %.3f; overhead=%.2f%%", ratios, overhead*100)
	if overhead > 0.05 {
		t.Errorf("invariant monitor costs %.1f%% at the default interval, budget is 5%% (on/off ratios %.3f)",
			overhead*100, ratios)
	}
}
