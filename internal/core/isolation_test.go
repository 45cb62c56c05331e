package core

import (
	"testing"

	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/workload"
)

// The isolation scenario: the victim's cache misses and every aggressor
// frame need the host link, the aggressor alone oversubscribes it
// (24 Gbps offered into 16 Gbps of PCIe), so a standing queue forms at
// the DMA tile — exactly where the weighted-LSTF scheduler arbitrates.
const (
	isoVictimGbps    = 1
	isoAggressorGbps = 24
	isoHorizon       = 300_000
	isoSeed          = 21
)

// isoCfg is the shared configuration for the multi-tenant isolation runs:
// two known tenants at equal weight, weighted-LSTF on every offload
// queue, and each tenant's rate credit set to its fair half of the
// 16 Gbps bottleneck link (128 B per 64-cycle period at 500 MHz ≈ 8 Gbps).
func isoCfg() Config {
	cfg := DefaultConfig()
	cfg.PCIeGbps = 16
	cfg.QueueCap = 128
	cfg.DMAJitter = 100
	cfg.TenantWeights = map[uint16]uint64{1: 1, 2: 1}
	cfg.TenantQuantumBytes = 128
	return cfg
}

// isoRun executes the contended (or, with aggressor false, solo-victim)
// scenario on the given loop and returns the NIC.
func isoRun(c detCase, aggressor bool) *NIC {
	var src engine.Source
	if aggressor {
		src = workload.NewAggressorVictimMix(500e6, isoVictimGbps, isoAggressorGbps, isoSeed)
	} else {
		// The victim's stream is seeded first in spec order, so solo and
		// contended runs see the identical victim arrival process.
		src = workload.NewTenantMix(500e6, []workload.TenantSpec{workload.VictimSpec(isoVictimGbps)}, isoSeed)
	}
	nic := c.newNIC(isoCfg(), []engine.Source{src})
	defer nic.Close()
	nic.Run(isoHorizon)
	return nic
}

// TestTenantIsolationVictimP99Bounded is the PR's acceptance experiment:
// with weights 1:1, a saturating bulk aggressor may degrade the victim's
// p99 end-to-end delivery latency by at most 2x its solo baseline.
func TestTenantIsolationVictimP99Bounded(t *testing.T) {
	if testing.Short() {
		t.Skip("full NIC runs are slow")
	}
	solo := isoRun(detCase{name: "kernel"}, false)
	contended := isoRun(detCase{name: "kernel"}, true)

	soloH := solo.HostLat.Tenant(1)
	contH := contended.HostLat.Tenant(1)
	if soloH.Count() == 0 || contH.Count() == 0 {
		t.Fatalf("victim deliveries: solo=%d contended=%d, want both > 0\n%s",
			soloH.Count(), contH.Count(), contended.TileReport())
	}
	// No victim message was lost to the aggressor's overload.
	if contH.Count() != soloH.Count() {
		t.Errorf("victim deliveries under contention = %d, solo = %d (victim lost traffic)",
			contH.Count(), soloH.Count())
	}
	soloP99, contP99 := soloH.P99(), contH.P99()
	if contP99 > 2*soloP99 {
		t.Errorf("victim p99 under aggressor = %.0f cycles, solo = %.0f (%.2fx, want <= 2x)\n%s",
			contP99, soloP99, contP99/soloP99, contended.TenantReport())
	}
	// The aggressor really was saturating: it oversubscribed the link and
	// paid for it in drops, and it consumed far more engine service than
	// the victim.
	agg := contended.TenantTotals()[2]
	vic := contended.TenantTotals()[1]
	if agg.Dropped == 0 {
		t.Error("aggressor had no drops: offered load did not saturate the link")
	}
	if vic.Dropped != 0 {
		t.Errorf("victim lost %d messages; overload must shed the aggressor only", vic.Dropped)
	}
	if agg.ServiceCycles < 4*vic.ServiceCycles {
		t.Errorf("aggressor service cycles = %d vs victim %d: workload not saturating",
			agg.ServiceCycles, vic.ServiceCycles)
	}
}

// TestTenantIsolationCrossKernelDeterminism requires the contended
// multi-tenant run — weighted-LSTF credit state, per-tenant tallies, and
// tenant latency histograms included — to be byte-identical on the kernel
// and on its reference stepper.
func TestTenantIsolationCrossKernelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("paired NIC runs are slow")
	}
	fp := func(c detCase) string {
		nic := isoRun(c, true)
		return nic.Fingerprint() + "\ntenants:\n" + nic.TenantReport()
	}
	want := fp(detCases[0])
	for _, c := range detCases[1:] {
		if got := fp(c); got != want {
			t.Errorf("%s diverged from the reference stepper:\n%s", c.name, diffLines(want, got))
		}
	}
}
