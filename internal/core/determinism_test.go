package core

import (
	"fmt"
	"testing"

	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/fault"
	"github.com/panic-nic/panic/internal/workload"
)

// detCase is one kernel loop under test: the reference stepper, which
// ticks every Eval ticker every cycle and skips none, or the kernel as it
// runs in production. The two must be byte-identical — a missed wakeup or
// an unreconciled sleep shows up here as a fingerprint divergence.
type detCase struct {
	name      string
	reference bool
}

var detCases = []detCase{
	// The reference. The kernel must reproduce its fingerprint byte for
	// byte.
	{name: "reference", reference: true},
	{name: "kernel"},
}

// newNIC builds a NIC on the case's loop.
func (c detCase) newNIC(cfg Config, srcs []engine.Source) *NIC {
	nic := NewNIC(cfg, srcs)
	if c.reference {
		nic.UseReference()
	}
	return nic
}

// detRun builds a NIC on the given loop over a seeded two-port traffic mix
// with a fault plan and health monitoring, runs it to a fixed horizon, and
// returns the fingerprint.
func detRun(c detCase, horizon uint64) string { return detRunWith(c, horizon, nil) }

// detRunWith is detRun with the configuration and fault plan adjusted by
// vary before the NIC is built (nil keeps the canonical ones).
func detRunWith(c detCase, horizon uint64, vary func(*Config, *fault.Plan)) string {
	cfg := DefaultConfig()
	cfg.IPSecReplicas = 2
	cfg.Health = DefaultHealthConfig()
	plan := (&fault.Plan{}).
		Add(fault.Event{At: 1000, Kind: fault.Wedge, Engine: AddrIPSec, For: 30_000}).
		Add(fault.Event{At: 2500, Kind: fault.FlakeDrop, Engine: AddrKVSCache, EveryN: 7, For: 20_000})
	if vary != nil {
		vary(&cfg, plan)
	}
	cfg.FaultPlan = plan
	// Two ports: a mixed GET/SET partly-WAN stream and a latency/bulk
	// blend, both bounded so the run drains and the kernel has a real idle
	// tail to skip.
	srcs := []engine.Source{
		kvsSource(60, 0.8, 0.5, 7),
		workload.NewMerge(
			kvsSource(40, 1.0, 0, 11),
			workload.NewFixedStream(workload.FixedStreamConfig{
				FrameBytes: 256, RateGbps: 2, FreqHz: 500e6,
				Tenant: 3, Count: 30, Seed: 13,
			}),
		),
	}
	nic := c.newNIC(cfg, srcs)
	defer nic.Close()
	nic.Run(horizon)
	return nic.Fingerprint()
}

// detConfigs are the NIC configurations the cross-kernel matrix runs.
var detConfigs = []struct {
	name string
	vary func(*Config, *fault.Plan)
}{
	{name: "canonical"},
	// 100 Gbps at 500 MHz refills a bucket by exactly 200 bits a cycle;
	// this configuration runs rates that are not whole numbers of bits
	// per cycle, 5 Gbps ports and 256 Gbps PCIe at 450 MHz, which the
	// integer bucket counts exactly in units of 1/FreqHz bit. At 5 Gbps,
	// port 0's offered load keeps its frames waiting on the bucket, so
	// every payable cycle a sleeping generator reports is exercised. eth0
	// is wedged mid-run while its bucket refills; refilling over the
	// wedged cycles diverges from the reference here.
	{name: "fractional-rates", vary: func(cfg *Config, plan *fault.Plan) {
		cfg.FreqHz = 450e6
		cfg.LineRateGbps = 5
		plan.Add(fault.Event{At: 4000, Kind: fault.Wedge, Engine: AddrEthBase, For: 3000})
	}},
}

// TestCrossKernelDeterminism is the core acceptance test: the same seeded
// workload and fault plan must produce byte-identical statistics, event
// logs, and final cycle counts on the kernel and on its reference stepper,
// in every configuration of detConfigs.
func TestCrossKernelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("paired NIC runs are slow")
	}
	const horizon = 120_000
	for _, dc := range detConfigs {
		want := detRunWith(detCases[0], horizon, dc.vary)
		for _, c := range detCases[1:] {
			got := detRunWith(c, horizon, dc.vary)
			if got != want {
				t.Errorf("%s: %s diverged from the reference stepper:\n%s", dc.name, c.name, diffLines(want, got))
			}
		}
	}
}

// diffLines renders the first few differing lines between two fingerprints.
func diffLines(want, got string) string {
	wl := splitLines(want)
	gl := splitLines(got)
	out := ""
	n := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			out += fmt.Sprintf("line %d:\n  want: %q\n  got:  %q\n", i+1, w, g)
			n++
			if n >= 8 {
				out += "  ...\n"
				break
			}
		}
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}

// TestSkippedCycleCounts pins how many cycles the kernel jumps on the
// canonical benchmark NIC (benchSources, as BENCH_kernel.json measures
// it): at 0.1% load with and without the health monitor, whose check
// cycles the kernel must step, at 5% load, and at 90% load, where only the
// few cycles in which every tile sleeps through a refill or a pipeline
// shift are idle. The counts are exact: a wake declared too early lowers
// them, one declared too late diverges from the reference stepper.
func TestSkippedCycleCounts(t *testing.T) {
	for _, c := range []struct {
		name    string
		load    float64
		health  bool
		cycles  uint64
		skipped uint64
	}{
		{"0.1%", 0.001, false, 1_000_000, 981_497},
		{"0.1%+health", 0.001, true, 1_000_000, 966_243},
		{"5%", 0.05, false, 300_000, 102_853},
		{"90%", 0.9, false, 100_000, 529},
	} {
		cfg := DefaultConfig()
		if c.health {
			cfg.Health = DefaultHealthConfig()
		}
		nic := NewNIC(cfg, benchSources(c.load))
		nic.Run(c.cycles)
		if got := nic.Builder.Kernel.SkippedCycles(); got != c.skipped {
			t.Errorf("%s load: skipped %d of %d cycles, want %d", c.name, got, c.cycles, c.skipped)
		}
	}
}
