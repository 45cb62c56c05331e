package core

import (
	"fmt"
	"testing"

	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/fault"
	"github.com/panic-nic/panic/internal/workload"
)

// detCase is one kernel execution mode under test: `ticked` runs the
// every-Ticker-every-cycle oracle instead of the event-driven loaded path,
// and the two must be byte-identical with fast-forward on or off — a
// missed wakeup in the event engine shows up here as a fingerprint
// divergence.
type detCase struct {
	name        string
	fastForward bool
	ticked      bool
}

var detCases = []detCase{
	// The reference: the ticked oracle. Everything below must reproduce
	// its fingerprint byte for byte.
	{name: "ticked", ticked: true},
	{name: "ticked+ff", ticked: true, fastForward: true},
	// Event engine (the default) across the same axis.
	{name: "event"},
	{name: "event+ff", fastForward: true},
}

// apply sets the case's kernel mode on cfg.
func (c detCase) apply(cfg *Config) {
	cfg.FastForward = c.fastForward
	cfg.NoEventEngine = c.ticked
}

// detRun builds a NIC in the given mode over a seeded two-port traffic mix
// with a fault plan and health monitoring, runs it to a fixed horizon, and
// returns the fingerprint.
func detRun(c detCase, horizon uint64) string {
	cfg := DefaultConfig()
	c.apply(&cfg)
	cfg.IPSecReplicas = 2
	cfg.Health = DefaultHealthConfig()
	cfg.FaultPlan = (&fault.Plan{}).
		Add(fault.Event{At: 1000, Kind: fault.Wedge, Engine: AddrIPSec, For: 30_000}).
		Add(fault.Event{At: 2500, Kind: fault.FlakeDrop, Engine: AddrKVSCache, EveryN: 7, For: 20_000})
	// Two ports: a mixed GET/SET partly-WAN stream and a latency/bulk
	// blend, both bounded so the run drains and fast-forward has real idle
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
	nic := NewNIC(cfg, srcs)
	defer nic.Close()
	nic.Run(horizon)
	return nic.Fingerprint()
}

// TestCrossKernelDeterminism is the core acceptance test: the same seeded
// workload and fault plan must produce byte-identical statistics, event
// logs, and final cycle counts under the event-driven loop and the ticked
// oracle, with fast-forward on or off.
func TestCrossKernelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-mode NIC runs are slow")
	}
	const horizon = 120_000
	want := detRun(detCases[0], horizon)
	for _, c := range detCases[1:] {
		got := detRun(c, horizon)
		if got != want {
			t.Errorf("mode %s diverged from the ticked oracle:\n%s", c.name, diffLines(want, got))
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
			out += fmt.Sprintf("line %d:\n  reference: %q\n  this mode: %q\n", i+1, w, g)
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
