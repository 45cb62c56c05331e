package core

import (
	"strings"
	"testing"

	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/fault"
	"github.com/panic-nic/panic/internal/trace"
	"github.com/panic-nic/panic/internal/workload"
)

// traceRun mirrors detRun — same two-port traffic, fault plan, replicas,
// and health monitor — but with a tracer attached, and returns the
// exported Chrome JSON plus the NIC fingerprint.
func traceRun(c detCase, horizon uint64, sample uint64) (string, string) {
	cfg := DefaultConfig()
	cfg.IPSecReplicas = 2
	cfg.Health = DefaultHealthConfig()
	cfg.Tracer = trace.New(trace.Options{FreqHz: cfg.FreqHz, Sample: sample})
	cfg.FaultPlan = (&fault.Plan{}).
		Add(fault.Event{At: 1000, Kind: fault.Wedge, Engine: AddrIPSec, For: 30_000}).
		Add(fault.Event{At: 2500, Kind: fault.FlakeDrop, Engine: AddrKVSCache, EveryN: 7, For: 20_000})
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
	var sb strings.Builder
	if err := cfg.Tracer.Set().WriteChrome(&sb); err != nil {
		panic(err)
	}
	return sb.String(), nic.Fingerprint()
}

// TestTraceDeterminism is the observability layer's acceptance test: the
// exported trace must be byte-identical on the kernel and on its reference
// stepper — per-component buffers drained in creation order make tick
// order invisible, and skipped idle cycles run no phases so they can emit
// nothing.
func TestTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("paired NIC runs are slow")
	}
	const horizon = 120_000
	wantTrace, wantFP := traceRun(detCases[0], horizon, 1)
	if !strings.Contains(wantTrace, `"name":"deliver"`) {
		t.Fatalf("reference trace contains no deliver spans; tracing is not wired up")
	}
	if !strings.Contains(wantTrace, `"name":"control"`) {
		t.Errorf("trace missing control spans despite fault plan + health monitor")
	}
	for _, c := range detCases[1:] {
		gotTrace, gotFP := traceRun(c, horizon, 1)
		if gotFP != wantFP {
			t.Errorf("%s: NIC fingerprint diverged:\n%s", c.name, diffLines(wantFP, gotFP))
		}
		if gotTrace != wantTrace {
			t.Errorf("%s: trace diverged from the reference stepper:\n%s", c.name, diffLines(wantTrace, gotTrace))
		}
	}
}

// TestTraceSamplingSubset checks that sampling keeps a strict, pure subset:
// every span in a 1-in-4 trace must appear for a message the filter keeps,
// and tracing itself must not perturb the simulation.
func TestTraceSamplingSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("NIC runs are slow")
	}
	const horizon = 60_000
	ev := detCase{name: "kernel"}
	_, fullFP := traceRun(ev, horizon, 1)
	sampled, sampledFP := traceRun(ev, horizon, 4)
	if sampledFP != fullFP {
		t.Errorf("sampling changed the simulation result:\n%s", diffLines(fullFP, sampledFP))
	}
	set, err := trace.ReadChrome(strings.NewReader(sampled))
	if err != nil {
		t.Fatalf("re-reading sampled trace: %v", err)
	}
	for _, id := range set.Messages() {
		if id%4 != 0 {
			t.Errorf("sampled trace contains message %d, which fails id%%4==0", id)
		}
	}
	// The plain (untraced) fingerprint must match too: attaching a tracer
	// must not change scheduling, drops, or latency by a single cycle.
	if plain := detRun(ev, horizon); plain != fullFP {
		t.Errorf("attaching a tracer perturbed the simulation:\n%s", diffLines(plain, fullFP))
	}
}
