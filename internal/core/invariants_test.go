package core

import (
	"strings"
	"testing"

	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/fault"
	"github.com/panic-nic/panic/internal/invariant"
	"github.com/panic-nic/panic/internal/noc"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/trace"
)

// TestInvariantMonitorCleanLoadedRun arms every invariant check on a
// deliberately messy assembly — weighted tenants, replicas, a fault plan
// mixing engine and link faults, tracing on, flow cache on — and requires
// a clean verdict. This is the "the net itself holds on main" gate: a
// false positive here would poison every chaos run.
func TestInvariantMonitorCleanLoadedRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TenantWeights = map[uint16]uint64{1: 3, 2: 1}
	cfg.QueueCap = 256
	cfg.IPSecReplicas = 2
	cfg.Health = DefaultHealthConfig()
	cfg.Tracer = trace.New(trace.Options{Sample: 4})
	cfg.Invariants = &invariant.Config{Every: 512}
	cfg.FaultPlan = (&fault.Plan{}).
		Add(fault.Event{At: 2000, Kind: fault.Wedge, Engine: AddrIPSec, For: 9000}).
		Add(fault.Event{At: 3000, Kind: fault.FlakeDrop, Engine: AddrKVSCache, EveryN: 7, For: 5000}).
		Add(fault.Event{At: 4000, Kind: fault.LinkDegrade,
			From: noc.Coord{X: 2, Y: 2}, To: noc.Coord{X: 3, Y: 2}, EveryN: 3, For: 4000})
	nic := NewNIC(cfg, []engine.Source{
		kvsSource(200, 0.9, 0.5, 41),
		tenantGetSource(2, 200, 43),
	})
	nic.Run(60_000)

	if err := nic.Invar.Err(); err != nil {
		t.Fatalf("invariant violations on a healthy run: %v\nevents:\n%s", err, nic.Events.String())
	}
	if nic.Invar.Passes() < 60_000/512 {
		t.Errorf("monitor ran %d passes, want >= %d", nic.Invar.Passes(), 60_000/512)
	}
	// The expensive checks demonstrably engaged: flow-cache hits were
	// shadow-executed and spans were validated.
	var checks uint64
	for _, r := range nic.Builder.RMTs {
		c, _, _ := r.Pipeline().ShadowCheckStats()
		checks += c
	}
	if checks == 0 {
		t.Error("no flow-cache shadow checks ran on a cache-heavy run")
	}
	if len(nic.Cfg.Tracer.Set().Spans) == 0 {
		t.Error("no spans collected, trace-span check never exercised")
	}
}

// TestInvariantMonitorIsTransparent runs the same seeded scenario with the
// monitor off and on and requires byte-identical results: arming the net
// must not perturb the simulation it watches.
func TestInvariantMonitorIsTransparent(t *testing.T) {
	run := func(inv *invariant.Config) (string, string) {
		cfg := DefaultConfig()
		cfg.TenantWeights = map[uint16]uint64{1: 3, 2: 1}
		cfg.QueueCap = 256
		cfg.Health = DefaultHealthConfig()
		cfg.Invariants = inv
		cfg.FaultPlan = (&fault.Plan{}).
			Add(fault.Event{At: 1500, Kind: fault.Wedge, Engine: AddrKVSCache, For: 6000})
		nic := NewNIC(cfg, []engine.Source{
			kvsSource(120, 0.9, 0.3, 17),
			tenantGetSource(2, 120, 19),
		})
		nic.Run(50_000)
		if inv != nil {
			if err := nic.Invar.Err(); err != nil {
				t.Fatalf("monitored run not clean: %v", err)
			}
		}
		return nic.Summary(), nic.Events.String()
	}
	sumOff, evOff := run(nil)
	sumOn, evOn := run(&invariant.Config{Every: 256})
	if sumOff != sumOn {
		t.Errorf("summary differs with monitor armed:\n--- off\n%s\n--- on\n%s", sumOff, sumOn)
	}
	if evOff != evOn {
		t.Errorf("event log differs with monitor armed:\n--- off\n%s--- on\n%s", evOff, evOn)
	}
}

// TestInvariantPassCyclesMatchTickedOracle pins the monitor's sampling
// schedule against the reference stepper: with the kernel jumping between
// wake points, a due pass must still land on exactly the interval cycle —
// the Due clamp steps that cycle instead of jumping over it. A recorder
// check captures the cycle of every pass on both loops; the sequences must
// be identical, and the deferred-sync path means each pass also sees
// reference-exact state (the runs stay invariant-clean).
func TestInvariantPassCyclesMatchTickedOracle(t *testing.T) {
	const horizon = 50_000
	const every = 700 // deliberately not a power of two
	run := func(c detCase) ([]uint64, string, uint64) {
		cfg := DefaultConfig()
		cfg.Health = DefaultHealthConfig()
		cfg.Invariants = &invariant.Config{Every: every}
		// Bounded sources: the run drains, leaving a long idle tail for
		// the kernel to jump — with due passes interleaved through it.
		nic := c.newNIC(cfg, []engine.Source{
			kvsSource(120, 0.9, 0.3, 17),
			tenantGetSource(2, 120, 19),
		})
		defer nic.Close()
		var cycles []uint64
		nic.Invar.AddCheck("pass-recorder", func(c uint64) error {
			cycles = append(cycles, c)
			return nil
		})
		nic.Run(horizon)
		if err := nic.Invar.Err(); err != nil {
			t.Fatalf("%s run not invariant-clean: %v", c.name, err)
		}
		return cycles, nic.Fingerprint(), nic.Builder.Kernel.SkippedCycles()
	}

	wantCycles, wantFP, _ := run(detCases[0])
	for i, c := range wantCycles {
		// The reference steps every cycle, so its passes sit at the exact
		// interval multiples (plus the cycle-0 pass); that is the sequence
		// the kernel must reproduce.
		if want := uint64(i) * every; c != want {
			t.Fatalf("reference pass %d at cycle %d, want %d", i, c, want)
		}
	}
	if len(wantCycles) < horizon/every {
		t.Fatalf("only %d passes over %d cycles at interval %d", len(wantCycles), horizon, every)
	}
	cycles, fp, skipped := run(detCases[1])
	if fp != wantFP {
		t.Errorf("kernel fingerprint diverged from the reference stepper")
	}
	if len(cycles) != len(wantCycles) {
		t.Fatalf("kernel ran %d passes, reference ran %d", len(cycles), len(wantCycles))
	}
	for i := range cycles {
		if cycles[i] != wantCycles[i] {
			t.Fatalf("kernel pass %d at cycle %d, reference at %d", i, cycles[i], wantCycles[i])
		}
	}
	if skipped == 0 {
		t.Error("kernel skipped no cycles: the drained tail should be jumped")
	}
}

// TestInvariantMonitorCatchesPlantedCacheBug plants the canonical bug —
// RewriteEngineTenant forgets to invalidate the flow cache — and requires
// the coherence check to catch it. The scenario is a tenant-scoped
// failover: the health monitor repoints tenant 1's steering away from the
// wedged cache engine, the planted bug leaves stale cached verdicts in
// place, and the sampled shadow re-execution must see the divergence.
func TestInvariantMonitorCatchesPlantedCacheBug(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tenants = []uint16{1, 2}
	cfg.QueueCap = 256
	cfg.Health = DefaultHealthConfig()
	cfg.Health.TenantDomains = map[packet.Addr][]uint16{AddrKVSCache: {1}}
	cfg.Invariants = &invariant.Config{Every: 512}
	cfg.FaultPlan = (&fault.Plan{}).
		Add(fault.Event{At: 1000, Kind: fault.Wedge, Engine: AddrKVSCache, For: 40_000})
	nic := NewNIC(cfg, []engine.Source{
		tenantGetSource(1, 600, 31),
		tenantGetSource(2, 600, 37),
	})
	nic.Program.PlantSkipTenantInvalidate()
	nic.Run(50_000)

	err := nic.Invar.Err()
	if err == nil {
		t.Fatalf("planted stale-cache bug not caught\nevents:\n%s", nic.Events.String())
	}
	if v := nic.Invar.Violations()[0]; v.Check != "flow-cache-coherence" {
		t.Errorf("first violation = %v, want flow-cache-coherence", v)
	}
	if !strings.Contains(err.Error(), "shadow mismatch") {
		t.Errorf("violation detail %q does not describe a shadow mismatch", err)
	}
}

// TestFailoverSkipsDegradedReplica is the regression test for the standby
// vetting fix: the replica is reachable and fault-free as a tile, but an
// active fault plan has severed its mesh links. Rerouting at it would
// blackhole the failed engine's traffic (and previously did); the monitor
// must instead fall through to punt-to-host.
func TestFailoverSkipsDegradedReplica(t *testing.T) {
	const count = 30
	cfg := DefaultConfig()
	cfg.IPSecReplicas = 2
	cfg.Health = DefaultHealthConfig()
	cfg.Invariants = &invariant.Config{Every: 512}
	cfg.FaultPlan = (&fault.Plan{}).Add(fault.Event{At: 500, Kind: fault.Wedge, Engine: AddrIPSec})
	nic := NewNIC(cfg, []engine.Source{wanSource(count, 5)})

	// Sever the links into and out of the replica's node before traffic
	// starts, as a fault plan targeting its coordinates would.
	mesh := nic.Builder.Mesh
	alt := nic.Tile(AddrIPSecAlt).Node()
	co := mesh.CoordOf(alt)
	nb := noc.Coord{X: co.X - 1, Y: co.Y}
	if co.X == 0 {
		nb = noc.Coord{X: co.X + 1, Y: co.Y}
	}
	mesh.SetLinkFault(mesh.NodeAt(nb.X, nb.Y), alt, noc.LinkFault{Severed: true})

	nic.Run(80_000)

	if e, ok := findEvent(nic.Events, "rerouted", uint16(AddrIPSec)); ok {
		t.Fatalf("rerouted to a link-severed replica: %+v\nevents:\n%s", e, nic.Events.String())
	}
	if _, ok := findEvent(nic.Events, "punted", uint16(AddrIPSec)); !ok {
		t.Fatalf("no punt event — expected fall-through to host:\n%s", nic.Events.String())
	}
	// Degraded-mode service still completes: every request reaches host
	// software (same guarantee as TestPuntToHostWhenNoReplica).
	if gets, _ := nic.Host.Counts(); gets != count {
		t.Errorf("host served %d GETs, want %d\n%s", gets, count, nic.TileReport())
	}
	if err := nic.Invar.Err(); err != nil {
		t.Errorf("invariant violations during degraded-mode run: %v", err)
	}
}
