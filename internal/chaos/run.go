package chaos

import (
	"fmt"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/fault"
	"github.com/panic-nic/panic/internal/fleet"
	"github.com/panic-nic/panic/internal/invariant"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/workload"
)

// Failure is what a scenario run produced when it was not clean: the
// first violated invariant check (or "panic"), and the detail.
type Failure struct {
	// Check is the name of the first violated invariant check, or "panic"
	// when the run crashed outright.
	Check string
	// Err summarizes all violations (or wraps the recovered panic value).
	Err error
}

func (f *Failure) String() string {
	return fmt.Sprintf("%s: %v", f.Check, f.Err)
}

// Run executes one scenario with the invariant monitor armed and returns
// nil when it held, or the Failure. A panicking run (a bug class the
// invariants themselves cannot express) is recovered and reported as a
// Failure too, so the shrinker works on crashes as well as violations.
func Run(s Scenario) (f *Failure) {
	defer func() {
		if r := recover(); r != nil {
			f = &Failure{Check: "panic", Err: fmt.Errorf("run panicked: %v", r)}
		}
	}()
	if s.Fleet >= 2 {
		return runFleet(s)
	}
	nic := buildNIC(s)
	defer nic.Close()
	nic.Run(s.Cycles)
	// One final unthrottled pass so end-of-run state is audited even when
	// the horizon is not a multiple of the sampling interval.
	nic.Invar.RunNow(nic.Now())
	if err := nic.Invar.Err(); err != nil {
		return &Failure{Check: nic.Invar.Violations()[0].Check, Err: err}
	}
	return nil
}

// runFleet soaks the scenario as a rack: s.Fleet NICs, every tenant's
// clients one NIC over from its home so all traffic crosses the ToR, the
// fault plan armed on NIC 0, and both the per-NIC and the fleet-level
// (ToR conservation) invariant monitors live. Called under Run's recover.
func runFleet(s Scenario) *Failure {
	rack := buildFleet(s)
	defer rack.Close()
	rack.Run(s.Cycles)
	if vs := rack.Violations(); len(vs) > 0 {
		return &Failure{
			Check: vs[0].Check,
			Err:   fmt.Errorf("%d fleet invariant violation(s); first: %v", len(vs), vs[0]),
		}
	}
	return nil
}

// nicConfig maps a scenario's knobs onto the NIC configuration that
// buildNIC assembles and buildFleet uses as its per-NIC template. It
// panics on an invalid scenario.
func nicConfig(s Scenario) core.Config {
	if err := s.validate(); err != nil {
		panic(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.QueueCap = s.QueueCap
	cfg.IPSecReplicas = s.Replicas
	cfg.Health = core.DefaultHealthConfig()
	if s.TenantScoped {
		cfg.Health.TenantDomains = map[packet.Addr][]uint16{core.AddrKVSCache: {1}}
	}
	cfg.TenantWeights = make(map[uint16]uint64, s.Tenants)
	for t := 1; t <= s.Tenants; t++ {
		cfg.TenantWeights[uint16(t)] = uint64(1 + (t % 3))
	}
	return cfg
}

// buildFleet assembles the rack a fleet scenario describes. The per-NIC
// template is nicConfig's, so a fleet scenario is the single-NIC scenario
// multiplied — plus placement and migration.
func buildFleet(s Scenario) *fleet.Fleet {
	cfg := nicConfig(s)
	specs := make([]fleet.TenantSpec, 0, s.Tenants)
	for t := 1; t <= s.Tenants; t++ {
		specs = append(specs, fleet.TenantSpec{
			Tenant: uint16(t),
			Home:   (t - 1) % s.Fleet,
			Client: t % s.Fleet,
			Class:  packet.ClassLatency,
			// Rack transit is plaintext, so unlike buildNIC no tenant
			// carries WAN share here.
			RateGbps: 5, Keys: 64, GetRatio: 0.9,
			ValueBytes: 256, Count: s.Requests,
			Seed: s.Seed*1000 + uint64(t),
		})
	}
	fc := fleet.Config{
		NICs:       s.Fleet,
		TorLatency: s.TorLatency,
		Shards:     s.Shards,
		NIC:        cfg,
		Tenants:    specs,
		Invariants: &invariant.Config{},
	}
	if s.Plan != nil {
		fc.FaultPlans = map[int]*fault.Plan{0: s.Plan}
	}
	if s.MigrateTenant > 0 {
		fc.Migrations = []fleet.Migration{{
			Cycle: s.MigrateCycle, Tenant: uint16(s.MigrateTenant), To: s.MigrateTo,
		}}
	}
	rack := fleet.New(fc)
	if s.Plant {
		rack.NICs[0].Program.PlantSkipTenantInvalidate()
	}
	return rack
}

// buildNIC assembles the NIC a scenario describes. Kept separate from Run
// so tests can inspect the assembly.
func buildNIC(s Scenario) *core.NIC {
	cfg := nicConfig(s)
	cfg.Invariants = &invariant.Config{}
	cfg.FaultPlan = s.Plan

	// One bounded KVS stream per tenant, split across the two ports.
	// Tenant 1 carries WAN (encrypted) traffic so crypto faults bite; the
	// rest stay LAN so cache and fabric faults dominate their fate.
	perPort := make([][]workload.Source, cfg.Ports)
	for t := 1; t <= s.Tenants; t++ {
		wan := 0.0
		if t == 1 {
			wan = 0.5
		}
		src := workload.NewKVSStream(workload.KVSTenantConfig{
			Tenant: uint16(t), Class: packet.ClassLatency,
			RateGbps: 5, FreqHz: cfg.FreqHz,
			Keys: 64, GetRatio: 0.9, WANShare: wan,
			ValueBytes: 256, Count: s.Requests,
			Seed: s.Seed*1000 + uint64(t),
		})
		p := (t - 1) % cfg.Ports
		perPort[p] = append(perPort[p], src)
	}
	sources := make([]engine.Source, cfg.Ports)
	for p, srcs := range perPort {
		switch len(srcs) {
		case 0:
		case 1:
			sources[p] = srcs[0].(engine.Source)
		default:
			sources[p] = workload.NewMerge(srcs...)
		}
	}
	nic := core.NewNIC(cfg, sources)
	if s.Plant {
		nic.Program.PlantSkipTenantInvalidate()
	}
	return nic
}
