package chaos

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/fault"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sim"
)

// Scenario is one randomized soak run: a NIC configuration envelope, a
// workload, and a fault plan. The zero value is not runnable; build one
// with Generate or ParseScenario.
type Scenario struct {
	// Seed drives the workload streams and the NIC's internal RNG.
	Seed uint64
	// Cycles is the run horizon.
	Cycles uint64
	// Tenants is the number of weighted tenants (1..3); tenant IDs are
	// 1..Tenants, split across the two Ethernet ports.
	Tenants int
	// Requests is the bounded per-tenant request count.
	Requests uint64
	// QueueCap is each tile's scheduling-queue capacity.
	QueueCap int
	// Replicas is the total IPSec instance count (1 = primary only).
	Replicas int
	// TenantScoped declares a tenant fault domain on the KVS cache engine
	// (tenant 1 only), so cache faults exercise the tenant-scoped failover
	// path (RewriteEngineTenant) instead of whole-engine rewrites.
	TenantScoped bool
	// Plant arms the deliberately planted flow-cache invalidation-skip bug
	// (rmt.Program.PlantSkipTenantInvalidate) — the harness's self-test:
	// a chaos run over planted scenarios must catch and shrink it.
	Plant bool
	// Fleet is the rack size: 0 (or 1) soaks a single NIC; >= 2 runs the
	// scenario as a multi-NIC fleet joined by the modeled ToR, with tenant
	// t homed on NIC (t-1)%Fleet and its clients attached to NIC t%Fleet,
	// so every tenant's traffic crosses the rack. Generate keeps this 0;
	// fleet scenarios are written explicitly (tests, replay files).
	Fleet int
	// TorLatency is the fleet's inter-NIC one-way latency in cycles (0
	// means the fleet default).
	TorLatency uint64
	// Shards spreads fleet NICs across goroutines; results are identical
	// for any value.
	Shards int
	// MigrateTenant schedules one tenant re-homing at MigrateCycle to NIC
	// MigrateTo (0 = no migration; fleet mode only).
	MigrateTenant int
	MigrateCycle  uint64
	MigrateTo     int
	// Plan is the fault schedule.
	Plan *fault.Plan
}

// Generate builds the scenario for a seed, deterministically: same seed
// and horizon, same scenario, on any platform.
func Generate(seed, cycles uint64) Scenario {
	if cycles < 2000 {
		panic("chaos: horizon too short for fault schedules and detection windows")
	}
	rng := sim.NewRNG(seed ^ 0x00c4_a05e_77a0_5e77)
	// Per-tenant request counts that keep traffic flowing for most of the
	// horizon (a 5 Gbps stream injects roughly every 65 cycles), so faults
	// landing anywhere in the schedule meet live load — and so do the
	// steering rewrites they trigger.
	base := cycles / 100
	s := Scenario{
		Seed:     seed,
		Cycles:   cycles,
		Tenants:  1 + rng.Intn(3),
		Requests: base + uint64(rng.Intn(int(base))),
		QueueCap: []int{64, 128, 256}[rng.Intn(3)],
		Replicas: 1 + rng.Intn(2),
	}
	rng.Intn(3)   // the retired worker-count draw: keeps every seed's other fields unchanged
	rng.Bool(0.3) // the retired fast-forward draw, likewise
	rng.Bool(0.2) // the retired flow-cache draw, likewise
	rng.Bool(0.2) // the retired queue-backing draw, likewise
	s.TenantScoped = rng.Bool(0.5)
	tenants := make([]uint16, s.Tenants)
	for i := range tenants {
		tenants[i] = uint16(i + 1)
	}
	mesh := core.DefaultConfig().Mesh
	s.Plan = fault.RandomPlan(seed, fault.PlanSpec{
		Horizon:    cycles,
		Engines:    []packet.Addr{core.AddrIPSec, core.AddrKVSCache},
		MeshW:      mesh.Width,
		MeshH:      mesh.Height,
		Tenants:    tenants,
		MaxEvents:  4,
		AllowSever: rng.Bool(0.25),
	})
	return s
}

// String serializes the scenario in its replayable text format; a file
// holding it replays with `chaos -replay <file>`. ParseScenario is the
// exact inverse.
func (s Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# panic chaos scenario (replay: chaos -replay <file>)\n")
	fmt.Fprintf(&b, "seed %d\n", s.Seed)
	fmt.Fprintf(&b, "cycles %d\n", s.Cycles)
	fmt.Fprintf(&b, "tenants %d\n", s.Tenants)
	fmt.Fprintf(&b, "requests %d\n", s.Requests)
	fmt.Fprintf(&b, "queuecap %d\n", s.QueueCap)
	fmt.Fprintf(&b, "replicas %d\n", s.Replicas)
	fmt.Fprintf(&b, "tenantscoped %v\n", s.TenantScoped)
	fmt.Fprintf(&b, "plant %v\n", s.Plant)
	fmt.Fprintf(&b, "fleet %d\n", s.Fleet)
	fmt.Fprintf(&b, "torlatency %d\n", s.TorLatency)
	fmt.Fprintf(&b, "shards %d\n", s.Shards)
	fmt.Fprintf(&b, "migratetenant %d\n", s.MigrateTenant)
	fmt.Fprintf(&b, "migratecycle %d\n", s.MigrateCycle)
	fmt.Fprintf(&b, "migrateto %d\n", s.MigrateTo)
	b.WriteString("plan:\n")
	if s.Plan != nil {
		b.WriteString(s.Plan.String())
	}
	return b.String()
}

// RetiredKeyError is ParseScenario's error for a line whose key names a
// knob that no longer exists, as in a replay file written before the
// knob's removal.
type RetiredKeyError struct {
	Line int    // 1-based line number
	Key  string // the retired key
}

func (e *RetiredKeyError) Error() string {
	return fmt.Sprintf("chaos: line %d: key %q is retired (%s); delete the line", e.Line, e.Key, retiredKeys[e.Key])
}

// retiredKeys maps each retired scenario key to why it went.
var retiredKeys = map[string]string{
	"fastforward": "the kernel always skips idle cycles",
}

// ParseScenario reads the text scenario format: `key value` lines, then a
// `plan:` marker, then fault-plan lines (see fault.ParsePlan). Engine
// names from core.EngineAddrs resolve in the plan section. Errors carry
// the offending 1-based line number; a retired key fails with a
// *RetiredKeyError.
func ParseScenario(r io.Reader) (Scenario, error) {
	var s Scenario
	sc := bufio.NewScanner(r)
	lineNo := 0
	var planText strings.Builder
	planStart := 0
	inPlan := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if inPlan {
			planText.WriteString(line + "\n")
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "plan:" {
			inPlan = true
			planStart = lineNo
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return s, fmt.Errorf("chaos: line %d: want %q, got %q", lineNo, "key value", line)
		}
		if _, ok := retiredKeys[f[0]]; ok {
			return s, &RetiredKeyError{Line: lineNo, Key: f[0]}
		}
		if err := s.setField(f[0], f[1]); err != nil {
			return s, fmt.Errorf("chaos: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return s, fmt.Errorf("chaos: line %d: %v", lineNo, err)
	}
	plan, err := fault.ParsePlan(strings.NewReader(planText.String()), core.EngineAddrs())
	if err != nil {
		var pe *fault.ParseError
		if errors.As(err, &pe) {
			// Re-base the plan-section line number onto the scenario file.
			return s, fmt.Errorf("chaos: line %d: %q: %v", planStart+pe.Line, pe.Input, pe.Unwrap())
		}
		return s, err
	}
	s.Plan = plan
	if err := s.validate(); err != nil {
		return s, err
	}
	return s, nil
}

func (s *Scenario) setField(key, val string) error {
	u64 := func(dst *uint64) error {
		v, err := strconv.ParseUint(val, 10, 64)
		*dst = v
		return err
	}
	i := func(dst *int) error {
		v, err := strconv.Atoi(val)
		*dst = v
		return err
	}
	b := func(dst *bool) error {
		v, err := strconv.ParseBool(val)
		*dst = v
		return err
	}
	var err error
	switch key {
	case "seed":
		err = u64(&s.Seed)
	case "cycles":
		err = u64(&s.Cycles)
	case "tenants":
		err = i(&s.Tenants)
	case "requests":
		err = u64(&s.Requests)
	case "queuecap":
		err = i(&s.QueueCap)
	case "replicas":
		err = i(&s.Replicas)
	case "tenantscoped":
		err = b(&s.TenantScoped)
	case "plant":
		err = b(&s.Plant)
	case "fleet":
		err = i(&s.Fleet)
	case "torlatency":
		err = u64(&s.TorLatency)
	case "shards":
		err = i(&s.Shards)
	case "migratetenant":
		err = i(&s.MigrateTenant)
	case "migratecycle":
		err = u64(&s.MigrateCycle)
	case "migrateto":
		err = i(&s.MigrateTo)
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	if err != nil {
		return fmt.Errorf("bad %s value %q", key, val)
	}
	return nil
}

func (s Scenario) validate() error {
	switch {
	case s.Cycles < 1000:
		return fmt.Errorf("chaos: cycles %d too short (want >= 1000)", s.Cycles)
	case s.Tenants < 1 || s.Tenants > 8:
		return fmt.Errorf("chaos: tenants %d out of range [1,8]", s.Tenants)
	case s.Requests < 1:
		return fmt.Errorf("chaos: no requests")
	case s.QueueCap < 1:
		return fmt.Errorf("chaos: queuecap %d (want >= 1)", s.QueueCap)
	case s.Replicas < 1 || s.Replicas > 5:
		return fmt.Errorf("chaos: replicas %d out of range [1,5]", s.Replicas)
	case s.Fleet < 0 || s.Fleet > 8:
		return fmt.Errorf("chaos: fleet %d out of range [0,8]", s.Fleet)
	case s.Shards < 0:
		return fmt.Errorf("chaos: negative shards")
	case s.Fleet < 2 && (s.TorLatency != 0 || s.Shards != 0 || s.MigrateTenant != 0):
		return fmt.Errorf("chaos: fleet knobs (torlatency/shards/migrate*) need fleet >= 2")
	case s.MigrateTenant < 0 || s.MigrateTenant > s.Tenants:
		return fmt.Errorf("chaos: migratetenant %d out of range [0,%d]", s.MigrateTenant, s.Tenants)
	case s.MigrateTenant > 0 && (s.MigrateTo < 0 || s.MigrateTo >= s.Fleet):
		return fmt.Errorf("chaos: migrateto %d out of range [0,%d)", s.MigrateTo, s.Fleet)
	case s.MigrateTenant == 0 && (s.MigrateCycle != 0 || s.MigrateTo != 0):
		return fmt.Errorf("chaos: migratecycle/migrateto set without migratetenant")
	}
	return nil
}
