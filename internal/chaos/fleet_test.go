package chaos

import (
	"strings"
	"testing"

	"github.com/panic-nic/panic/internal/fault"
)

// fleetScenario is the canonical fleet soak fixture: a 3-NIC rack where
// every tenant's clients sit one NIC over from its home, a wedge fault on
// NIC 0's KVS cache, and a mid-run migration of tenant 1 onto its client
// NIC — the cross-NIC failover path.
func fleetScenario() Scenario {
	s := Generate(3, 30_000)
	s.Fleet = 3
	s.TorLatency = 64
	s.Shards = 3
	s.Tenants = 3
	s.MigrateTenant = 1
	s.MigrateCycle = 12_000
	s.MigrateTo = 1 // tenant 1's client NIC: traffic goes NIC-local after the move
	s.Plan = (&fault.Plan{}).Add(fault.Event{At: 6_000, Kind: fault.Wedge, Engine: 35, For: 4_000})
	return s
}

// TestFleetScenarioRoundTrip checks the fleet knobs survive the replay
// file format exactly — a shrunk fleet reproducer must replay as itself.
func TestFleetScenarioRoundTrip(t *testing.T) {
	s := fleetScenario()
	got, err := ParseScenario(strings.NewReader(s.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, s.String())
	}
	if got.String() != s.String() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", s.String(), got.String())
	}
}

// TestFleetScenarioValidation covers the fleet knob error paths.
func TestFleetScenarioValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Scenario){
		"fleet too big":            func(s *Scenario) { s.Fleet = 9 },
		"knobs without fleet":      func(s *Scenario) { s.Fleet = 0; s.Shards = 2 },
		"migrate unknown tenant":   func(s *Scenario) { s.MigrateTenant = s.Tenants + 1 },
		"migrate to outside rack":  func(s *Scenario) { s.MigrateTo = s.Fleet },
		"migrate cycle without id": func(s *Scenario) { s.MigrateTenant = 0; s.MigrateTo = 0 },
	} {
		s := fleetScenario()
		mutate(&s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: validation accepted %+v", name, s)
		}
	}
	s := fleetScenario()
	if err := s.validate(); err != nil {
		t.Errorf("canonical fleet scenario rejected: %v", err)
	}
}

// TestFleetMigrationFailover is the cross-NIC failover soak: while NIC
// 0's KVS cache is wedged by the fault plan, tenant 1 is re-homed from
// NIC 0 to its client NIC — and the run must stay invariant-clean, with
// the migration recorded and the tenant served at its new home. It reuses
// the scenario plumbing end to end (render → reparse → run), the same
// path a replay file takes.
func TestFleetMigrationFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak runs are slow")
	}
	s, err := ParseScenario(strings.NewReader(fleetScenario().String()))
	if err != nil {
		t.Fatal(err)
	}
	rack := buildFleet(s)
	defer rack.Close()
	rack.Run(s.Cycles)

	if vs := rack.Violations(); len(vs) > 0 {
		t.Fatalf("invariant violations: %v", vs)
	}
	if home, ok := rack.Home(1); !ok || home != s.MigrateTo {
		t.Errorf("tenant 1 home = %d, %v; want %d", home, ok, s.MigrateTo)
	}
	if len(rack.Oplog) != 1 || !strings.Contains(rack.Oplog[0], "migrate tenant=1") {
		t.Errorf("oplog = %q, want one tenant-1 migration entry", rack.Oplog)
	}
	// The new home (NIC 1) serves tenant 1 locally after the move: its
	// wire deliveries include tenant 1's responses.
	if rack.NICs[1].WireLat.Count == 0 {
		t.Error("migration target NIC delivered nothing")
	}
	if rack.TorStats().Forwarded == 0 {
		t.Error("no cross-NIC traffic despite cross-homed tenants")
	}
}

// TestFleetRunClean runs the fleet scenario through the public Run entry
// point (panic recovery and all), as cmd/chaos would.
func TestFleetRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak runs are slow")
	}
	if f := Run(fleetScenario()); f != nil {
		t.Fatalf("fleet scenario failed: %s", f)
	}
}
