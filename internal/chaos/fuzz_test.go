package chaos

import (
	"strings"
	"testing"
)

// FuzzScenarioRoundTrip is the render→reparse fixpoint gate for the
// replay file format: any input ParseScenario accepts must render to a
// string that reparses to the very same rendering. A knob added to the
// Scenario struct but missed in String, setField, or validate breaks the
// fixpoint and this target finds it — that is exactly how the fleet knobs
// (fleet/torlatency/shards/migrate*) are kept honest.
func FuzzScenarioRoundTrip(f *testing.F) {
	for seed := uint64(0); seed < 4; seed++ {
		f.Add(Generate(seed, 20_000).String())
	}
	fleetSeed := Generate(5, 30_000)
	fleetSeed.Fleet = 4
	fleetSeed.TorLatency = 96
	fleetSeed.Shards = 2
	fleetSeed.Tenants = 2
	fleetSeed.MigrateTenant = 1
	fleetSeed.MigrateCycle = 9_000
	fleetSeed.MigrateTo = 3
	f.Add(fleetSeed.String())
	f.Add("seed 1\ncycles 20000\ntenants 1\nrequests 10\nqueuecap 64\nreplicas 1\n" +
		"tenantscoped true\nplant true\nplan:\n")
	f.Add("seed 1\ncycles 20000\ntenants 2\nrequests 10\nqueuecap 64\nreplicas 1\n" +
		"fleet 2\ntorlatency 32\nshards 2\nmigratetenant 2\nmigratecycle 5000\nmigrateto 1\nplan:\n")

	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseScenario(strings.NewReader(in))
		if err != nil {
			t.Skip() // malformed input: rejection is the correct outcome
		}
		rendered := s.String()
		got, err := ParseScenario(strings.NewReader(rendered))
		if err != nil {
			t.Fatalf("accepted scenario renders unparseable: %v\ninput:\n%s\nrendered:\n%s", err, in, rendered)
		}
		if again := got.String(); again != rendered {
			t.Fatalf("render→reparse not a fixpoint:\nfirst:\n%s\nsecond:\n%s", rendered, again)
		}
	})
}
