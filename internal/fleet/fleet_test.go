package fleet

import (
	"fmt"
	"strings"
	"testing"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/fault"
	"github.com/panic-nic/panic/internal/invariant"
	"github.com/panic-nic/panic/internal/packet"
)

// rackTenants builds a mixed placement over nics NICs: odd tenants are
// cross-NIC (client and home differ), even tenants are NIC-local, classes
// and rates alternate so scheduling actually has work to do.
func rackTenants(nics int) []TenantSpec {
	var specs []TenantSpec
	for t := uint16(1); t <= uint16(2*nics); t++ {
		client := int(t-1) % nics
		home := client
		if t%2 == 1 {
			home = (client + 1) % nics
		}
		class := packet.ClassBulk
		if t%3 == 0 {
			class = packet.ClassLatency
		}
		specs = append(specs, TenantSpec{
			Tenant: t, Home: home, Client: client, Class: class,
			RateGbps: 1.5, Keys: 64, GetRatio: 0.75, ValueBytes: 256,
			Poisson: t%2 == 0,
		})
	}
	return specs
}

func rackConfig(nics, shards int) Config {
	return Config{
		NICs:       nics,
		TorLatency: 64,
		Shards:     shards,
		Tenants:    rackTenants(nics),
		Invariants: &invariant.Config{Every: 512},
	}
}

// TestFleetCrossTraffic checks the full cross-NIC round trip: requests
// from a tenant homed away cross the ToR, are served remotely, and the
// responses cross back and land on the client NIC's wire.
func TestFleetCrossTraffic(t *testing.T) {
	f := New(rackConfig(2, 1))
	defer f.Close()
	f.Run(60_000)

	s := f.TorStats()
	if s.Forwarded == 0 {
		t.Fatal("no frames crossed the ToR despite cross-homed tenants")
	}
	if s.Emitted == 0 {
		t.Fatal("ToR forwarded frames but no destination NIC re-emitted any")
	}
	for id, nic := range f.NICs {
		if nic.WireLat.Count == 0 {
			t.Errorf("nic %d delivered nothing to its wire (responses should return to clients)", id)
		}
	}
	// Cross tenants exist on both NICs, so both directions must carry
	// traffic: requests client->home and responses home->client.
	if s.Forwarded < 2*s.Dropped {
		t.Errorf("ToR dropped most traffic with no bandwidth cap: %+v", s)
	}
	if got := f.Violations(); len(got) != 0 {
		t.Fatalf("invariant violations: %v", got)
	}
}

// TestFleetDeterminismMatrix is the tentpole acceptance test: the same
// rack — migrations, a fault plan, and tracing armed — must produce a
// byte-identical fleet fingerprint at every shard count, matching the
// 1-shard rack on the kernel's reference stepper.
func TestFleetDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-NIC matrix runs are slow")
	}
	const nics = 4
	const horizon = 40_000

	run := func(shards int, reference bool) string {
		cfg := rackConfig(nics, shards)
		cfg.Trace = true
		cfg.TraceSample = 64
		cfg.Migrations = []Migration{
			{Cycle: 12_000, Tenant: 1, To: 2},
			{Cycle: 24_000, Tenant: 5, To: 3},
		}
		cfg.FaultPlans = map[int]*fault.Plan{
			1: (&fault.Plan{}).Add(fault.Event{At: 8_000, Kind: fault.Wedge, Engine: 35, For: 5_000}),
		}
		f := New(cfg)
		defer f.Close()
		if reference {
			f.UseReference()
		}
		f.Run(horizon)
		return f.Fingerprint()
	}

	// The reference is the 1-shard rack on the reference stepper; the
	// kernel must reproduce it exactly at every shard count.
	want := run(1, true)
	if !strings.Contains(want, "migrate tenant=1") || !strings.Contains(want, "migrate tenant=5") {
		t.Fatalf("oplog missing migrations:\n%.400s", want)
	}
	for _, shards := range []int{1, 2, 4} {
		if got := run(shards, false); got != want {
			t.Errorf("%d shards diverged from the 1-shard reference run:\n%s", shards, firstDiff(want, got))
		}
	}
}

// TestRackMatchesReference runs the rack of the fleet-smoke CI job — 4
// NICs at 8 Gb/s per client port, ToR latency 64, traces sampled 1 in 64,
// invariants armed — for 300,000 cycles on the kernel and on its reference
// stepper: the fingerprints must be byte-identical at rack scale, not just
// per NIC.
func TestRackMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("paired rack runs are slow")
	}
	const nics, rate = 4, 8.0
	run := func(reference bool) string {
		// panicsim -fleet 4 -rate 8 -tor-latency 64 -fleet-trace-sample 64:
		// two tenants per NIC at the default key space, GET ratio and value
		// size, the first half homed one NIC over from their clients.
		var tenants []TenantSpec
		for i := 0; i < 2*nics; i++ {
			client := i % nics
			home := client
			if i < nics {
				home = (client + 1) % nics
			}
			tenants = append(tenants, TenantSpec{
				Tenant: uint16(i + 1), Home: home, Client: client, Class: packet.ClassLatency,
				RateGbps: rate / 2, Keys: 4096, GetRatio: 0.9, ValueBytes: 512, Poisson: true,
			})
		}
		f := New(Config{
			NICs:        nics,
			TorLatency:  64,
			Shards:      1,
			NIC:         core.DefaultConfig(),
			Tenants:     tenants,
			Invariants:  &invariant.Config{Every: 2048},
			Trace:       true,
			TraceSample: 64,
		})
		defer f.Close()
		if reference {
			f.UseReference()
		}
		f.Run(300_000)
		if v := f.Violations(); len(v) > 0 {
			t.Fatalf("reference=%v: invariant violations: %v", reference, v)
		}
		return f.Fingerprint()
	}
	want := run(true)
	if got := run(false); got != want {
		t.Errorf("rack diverged from the reference stepper:\n%s", firstDiff(want, got))
	}
}

// TestFleetConservation checks the ToR ledger arithmetic explicitly and
// via the registered invariant: every frame picked off a wire is either
// dropped by the fabric, still in flight, or re-emitted at a destination.
func TestFleetConservation(t *testing.T) {
	f := New(rackConfig(3, 3))
	defer f.Close()
	f.Run(30_000)
	s := f.TorStats()
	if s.Forwarded != s.Injected+s.Dropped {
		t.Errorf("fabric leak: forwarded=%d injected=%d dropped=%d", s.Forwarded, s.Injected, s.Dropped)
	}
	if s.Injected != s.Emitted+s.Pending {
		t.Errorf("uplink leak: injected=%d emitted=%d pending=%d", s.Injected, s.Emitted, s.Pending)
	}
	if f.Monitor == nil {
		t.Fatal("fleet invariant monitor not armed")
	}
	if f.Monitor.Passes() == 0 {
		t.Error("fleet conservation check never ran")
	}
	if got := f.Violations(); len(got) != 0 {
		t.Fatalf("invariant violations: %v", got)
	}
}

// TestFleetTorBandwidthDrop forces the fabric budget below the offered
// cross-NIC load and checks frames are shed — and that the conservation
// ledger still balances, dropped frames included.
func TestFleetTorBandwidthDrop(t *testing.T) {
	cfg := rackConfig(2, 1)
	cfg.TorGbps = 0.05
	f := New(cfg)
	defer f.Close()
	f.Run(40_000)
	s := f.TorStats()
	if s.Dropped == 0 {
		t.Fatalf("0.05 Gb/s fabric shed nothing: %+v", s)
	}
	if s.Forwarded != s.Injected+s.Dropped || s.Injected != s.Emitted+s.Pending {
		t.Errorf("ledger does not balance under drops: %+v", s)
	}
	if got := f.Violations(); len(got) != 0 {
		t.Fatalf("invariant violations: %v", got)
	}
}

// TestFleetMigrationRedirects re-homes a cross tenant mid-run and checks
// the new home starts serving it (its wire and cache see the tenant) and
// the fleet records the move.
func TestFleetMigrationRedirects(t *testing.T) {
	cfg := rackConfig(2, 2)
	cfg.Migrations = []Migration{{Cycle: 10_000, Tenant: 1, To: 0}}
	f := New(cfg)
	defer f.Close()
	f.Run(50_000)

	if home, ok := f.Home(1); !ok || home != 0 {
		t.Fatalf("tenant 1 home = %d, %v; want 0, true", home, ok)
	}
	if len(f.Oplog) != 1 || !strings.Contains(f.Oplog[0], "migrate tenant=1 home 1->0") {
		t.Fatalf("oplog = %q", f.Oplog)
	}
	// After the move, tenant 1's requests (client NIC 1, previously served
	// by NIC 0) are served by NIC 1 itself: they stop crossing the ToR.
	before := f.TorStats().Forwarded
	f.Run(20_000)
	after := f.TorStats().Forwarded
	if after == before {
		t.Log("no ToR traffic after migration — other cross tenants should still flow")
	}
	if got := f.Violations(); len(got) != 0 {
		t.Fatalf("invariant violations: %v", got)
	}
}

// TestFleetScheduleMigrationValidates covers the public scheduling API's
// error paths.
func TestFleetScheduleMigrationValidates(t *testing.T) {
	f := New(rackConfig(2, 1))
	defer f.Close()
	if err := f.ScheduleMigration(100, 99, 1); err == nil {
		t.Error("unknown tenant accepted")
	}
	if err := f.ScheduleMigration(100, 1, 7); err == nil {
		t.Error("out-of-range NIC accepted")
	}
	if err := f.ScheduleMigration(100, 1, 1); err != nil {
		t.Errorf("valid migration rejected: %v", err)
	}
}

// firstDiff renders the first few differing lines between fingerprints.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
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
			out += fmt.Sprintf("line %d:\n  want %q\n  got  %q\n", i+1, w, g)
			if n++; n >= 8 {
				out += "  ...\n"
				break
			}
		}
	}
	return out
}
