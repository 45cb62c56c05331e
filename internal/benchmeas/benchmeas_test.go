package benchmeas

import (
	"path/filepath"
	"strings"
	"testing"
)

func sampleReport() Report {
	return Report{
		NumCPU: 1, GOMAXPROCS: 1,
		Saturating: []WorkerResult{
			{Workers: 1, CyclesPerS: 50_000, MsgsPerS: 4000},
		},
		LowLoad: []FFResult{
			{FastForward: true, CyclesPerS: 900_000},
		},
		Fleet: []FleetResult{
			{NICs: 4, Shards: 1, FleetMsgsPerS: 10_000},
			{NICs: 4, Shards: 4, FleetMsgsPerS: 20_000},
		},
		ZeroAlloc: []AllocResult{
			{Name: "tile-hot-path-untraced", AllocsPerOp: 0},
		},
		MsgAllocs: &MsgAllocResult{AllocsPerMsg: 6.38},
		MeshWork:  &MeshWorkResult{RouterTicksPerMsg: 135.5},
	}
}

func TestCompareWithinToleranceFasterAndExtra(t *testing.T) {
	base := sampleReport()
	fresh := sampleReport()
	// 20% slower on one entry, faster on another, plus an extra fresh-only
	// measurement: all fine at 25% tolerance.
	fresh.Saturating[0].CyclesPerS = 40_000
	fresh.Saturating[0].MsgsPerS = 3200
	fresh.LowLoad[0].CyclesPerS = 2_000_000
	fresh.Fleet = append(fresh.Fleet, FleetResult{NICs: 8, Shards: 2, FleetMsgsPerS: 1})
	if bad, _ := Compare(base, fresh, 0.25); len(bad) != 0 {
		t.Errorf("violations = %v, want none", bad)
	}
}

func TestCompareSkipsShardScalingOnHostMismatch(t *testing.T) {
	base := sampleReport()
	fresh := sampleReport()
	fresh.NumCPU = 8
	fresh.GOMAXPROCS = 8
	// The multi-shard fleet entry is missing (a different host scales
	// differently): it must be ignored under a mismatch.
	fresh.Fleet = fresh.Fleet[:1]
	bad, notes := Compare(base, fresh, 0.25)
	if len(bad) != 0 {
		t.Errorf("violations = %v, want none under host mismatch", bad)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "host mismatch") {
		t.Errorf("notes = %v, want one host-mismatch note", notes)
	}
	// The 1-shard entry is still gated.
	fresh.Fleet[0].FleetMsgsPerS = 5_000
	bad, _ = Compare(base, fresh, 0.25)
	if len(bad) != 1 || !strings.Contains(bad[0], "shards=1") {
		t.Errorf("violations = %v, want one shards=1 regression", bad)
	}
}

func TestCompareFlagsThroughputRegression(t *testing.T) {
	base := sampleReport()
	fresh := sampleReport()
	fresh.Saturating[0].CyclesPerS = 30_000 // -40% vs 50k baseline
	fresh.LowLoad[0].CyclesPerS = 500_000   // -44% vs 900k baseline
	bad, _ := Compare(base, fresh, 0.25)
	if len(bad) != 2 {
		t.Fatalf("violations = %v, want 2", bad)
	}
	if !strings.Contains(bad[0], "workers=1") || !strings.Contains(bad[1], "fastforward=true") {
		t.Errorf("violations = %v", bad)
	}
}

func TestCompareGatesSaturatedMsgsPerS(t *testing.T) {
	base := sampleReport()
	fresh := sampleReport()
	fresh.Saturating[0].MsgsPerS = 2500 // -37.5% vs the baseline's 4000
	bad, _ := Compare(base, fresh, 0.25)
	if len(bad) != 1 || !strings.Contains(bad[0], "saturating workers=1") || !strings.Contains(bad[0], "msgs/s") {
		t.Fatalf("violations = %v, want one saturated msgs/s regression", bad)
	}
	// 20% fewer msgs/s is within the 25% tolerance.
	fresh.Saturating[0].MsgsPerS = 3200
	if bad, _ := Compare(base, fresh, 0.25); len(bad) != 0 {
		t.Fatalf("violations = %v, want none at -20%%", bad)
	}
}

func TestCompareFlagsNewAllocations(t *testing.T) {
	base := sampleReport()
	fresh := sampleReport()
	fresh.ZeroAlloc[0].AllocsPerOp = 1.5
	bad, _ := Compare(base, fresh, 0.25)
	if len(bad) != 1 || !strings.Contains(bad[0], "tile-hot-path-untraced") {
		t.Fatalf("violations = %v, want one alloc violation", bad)
	}
	// The reverse — baseline allocates, fresh doesn't — is an improvement.
	if bad, _ := Compare(fresh, base, 0.25); len(bad) != 0 {
		t.Errorf("improvement flagged: %v", bad)
	}

	// The canonical NIC's allocs per message may not rise past the
	// runtime's noise, and may not go missing.
	for _, c := range []struct {
		fresh *MsgAllocResult
		want  string
	}{
		{&MsgAllocResult{AllocsPerMsg: 6.385}, ""},
		{&MsgAllocResult{AllocsPerMsg: 5}, ""},
		{&MsgAllocResult{AllocsPerMsg: 6.5}, "allocs per delivered message"},
		{nil, "missing"},
	} {
		fresh := sampleReport()
		fresh.MsgAllocs = c.fresh
		bad, _ := Compare(sampleReport(), fresh, 0.25)
		if (c.want == "") != (len(bad) == 0) || (c.want != "" && !strings.Contains(bad[0], c.want)) {
			t.Errorf("fresh %+v: violations = %v, want %q", c.fresh, bad, c.want)
		}
	}
}

func TestCompareGatesRouterTicksPerMsg(t *testing.T) {
	for _, c := range []struct {
		fresh *MeshWorkResult
		want  string
	}{
		{&MeshWorkResult{RouterTicksPerMsg: 135.5}, ""},
		{&MeshWorkResult{RouterTicksPerMsg: 100}, ""},
		{&MeshWorkResult{RouterTicksPerMsg: 135.51}, "router ticks per delivered message"},
		{nil, "missing"},
	} {
		fresh := sampleReport()
		fresh.MeshWork = c.fresh
		bad, _ := Compare(sampleReport(), fresh, 0.25)
		if (c.want == "") != (len(bad) == 0) || (c.want != "" && !strings.Contains(bad[0], c.want)) {
			t.Errorf("fresh %+v: violations = %v, want %q", c.fresh, bad, c.want)
		}
	}
}

// TestWormHopsOnlyInProduction runs the canonical saturated NIC on the
// kernel and on the reference stepper: the reference steps every flit, so
// no hop may be advanced by a worm there, while the kernel must advance
// some, or worm advance went dead without any fingerprint noticing.
func TestWormHopsOnlyInProduction(t *testing.T) {
	for _, reference := range []bool{false, true} {
		nic := buildNIC(0.9)
		if reference {
			nic.UseReference()
		}
		nic.Run(4_000)
		w, hops := nic.Builder.Mesh.Work(), nic.Builder.Mesh.Stats().FlitHops
		switch {
		case hops == 0:
			t.Fatalf("reference=%v: no flit hops", reference)
		case reference && w.WormHops != 0:
			t.Errorf("reference stepper advanced %d of %d flit hops by worms, want 0", w.WormHops, hops)
		case !reference && w.WormHops == 0:
			t.Errorf("kernel advanced none of %d flit hops by worms", hops)
		}
	}
}

func TestCompareFlagsMissingMeasurements(t *testing.T) {
	base := sampleReport()
	fresh := sampleReport()
	fresh.Saturating = nil
	fresh.LowLoad = nil
	fresh.ZeroAlloc = nil
	bad, _ := Compare(base, fresh, 0.25)
	if len(bad) != 3 {
		t.Fatalf("violations = %v, want 3 missing-measurement lines", bad)
	}
	for _, v := range bad {
		if !strings.Contains(v, "missing") {
			t.Errorf("violation %q does not say missing", v)
		}
	}
}

func TestReportRoundTripsThroughDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	want := sampleReport()
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if bad, _ := Compare(want, got, 0); len(bad) != 0 {
		t.Errorf("round-tripped report fails its own gate: %v", bad)
	}
	if got.Fleet[1] != want.Fleet[1] {
		t.Errorf("round trip lost data: %+v", got.Fleet[1])
	}
}

func TestMeasureAllocsZeroOnHotPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc sampling is slow-ish")
	}
	for _, a := range MeasureAllocs() {
		if a.AllocsPerOp != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", a.Name, a.AllocsPerOp)
		}
	}
}
