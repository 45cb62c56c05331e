// Package benchmeas measures the simulation kernel's performance and
// compares measurement reports. It is the shared core of cmd/benchkernel
// (measure and write the committed baseline) and cmd/benchgate (measure a
// fresh run and fail on regressions against that baseline).
package benchmeas

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/fleet"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/workload"
)

// WorkerResult is one saturating-load run. Workers is always 1: every
// kernel runs on one goroutine, and the field only keeps the committed
// baseline's entry matching.
type WorkerResult struct {
	Workers    int     `json:"workers"`
	SimCycles  uint64  `json:"sim_cycles"`
	WallSec    float64 `json:"wall_sec"`
	CyclesPerS float64 `json:"sim_cycles_per_sec"`
	MsgsPerS   float64 `json:"msgs_per_sec"`
	// CacheHitRate is the RMT flow-cache hit rate over the run (0 when the
	// field predates the cache).
	CacheHitRate float64 `json:"flow_cache_hit_rate,omitempty"`
}

// FFResult is the low-load run, where the kernel skips most cycles.
// FastForward is always true: the kernel has no other loop, and the field
// only keeps the committed baseline's entry matching.
type FFResult struct {
	FastForward bool    `json:"fast_forward"`
	SimCycles   uint64  `json:"sim_cycles"`
	Skipped     uint64  `json:"skipped_cycles"`
	WallSec     float64 `json:"wall_sec"`
	CyclesPerS  float64 `json:"sim_cycles_per_sec"`
}

// FleetResult is one rack-scale run: NICs PANIC instances joined by the
// modeled ToR, advanced in epoch-synchronized shards at saturating load.
// FleetMsgsPerS is the wall-clock rate of terminal deliveries summed over
// the whole rack — the fleet-scaling headline the benchgate gates on.
type FleetResult struct {
	NICs            int     `json:"nics"`
	Shards          int     `json:"shards"`
	TorLatency      uint64  `json:"tor_latency_cycles"`
	SimCycles       uint64  `json:"sim_cycles"`
	WallSec         float64 `json:"wall_sec"`
	CyclesPerS      float64 `json:"sim_cycles_per_sec"`
	FleetMsgsPerS   float64 `json:"fleet_msgs_per_s"`
	SpeedupVs1Shard float64 `json:"speedup_vs_1_shard"`
}

// AllocResult is the steady-state allocation rate of one hot path that is
// contractually allocation-free.
type AllocResult struct {
	Name        string  `json:"name"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Report is the full measurement set, serialized to BENCH_kernel.json.
type Report struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Note       string `json:"note"`
	// Saturating holds the saturating run (the best of three).
	Saturating []WorkerResult `json:"saturating_worker_sweep"`
	LowLoad    []FFResult     `json:"low_load_fast_forward"`
	Fleet      []FleetResult  `json:"fleet,omitempty"`
	ZeroAlloc  []AllocResult  `json:"zero_alloc_paths,omitempty"`
	// MsgAllocs is the canonical NIC's allocations and allocated bytes per
	// delivered message.
	MsgAllocs *MsgAllocResult `json:"canonical_nic_allocs,omitempty"`
	// MeshWork is the canonical NIC's mesh work per delivered message,
	// over the same window.
	MeshWork *MeshWorkResult `json:"canonical_nic_mesh_work,omitempty"`
}

// Config parameterizes Measure.
type Config struct {
	// Cycles is the simulated horizon of each saturating run.
	Cycles uint64
	// LowLoadCycles is the horizon of the low-load run.
	LowLoadCycles uint64
	// FleetCycles is the horizon of each rack-scale fleet run (0 skips the
	// fleet stage).
	FleetCycles uint64
	// SkipWorkerSweep is ignored: there is no worker sweep any more. It is
	// kept only because a caller outside this module still sets it.
	SkipWorkerSweep bool
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format, args...)
	}
}

// buildNIC assembles the canonical two-tenant benchmark NIC at the given
// fraction of line rate per source.
func buildNIC(load float64) *core.NIC {
	cfg := core.DefaultConfig()
	srcs := []engine.Source{
		workload.NewKVSStream(workload.KVSTenantConfig{
			Tenant: 1, Class: packet.ClassLatency,
			RateGbps: 100 * load, FreqHz: cfg.FreqHz,
			Keys: 1024, GetRatio: 0.9, WANShare: 0.2, ValueBytes: 256,
			Seed: 21,
		}),
		workload.NewFixedStream(workload.FixedStreamConfig{
			FrameBytes: 256, RateGbps: 100 * load, FreqHz: cfg.FreqHz,
			Tenant: 2, Class: packet.ClassBulk, Seed: 22,
		}),
	}
	return core.NewNIC(cfg, srcs)
}

// Measure runs the full benchmark suite: the saturating run, the low-load
// run, the optional fleet runs, and the zero-alloc hot-path checks.
func Measure(cfg Config) Report {
	rep := Report{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "fleet shard speedup scales with physical cores; " +
			"skipped cycles are algorithmic and core-count independent",
	}

	// The saturating run is the best of three by msgs/s: single runs on a
	// noisy shared host drift more than the gate's tolerance allows for.
	var sat WorkerResult
	for trial := 0; trial < 3; trial++ {
		nic := buildNIC(0.9)
		nic.Run(2_000) // warm-up: fill the pipeline
		before := nic.WireLat.Count + nic.HostLat.Count
		start := time.Now()
		nic.Run(cfg.Cycles)
		wall := time.Since(start).Seconds()
		delivered := nic.WireLat.Count + nic.HostLat.Count - before
		hit := nic.FlowCacheStats().HitRate()
		nic.Close()
		if r := (WorkerResult{
			Workers:      1,
			SimCycles:    cfg.Cycles,
			WallSec:      wall,
			CyclesPerS:   float64(cfg.Cycles) / wall,
			MsgsPerS:     float64(delivered) / wall,
			CacheHitRate: hit,
		}); r.MsgsPerS > sat.MsgsPerS {
			sat = r
		}
	}
	rep.Saturating = []WorkerResult{sat}
	cfg.logf("saturating: %.0f simcycles/s, %.0f msgs/s (best of 3, cache hit %.1f%%)\n",
		sat.CyclesPerS, sat.MsgsPerS, 100*sat.CacheHitRate)

	nic := buildNIC(0.001)
	start := time.Now()
	nic.Run(cfg.LowLoadCycles)
	wall := time.Since(start).Seconds()
	low := FFResult{
		FastForward: true,
		SimCycles:   cfg.LowLoadCycles,
		Skipped:     nic.Builder.Kernel.SkippedCycles(),
		WallSec:     wall,
		CyclesPerS:  float64(cfg.LowLoadCycles) / wall,
	}
	nic.Close()
	rep.LowLoad = []FFResult{low}
	cfg.logf("low-load: %.0f simcycles/s, %d of %d cycles skipped\n",
		low.CyclesPerS, low.Skipped, low.SimCycles)

	if cfg.FleetCycles > 0 {
		rep.Fleet = MeasureFleet(cfg)
	}

	for _, a := range MeasureAllocs() {
		rep.ZeroAlloc = append(rep.ZeroAlloc, a)
		cfg.logf("zero-alloc path %s: %.2f allocs/op\n", a.Name, a.AllocsPerOp)
	}
	ma, mw := MeasureCanonicalNIC(msgAllocCycles)
	rep.MsgAllocs, rep.MeshWork = &ma, &mw
	cfg.logf("canonical NIC: %.2f allocs and %.1f bytes per delivered message (%d allocs of %d bytes, %d messages)\n",
		ma.AllocsPerMsg, ma.AllocBytesPerMsg, ma.Allocs, ma.AllocBytes, ma.Delivered)
	cfg.logf("canonical NIC: %.1f router ticks, %.1f worm hops and %.1f worm lane steps per delivered message (%d of %d flit hops by worms)\n",
		mw.RouterTicksPerMsg, mw.WormHopsPerMsg, mw.WormLaneStepsPerMsg, mw.WormHops, mw.FlitHops)
	return rep
}

// buildFleet assembles the canonical rack benchmark: 4 NICs, two tenants
// per NIC (one local, one homed a NIC over so half the load crosses the
// ToR), each client port offered ~90% of line rate.
func buildFleet(shards int) *fleet.Fleet {
	const nics = 4
	nicCfg := core.DefaultConfig()
	var tenants []fleet.TenantSpec
	for i := 0; i < 2*nics; i++ {
		client := i % nics
		home := client
		if i%2 == 1 {
			home = (client + 1) % nics
		}
		tenants = append(tenants, fleet.TenantSpec{
			Tenant: uint16(i + 1), Home: home, Client: client,
			Class: packet.ClassLatency, RateGbps: 45,
			Keys: 1024, GetRatio: 0.9, ValueBytes: 256,
		})
	}
	return fleet.New(fleet.Config{
		NICs:       nics,
		TorLatency: 64,
		Shards:     shards,
		NIC:        nicCfg,
		Tenants:    tenants,
	})
}

// MeasureFleet times the canonical 4-NIC rack at 1 shard and 4 shards.
// The shard axis is the one that scales on real cores: on a multi-core
// host the 4-shard run should approach 4x the 1-shard aggregate (the
// fleet-smoke CI gate); on a single core it only measures barrier
// overhead. Results are byte-identical either way — only wall time moves.
func MeasureFleet(cfg Config) []FleetResult {
	var out []FleetResult
	var base float64
	for _, shards := range []int{1, 4} {
		f := buildFleet(shards)
		f.Run(2_000) // warm-up: fill the pipelines and the ToR queues
		before := f.Delivered()
		start := time.Now()
		f.Run(cfg.FleetCycles)
		wall := time.Since(start).Seconds()
		delivered := f.Delivered() - before
		f.Close()
		r := FleetResult{
			NICs:          4,
			Shards:        shards,
			TorLatency:    64,
			SimCycles:     cfg.FleetCycles,
			WallSec:       wall,
			CyclesPerS:    float64(cfg.FleetCycles) / wall,
			FleetMsgsPerS: float64(delivered) / wall,
		}
		if shards == 1 {
			base = r.FleetMsgsPerS
		}
		r.SpeedupVs1Shard = r.FleetMsgsPerS / base
		out = append(out, r)
		cfg.logf("fleet nics=%d shards=%d: %.0f simcycles/s, %.0f fleet msgs/s (%.2fx vs 1 shard)\n",
			r.NICs, shards, r.CyclesPerS, r.FleetMsgsPerS, r.SpeedupVs1Shard)
	}
	return out
}

// Load reads a report from disk.
func Load(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("parse %s: %w", path, err)
	}
	return r, nil
}

// WriteFile serializes the report to disk in the committed-baseline format.
func (r Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Compare checks a fresh report against a baseline and returns one line
// per violation (empty = gate passes) plus informational notes:
//
//   - a matched saturating or low-load entry whose simulated-cycles/s
//     throughput fell more than tolerance (a fraction, e.g. 0.25) below
//     the baseline, or a saturating entry whose msgs/s fell likewise;
//   - a matched low-load entry over the same horizon that skipped fewer
//     cycles than the baseline (the count is exact: fewer skips means a
//     wake declared too early);
//   - a matched zero-alloc path that allocated where the baseline did not;
//   - the canonical NIC's allocations per delivered message rising past
//     the runtime's noise, or its router ticks per delivered message
//     rising at all;
//   - a baseline entry with no counterpart in the fresh report (a silently
//     dropped measurement cannot pass the gate).
//
// When the baseline was committed from a host with a different core count
// or GOMAXPROCS, the multi-shard fleet entries are skipped instead of
// compared — shard speedup is a property of the host's physical cores, so
// those numbers are not comparable across machines — and a note says so.
// The saturating entry, the low-load entry, the 1-shard fleet entry, and
// the zero-alloc contracts are always gated.
//
// Entries present only in the fresh report are ignored: adding coverage is
// never a regression.
func Compare(baseline, fresh Report, tolerance float64) (bad, notes []string) {
	floor := 1 - tolerance
	hostMismatch := baseline.NumCPU != fresh.NumCPU || baseline.GOMAXPROCS != fresh.GOMAXPROCS
	if hostMismatch {
		notes = append(notes, fmt.Sprintf(
			"host mismatch: baseline measured with num_cpu=%d gomaxprocs=%d, this host has num_cpu=%d gomaxprocs=%d; "+
				"skipping multi-shard fleet comparisons (shard speedup tracks physical cores)",
			baseline.NumCPU, baseline.GOMAXPROCS, fresh.NumCPU, fresh.GOMAXPROCS))
	}

	for _, b := range baseline.Saturating {
		found := false
		for _, f := range fresh.Saturating {
			if f.Workers != b.Workers {
				continue
			}
			found = true
			if f.CyclesPerS < b.CyclesPerS*floor {
				bad = append(bad, fmt.Sprintf(
					"saturating workers=%d: %.0f simcycles/s vs baseline %.0f (-%.0f%%, tolerance %.0f%%)",
					b.Workers, f.CyclesPerS, b.CyclesPerS,
					100*(1-f.CyclesPerS/b.CyclesPerS), 100*tolerance))
			}
			if f.MsgsPerS < b.MsgsPerS*floor {
				bad = append(bad, fmt.Sprintf(
					"saturating workers=%d: %.0f msgs/s vs baseline %.0f (-%.0f%%, tolerance %.0f%%)",
					b.Workers, f.MsgsPerS, b.MsgsPerS,
					100*(1-f.MsgsPerS/b.MsgsPerS), 100*tolerance))
			}
		}
		if !found {
			bad = append(bad, fmt.Sprintf("saturating workers=%d: missing from fresh run", b.Workers))
		}
	}

	for _, b := range baseline.LowLoad {
		found := false
		for _, f := range fresh.LowLoad {
			if f.FastForward != b.FastForward {
				continue
			}
			found = true
			if f.CyclesPerS < b.CyclesPerS*floor {
				bad = append(bad, fmt.Sprintf(
					"low-load fastforward=%v: %.0f simcycles/s vs baseline %.0f (-%.0f%%, tolerance %.0f%%)",
					b.FastForward, f.CyclesPerS, b.CyclesPerS,
					100*(1-f.CyclesPerS/b.CyclesPerS), 100*tolerance))
			}
			switch {
			case f.SimCycles != b.SimCycles:
				notes = append(notes, fmt.Sprintf(
					"low-load fastforward=%v: skipped cycles not compared (horizon %d, baseline %d)",
					b.FastForward, f.SimCycles, b.SimCycles))
			case f.Skipped < b.Skipped:
				bad = append(bad, fmt.Sprintf(
					"low-load fastforward=%v: skipped %d of %d cycles vs baseline %d (the count is exact; any fall is a regression)",
					b.FastForward, f.Skipped, f.SimCycles, b.Skipped))
			}
		}
		if !found {
			bad = append(bad, fmt.Sprintf("low-load fastforward=%v: missing from fresh run", b.FastForward))
		}
	}

	for _, b := range baseline.Fleet {
		if hostMismatch && b.Shards > 1 {
			// The 1-shard fleet entry stays comparable.
			continue
		}
		found := false
		for _, f := range fresh.Fleet {
			if f.NICs != b.NICs || f.Shards != b.Shards {
				continue
			}
			found = true
			if f.FleetMsgsPerS < b.FleetMsgsPerS*floor {
				bad = append(bad, fmt.Sprintf(
					"fleet nics=%d shards=%d: %.0f fleet msgs/s vs baseline %.0f (-%.0f%%, tolerance %.0f%%)",
					b.NICs, b.Shards, f.FleetMsgsPerS, b.FleetMsgsPerS,
					100*(1-f.FleetMsgsPerS/b.FleetMsgsPerS), 100*tolerance))
			}
		}
		if !found {
			bad = append(bad, fmt.Sprintf("fleet nics=%d shards=%d: missing from fresh run", b.NICs, b.Shards))
		}
	}

	for _, b := range baseline.ZeroAlloc {
		found := false
		for _, f := range fresh.ZeroAlloc {
			if f.Name != b.Name {
				continue
			}
			found = true
			if b.AllocsPerOp == 0 && f.AllocsPerOp > 0 {
				bad = append(bad, fmt.Sprintf(
					"zero-alloc path %s: %.2f allocs/op (baseline 0 — the path's cost contract is allocation-free)",
					b.Name, f.AllocsPerOp))
			}
		}
		if !found {
			bad = append(bad, fmt.Sprintf("zero-alloc path %s: missing from fresh run", b.Name))
		}
	}

	if b, f := baseline.MsgAllocs, fresh.MsgAllocs; b != nil && f == nil {
		bad = append(bad, "canonical NIC allocs per message: missing from fresh run")
	} else if b != nil {
		if f.AllocsPerMsg > b.AllocsPerMsg+msgAllocSlack {
			bad = append(bad, fmt.Sprintf(
				"canonical NIC: %.2f allocs per delivered message vs baseline %.2f (the count is exact; any rise is a regression)",
				f.AllocsPerMsg, b.AllocsPerMsg))
		}
		if f.AllocBytesPerMsg > b.AllocBytesPerMsg+msgAllocBytesSlack {
			bad = append(bad, fmt.Sprintf(
				"canonical NIC: %.1f bytes allocated per delivered message vs baseline %.1f (slack %.0f B; the count is exact up to the runtime's own allocations)",
				f.AllocBytesPerMsg, b.AllocBytesPerMsg, msgAllocBytesSlack))
		}
	}

	if b := baseline.MeshWork; b != nil {
		switch f := fresh.MeshWork; {
		case f == nil:
			bad = append(bad, "canonical NIC mesh work per message: missing from fresh run")
		case f.RouterTicksPerMsg > b.RouterTicksPerMsg:
			bad = append(bad, fmt.Sprintf(
				"canonical NIC: %.2f router ticks per delivered message vs baseline %.2f (the count is exact; any rise is a regression)",
				f.RouterTicksPerMsg, b.RouterTicksPerMsg))
		}
	}
	return bad, notes
}
