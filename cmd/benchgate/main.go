// Command benchgate is the CI performance-regression gate: it reruns the
// cmd/benchkernel measurement suite and compares the fresh numbers against
// the committed baseline (BENCH_kernel.json). The gate fails when any
// matched measurement's simulated-cycles/s throughput drops more than the
// tolerance below the baseline, when the saturating run's msgs/s drops
// likewise, when the rack-scale fleet run's aggregate fleet_msgs_per_s drops likewise, when
// a contractually allocation-free hot path starts allocating, or when the
// canonical NIC's heap allocations or mesh router ticks per delivered
// message rise above the baseline's count.
// Multi-shard fleet entries measured on a host with a different core
// count are noted, not failed.
//
// Benchmark throughput is hardware-dependent: a baseline committed from
// one machine is only directly comparable on similar hardware. When a
// runner change (not a code change) trips the gate, either refresh the
// baseline with -update and commit the new BENCH_kernel.json, or skip the
// gate for that run by setting BENCHGATE_SKIP=1 in the environment — the
// documented override for known-noisy or heterogeneous runners.
//
// Usage:
//
//	benchgate [-baseline BENCH_kernel.json] [-tolerance 0.25]
//	          [-cycles N] [-lowload-cycles N] [-update]
//
// Exit status: 0 when the gate passes (or is skipped), 1 on regression or
// error.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/panic-nic/panic/internal/benchmeas"
)

func main() {
	baseline := flag.String("baseline", "BENCH_kernel.json", "committed baseline to compare against")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional throughput drop per measurement")
	cycles := flag.Uint64("cycles", 200_000, "simulated cycles per saturating run")
	lowCycles := flag.Uint64("lowload-cycles", 1_000_000, "simulated cycles per low-load run")
	fleetCycles := flag.Uint64("fleet-cycles", 150_000, "simulated cycles per rack-scale fleet run")
	update := flag.Bool("update", false, "write the fresh measurements over the baseline instead of gating")
	flag.Parse()

	if os.Getenv("BENCHGATE_SKIP") == "1" {
		fmt.Println("benchgate: skipped (BENCHGATE_SKIP=1)")
		return
	}
	if *tolerance < 0 || *tolerance >= 1 {
		fmt.Fprintf(os.Stderr, "benchgate: tolerance %v out of range [0, 1)\n", *tolerance)
		os.Exit(1)
	}

	fresh := benchmeas.Measure(benchmeas.Config{
		Cycles:        *cycles,
		LowLoadCycles: *lowCycles,
		FleetCycles:   *fleetCycles,
		Log:           os.Stdout,
	})
	if *update {
		if err := fresh.WriteFile(*baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: write %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		fmt.Printf("benchgate: baseline %s updated\n", *baseline)
		return
	}

	base, err := benchmeas.Load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: load baseline: %v\n", err)
		os.Exit(1)
	}
	violations, notes := benchmeas.Compare(base, fresh, *tolerance)
	for _, n := range notes {
		fmt.Printf("benchgate: note: %s\n", n)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s) vs %s:\n", len(violations), *baseline)
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		fmt.Fprintln(os.Stderr, "benchgate: refresh the baseline with -update if this is an accepted change, "+
			"or set BENCHGATE_SKIP=1 for known-noisy runners")
		os.Exit(1)
	}
	n := len(base.Saturating) + len(base.LowLoad) + len(base.Fleet) + len(base.ZeroAlloc)
	if base.MsgAllocs != nil {
		n++
	}
	if base.MeshWork != nil {
		n++
	}
	fmt.Printf("benchgate: pass (%d measurements within %.0f%% of %s)\n", n, 100**tolerance, *baseline)
}
