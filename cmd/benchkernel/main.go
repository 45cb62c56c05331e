// Command benchkernel measures the simulation kernel's performance on the
// canonical PANIC NIC and writes the results to a JSON file
// (BENCH_kernel.json by default):
//
//   - a saturating two-tenant run (the best of three), reporting simulated
//     cycles/s, delivered msgs/s, and the RMT flow-cache hit rate;
//   - a low-load latency-curve run, reporting effective simulated
//     cycles/s and how many cycles the kernel skipped;
//   - a rack-scale fleet run (4 NICs joined by the modeled ToR) at 1 and 4
//     shards, reporting aggregate fleet msgs/s and shard speedup;
//   - the zero-alloc hot paths' steady-state allocations per operation;
//   - the canonical NIC's heap allocations per delivered message.
//
// The host's CPU count and GOMAXPROCS are recorded alongside the numbers:
// fleet shard speedup requires real cores, while the skipped cycles are
// algorithmic and show up even on one core.
//
// The committed output is the baseline cmd/benchgate compares against.
//
// Usage:
//
//	benchkernel [-cycles N] [-lowload-cycles N] [-fleet-cycles N]
//	            [-o BENCH_kernel.json] [-cpuprofile FILE] [-memprofile FILE]
//	            [-fleet-only]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/panic-nic/panic/internal/benchmeas"
)

func main() {
	cycles := flag.Uint64("cycles", 300_000, "simulated cycles per saturating run")
	lowCycles := flag.Uint64("lowload-cycles", 2_000_000, "simulated cycles per low-load run")
	out := flag.String("o", "BENCH_kernel.json", "output JSON path")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the measurement runs to `file`")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the runs to `file`")
	fleetCycles := flag.Uint64("fleet-cycles", 200_000, "simulated cycles per rack-scale fleet run (0 skips the fleet stage)")
	fleetOnly := flag.Bool("fleet-only", false, "run only the fleet stage (the CI fleet-smoke artifact)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *cpuProfile, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "start cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var rep benchmeas.Report
	if *fleetOnly {
		rep.NumCPU = runtime.NumCPU()
		rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
		rep.Note = "fleet stage only (-fleet-only); not a full baseline"
		rep.Fleet = benchmeas.MeasureFleet(benchmeas.Config{
			FleetCycles: *fleetCycles,
			Log:         os.Stdout,
		})
	} else {
		rep = benchmeas.Measure(benchmeas.Config{
			Cycles:        *cycles,
			LowLoadCycles: *lowCycles,
			FleetCycles:   *fleetCycles,
			Log:           os.Stdout,
		})
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *memProfile, err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "write heap profile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
	if err := rep.WriteFile(*out); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
