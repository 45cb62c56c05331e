// Command chaos is the seeded chaos/soak harness: it generates
// random-but-deterministic scenarios (fault plans, tenant mixes,
// workloads, replicas), runs each with the runtime invariant
// monitor armed, and on a violation shrinks the scenario to a minimal
// reproducer written as a replayable scenario file (see ROBUSTNESS.md).
//
// Soak a seed range:
//
//	chaos -seeds 500 -cycles 20000
//
// Replay a reproducer:
//
//	chaos -replay chaos-seed42.repro
//
// Self-test the net (must fail and shrink):
//
//	chaos -seeds 50 -plant
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/panic-nic/panic/internal/chaos"
)

func main() {
	seeds := flag.Int("seeds", 100, "number of consecutive seeds to run")
	seedStart := flag.Uint64("seed-start", 0, "first seed of the range (nightly soaks advance this)")
	cycles := flag.Uint64("cycles", 20000, "horizon of each scenario in cycles")
	replay := flag.String("replay", "", "replay one scenario `file` instead of generating")
	plant := flag.Bool("plant", false, "arm the planted flow-cache invalidation-skip bug (harness self-test)")
	out := flag.String("out", ".", "directory shrunk reproducer files are written to")
	budget := flag.Int("shrink-budget", 60, "max candidate runs the shrinker may spend per failure")
	verbose := flag.Bool("v", false, "print every scenario as it runs")
	flag.Parse()

	if *replay != "" {
		os.Exit(runReplay(*replay))
	}
	os.Exit(runRange(*seedStart, *seeds, *cycles, *plant, *out, *budget, *verbose))
}

func runReplay(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer f.Close()
	s, err := chaos.ParseScenario(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if fail := chaos.Run(s); fail != nil {
		fmt.Printf("seed %d: FAIL %s\n", s.Seed, fail)
		return 1
	}
	fmt.Printf("seed %d: clean over %d cycles\n", s.Seed, s.Cycles)
	return 0
}

func runRange(start uint64, n int, cycles uint64, plant bool, out string, budget int, verbose bool) int {
	failures := 0
	for seed := start; seed < start+uint64(n); seed++ {
		s := chaos.Generate(seed, cycles)
		s.Plant = plant
		if verbose {
			fmt.Printf("seed %d: tenants=%d requests=%d queuecap=%d replicas=%d scoped=%v events=%d\n",
				seed, s.Tenants, s.Requests, s.QueueCap, s.Replicas,
				s.TenantScoped, len(s.Plan.Events))
		}
		fail := chaos.Run(s)
		if fail == nil {
			continue
		}
		failures++
		fmt.Printf("seed %d: FAIL %s\n", seed, fail)
		shrunk, spent := chaos.Shrink(s, fail, budget)
		path := filepath.Join(out, fmt.Sprintf("chaos-seed%d.repro", seed))
		if err := os.WriteFile(path, []byte(shrunk.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Printf("seed %d: shrunk to %d fault event(s) over %d cycles in %d runs -> %s\n",
			seed, len(shrunk.Plan.Events), shrunk.Cycles, spent, path)
		fmt.Print(shrunk.String())
	}
	if failures > 0 {
		fmt.Printf("%d/%d seeds failed\n", failures, n)
		return 1
	}
	fmt.Printf("%d seeds clean over %d cycles each\n", n, cycles)
	return 0
}
