// Command trafficgen records synthetic workloads into replayable trace
// files and replays them against a PANIC NIC.
//
// Generate a 1 ms three-tenant KVS trace:
//
//	trafficgen -mode generate -cycles 500000 -out trace.txt
//
// Replay it:
//
//	trafficgen -mode replay -in trace.txt -cycles 600000
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/workload"
)

func main() {
	mode := flag.String("mode", "generate", "generate or replay")
	cycles := flag.Uint64("cycles", 500_000, "cycles to record / simulate")
	out := flag.String("out", "trace.txt", "trace output file (generate)")
	in := flag.String("in", "trace.txt", "trace input file (replay)")
	rate := flag.Float64("rate", 8, "per-tenant offered load (Gbps, generate)")
	tenants := flag.Int("tenants", 3, "tenant count (generate)")
	wan := flag.Float64("wan", 0.2, "WAN share (generate)")
	seed := flag.Uint64("seed", 1, "seed (generate)")
	flag.Parse()

	switch *mode {
	case "generate":
		generate(*out, *cycles, *rate, *tenants, *wan, *seed)
	case "replay":
		replay(*in, *cycles)
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

func generate(path string, cycles uint64, rate float64, tenants int, wan float64, seed uint64) {
	var srcs []workload.Source
	for i := 0; i < tenants; i++ {
		class := packet.ClassLatency
		if i%2 == 1 {
			class = packet.ClassBulk
		}
		srcs = append(srcs, workload.NewKVSStream(workload.KVSTenantConfig{
			Tenant: uint16(i + 1), Class: class,
			RateGbps: rate, FreqHz: 500e6, Poisson: true,
			Keys: 4096, GetRatio: 0.85, WANShare: wan, ValueBytes: 512,
			Seed: seed + uint64(i),
		}))
	}
	records := workload.Record(workload.NewMerge(srcs...), cycles)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := workload.WriteTrace(f, records); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d records (%d cycles, %d tenants) to %s\n", len(records), cycles, tenants, path)
}

func replay(path string, cycles uint64) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	records, err := workload.ReadTrace(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	src := workload.NewTraceSource(records)
	nic := core.NewNIC(core.DefaultConfig(), []engine.Source{src})
	nic.Run(cycles)
	fmt.Printf("replayed %d/%d records over %d cycles\n\n", len(records)-src.Remaining(), len(records), cycles)
	fmt.Print(nic.Summary())
}
