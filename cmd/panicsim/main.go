// Command panicsim runs a NIC-architecture simulation: PANIC itself or one
// of the paper's Figure 2 baselines, against the multi-tenant KVS workload
// of §2.2, and prints a latency/throughput report.
//
// Usage:
//
//	panicsim -arch panic|pipeline|manycore|rmt [flags]
//
// Examples:
//
//	panicsim -arch panic -cycles 2000000 -rate 20 -wan 0.3
//	panicsim -arch manycore -cores 16
//	panicsim -arch panic -mesh 8 -width 128 -pipelines 2
//	panicsim -arch panic -rate 0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/panic-nic/panic/internal/baseline"
	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/fault"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/stats"
	"github.com/panic-nic/panic/internal/trace"
	"github.com/panic-nic/panic/internal/workload"
)

var (
	tiles         *bool
	faultPlanPath *string
	health        *bool
	ipsecReplicas *int
	dmaReplicas   *int
	tracePath     *string
	traceSample   *int
	tenantsN      *int
	tenantWeights *string
	serveMode     *bool
	listenAddr    *string
	serveQuantum  *uint64
	drainTimeout  *time.Duration
)

func main() {
	arch := flag.String("arch", "panic", "architecture: panic, pipeline, manycore, rmt")
	cycles := flag.Uint64("cycles", 2_000_000, "cycles to simulate")
	freq := flag.Float64("freq", 500e6, "clock frequency (Hz)")
	line := flag.Float64("line", 100, "line rate per port (Gbps)")
	rate := flag.Float64("rate", 10, "offered load per port (Gbps)")
	wan := flag.Float64("wan", 0.3, "fraction of requests arriving encrypted (WAN)")
	getRatio := flag.Float64("get", 0.9, "GET fraction")
	valueBytes := flag.Uint("value", 512, "value size (bytes)")
	keys := flag.Uint64("keys", 4096, "key-space size per tenant")
	warmKeys := flag.Uint64("warm", 1024, "keys pre-loaded into the on-NIC cache (panic only)")
	meshK := flag.Int("mesh", 6, "mesh dimension K (KxK, panic only)")
	width := flag.Int("width", 128, "mesh channel width in bits (panic only)")
	pipelines := flag.Int("pipelines", 2, "parallel RMT pipelines (panic only)")
	cores := flag.Int("cores", 8, "embedded cores (manycore only)")
	seed := flag.Uint64("seed", 1, "random seed")
	tiles = flag.Bool("tiles", false, "print per-tile statistics (panic only)")
	faultPlanPath = flag.String("faultplan", "", "fault-plan file to arm (panic only; see internal/fault)")
	health = flag.Bool("health", false, "enable the self-healing health monitor (panic only)")
	ipsecReplicas = flag.Int("ipsec-replicas", 0, "total IPSec engine instances (panic only)")
	dmaReplicas = flag.Int("dma-replicas", 0, "total RX-DMA engine instances (panic only)")
	tracePath = flag.String("trace", "", "write a Chrome trace_event / Perfetto JSON trace to this file (panic only)")
	traceSample = flag.Int("trace-sample", 1, "trace one message in N (1 = all; panic only)")
	tenantsN = flag.Int("tenants", 1, "number of tenants in the generated mix; -rate is split evenly across them")
	tenantWeights = flag.String("tenant-weights", "", "comma-separated scheduler weights for tenants 1..N, e.g. 4,1 (enables weighted-LSTF; panic only)")
	serveMode = flag.Bool("serve", false, "run as a long-lived HTTP control/ingest service instead of a batch run (panic only)")
	listenAddr = flag.String("listen", "127.0.0.1:8070", "serve mode listen address")
	serveQuantum = flag.Uint64("serve-quantum", 8192, "serve mode barrier quantum: cycles between reconfiguration points")
	drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "serve mode wall-clock cap on graceful drain at shutdown")
	fleetN := flag.Int("fleet", 0, "simulate a rack of N NICs joined by a modeled ToR switch (0 = single NIC; panic only)")
	torLatency := flag.Uint64("tor-latency", 64, "fleet mode inter-NIC one-way ToR latency in cycles (also the epoch length)")
	fleetShards := flag.Int("fleet-shards", 1, "fleet mode goroutine shards NICs are spread across (byte-identical results for any value)")
	fleetCross := flag.Float64("fleet-cross", 0.5, "fleet mode fraction of tenants homed on a different NIC than their clients")
	torGbps := flag.Float64("tor-gbps", 0, "fleet mode aggregate ToR fabric bandwidth cap in Gbps (0 = unlimited)")
	fleetFingerprint := flag.String("fleet-fingerprint", "", "fleet mode: write the byte-comparable rack fingerprint to this file")
	fleetTraceSample := flag.Int("fleet-trace-sample", 0, "fleet mode: embed per-NIC traces in the fingerprint, sampling one message in N (0 = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run to `file`")
	// `panicsim serve [flags]` is sugar for -serve: strip the subcommand
	// before parsing, or the flag package would treat everything after it
	// as positional.
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "serve" {
		args = args[1:]
		*serveMode = true
	}
	flag.CommandLine.Parse(args)

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
	defer func() {
		if *memProfile == "" {
			return
		}
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
	}()

	if *tenantsN < 1 {
		fmt.Fprintf(os.Stderr, "-tenants must be >= 1 (got %d)\n", *tenantsN)
		os.Exit(2)
	}
	if *serveMode {
		if *arch != "panic" {
			fmt.Fprintf(os.Stderr, "-serve supports only -arch panic (got %q)\n", *arch)
			os.Exit(2)
		}
		runServe(*freq, *line, *meshK, *width, *pipelines, *warmKeys, *seed)
		return
	}
	if *fleetN > 0 {
		if *arch != "panic" {
			fmt.Fprintf(os.Stderr, "-fleet supports only -arch panic (got %q)\n", *arch)
			os.Exit(2)
		}
		if *tracePath != "" {
			fmt.Fprintln(os.Stderr, "-trace is per-NIC only; in fleet mode use -fleet-trace-sample (traces embed in the fingerprint)")
			os.Exit(2)
		}
		runFleet(fleetOpts{
			nics: *fleetN, torLatency: *torLatency, shards: *fleetShards,
			cross: *fleetCross, torGbps: *torGbps,
			fingerprintPath: *fleetFingerprint, traceSample: *fleetTraceSample,
			cycles: *cycles, freq: *freq, line: *line,
			meshK: *meshK, width: *width, pipelines: *pipelines,
			rate: *rate, getRatio: *getRatio, valueBytes: uint32(*valueBytes),
			keys: *keys, seed: *seed,
		})
		return
	}
	var src engine.Source
	if *tenantsN > 1 {
		specs := make([]workload.TenantSpec, *tenantsN)
		for i := range specs {
			specs[i] = workload.TenantSpec{
				Tenant: uint16(i + 1), Class: packet.ClassLatency,
				RateGbps: *rate / float64(*tenantsN),
				GetRatio: *getRatio, WANShare: *wan,
				ValueBytes: uint32(*valueBytes), Keys: *keys,
			}
		}
		src = workload.NewTenantMix(*freq, specs, *seed)
	} else {
		src = workload.NewKVSStream(workload.KVSTenantConfig{
			Tenant: 1, Class: packet.ClassLatency,
			RateGbps: *rate, FreqHz: *freq, Poisson: true,
			Keys: *keys, GetRatio: *getRatio, WANShare: *wan,
			ValueBytes: uint32(*valueBytes), Seed: *seed,
		})
	}

	switch *arch {
	case "panic":
		runPanic(*cycles, *freq, *line, *meshK, *width, *pipelines, *warmKeys, *seed, src)
	case "pipeline":
		runPipeline(*cycles, *freq, *line, *seed, src)
	case "manycore":
		runManycore(*cycles, *freq, *line, *cores, *seed, src)
	case "rmt":
		runRMTOnly(*cycles, *freq, *line, *seed, src)
	default:
		fmt.Fprintf(os.Stderr, "unknown architecture %q\n", *arch)
		os.Exit(2)
	}
}

// buildPanicConfig assembles the PANIC core.Config from the shared flag
// set — one body for batch and serve modes, so the two cannot drift. The
// returned tracer is nil unless -trace was given.
func buildPanicConfig(freq, line float64, meshK, width, pipelines int, seed uint64) (core.Config, *trace.Tracer) {
	cfg := core.DefaultConfig()
	cfg.FreqHz = freq
	cfg.LineRateGbps = line
	cfg.Mesh.Width, cfg.Mesh.Height = meshK, meshK
	cfg.Mesh.FlitWidthBits = width
	cfg.RMTPipelines = pipelines
	cfg.Seed = seed
	if *ipsecReplicas > 5 || *dmaReplicas > 5 || *ipsecReplicas < 0 || *dmaReplicas < 0 {
		fmt.Fprintf(os.Stderr, "replica counts must be 0..5 (got ipsec=%d dma=%d)\n", *ipsecReplicas, *dmaReplicas)
		os.Exit(2)
	}
	cfg.IPSecReplicas = *ipsecReplicas
	cfg.DMAReplicas = *dmaReplicas
	if *tenantsN > 1 {
		for i := 0; i < *tenantsN; i++ {
			cfg.Tenants = append(cfg.Tenants, uint16(i+1))
		}
	}
	if *tenantWeights != "" {
		weights, err := parseWeights(*tenantWeights, *tenantsN)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tenant-weights: %v\n", err)
			os.Exit(2)
		}
		cfg.TenantWeights = weights
	}
	if *health {
		cfg.Health = core.DefaultHealthConfig()
	}
	var tracer *trace.Tracer
	if *tracePath != "" {
		if *traceSample < 1 {
			fmt.Fprintf(os.Stderr, "-trace-sample must be >= 1 (got %d)\n", *traceSample)
			os.Exit(2)
		}
		tracer = trace.New(trace.Options{FreqHz: freq, Sample: uint64(*traceSample)})
		cfg.Tracer = tracer
	}
	if *faultPlanPath != "" {
		f, err := os.Open(*faultPlanPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultplan: %v\n", err)
			os.Exit(2)
		}
		plan, err := fault.ParsePlan(f, core.EngineAddrs())
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultplan: %v\n", err)
			os.Exit(2)
		}
		cfg.FaultPlan = plan
	}
	return cfg, tracer
}

func runPanic(cycles uint64, freq, line float64, meshK, width, pipelines int, warmKeys, seed uint64, src engine.Source) {
	cfg, tracer := buildPanicConfig(freq, line, meshK, width, pipelines, seed)
	nic := core.NewNIC(cfg, []engine.Source{src})
	defer nic.Close()
	for k := uint64(0); k < warmKeys; k++ {
		nic.Cache.Warm(k, cfg.HostValueBytes)
	}
	nic.Run(cycles)
	fmt.Printf("PANIC: %dx%d mesh, %d-bit channels, %d RMT pipelines, %d ports @ %.0fG\n\n",
		meshK, meshK, width, pipelines, cfg.Ports, line)
	fmt.Print(nic.Summary())
	if len(cfg.Tenants) > 0 || len(cfg.TenantWeights) > 0 {
		fmt.Println()
		fmt.Print(nic.TenantReport())
	}
	if *tiles {
		fmt.Println()
		fmt.Print(nic.TileReport())
	}
	if events := nic.Events.Events(); len(events) > 0 {
		fmt.Println("\nfailure events:")
		fmt.Print(nic.Events.String())
		if mttr, ok := nic.Events.MTTR(core.AddrIPSec); ok {
			fmt.Printf("\nipsec MTTR: %d cycles (%.2f us)\n", mttr, float64(mttr)/freq*1e6)
		}
	}
	if tracer != nil {
		set := dumpTrace(tracer)
		fmt.Println()
		fmt.Print(set.SummaryText())
	}
}

// dumpTrace writes the armed tracer's spans to -trace and returns them.
func dumpTrace(tracer *trace.Tracer) *trace.Set {
	set := tracer.Set()
	f, err := os.Create(*tracePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
	werr := set.WriteChrome(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "trace: writing %s: %v\n", *tracePath, werr)
		os.Exit(1)
	}
	fmt.Printf("\ntrace: %d spans -> %s (load in https://ui.perfetto.dev)\n", len(set.Spans), *tracePath)
	return set
}

// parseWeights parses "w1,w2,..." into tenant IDs 1..n; the count must
// match -tenants so every generated tenant has an explicit weight.
func parseWeights(s string, n int) (map[uint16]uint64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("%d weights for %d tenants", len(parts), n)
	}
	out := make(map[uint16]uint64, len(parts))
	for i, p := range parts {
		w, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil || w == 0 {
			return nil, fmt.Errorf("bad weight %q (want a positive integer)", p)
		}
		out[uint16(i+1)] = w
	}
	return out, nil
}

func report(name string, cycles uint64, freq float64, lat *core.LatencyCollector, extra func(t *stats.Table)) {
	fmt.Printf("%s\n\n", name)
	t := stats.NewTable("metric", "value")
	ns := func(c float64) float64 { return c / freq * 1e9 }
	t.AddRow("cycles", cycles)
	t.AddRow("host deliveries", lat.Count)
	if lat.Count > 0 {
		t.AddRow("latency p50 (ns)", ns(lat.All.P50()))
		t.AddRow("latency p99 (ns)", ns(lat.All.P99()))
		t.AddRow("latency max (ns)", ns(lat.All.Max()))
	}
	seconds := float64(cycles) / freq
	t.AddRow("goodput (Gbps)", float64(lat.Bytes)*8/seconds/1e9)
	if extra != nil {
		extra(t)
	}
	fmt.Print(t.String())
}

func runPipeline(cycles uint64, freq, line float64, seed uint64, src engine.Source) {
	cfg := baseline.PipelineConfig{
		FreqHz: freq, LineRateGbps: line,
		Stages: []baseline.PipeStageSpec{
			{Eng: engine.NewChecksumEngine(64), Needs: baseline.NeedAll},
			{Eng: engine.NewIPSecEngine(engine.IPSecConfig{BytesPerCycle: 16, SetupCycles: 20}), Needs: baseline.NeedIPSec},
		},
		Recirculate: true,
		Seed:        seed,
	}
	p := baseline.NewPipelineNIC(cfg, src)
	p.Run(cycles)
	report("Pipeline NIC (Fig 2a): checksum -> ipsec, no bypass", cycles, freq, p.HostLat, func(t *stats.Table) {
		t.AddRow("recirculations", p.Recirculations)
		t.AddRow("entry drops", p.EntryDrops)
	})
}

func runManycore(cycles uint64, freq, line float64, cores int, seed uint64, src engine.Source) {
	cfg := baseline.ManycoreConfig{
		FreqHz: freq, LineRateGbps: line,
		Cores: cores, OrchestrationCycles: 5000, HopCycles: 2,
		Offloads: []baseline.PipeStageSpec{
			{Eng: engine.NewIPSecEngine(engine.IPSecConfig{BytesPerCycle: 16, SetupCycles: 20}), Needs: baseline.NeedIPSec},
		},
		Seed: seed,
	}
	m := baseline.NewManycoreNIC(cfg, src)
	m.Run(cycles)
	report(fmt.Sprintf("Manycore NIC (Fig 2b): %d cores, 10us orchestration", cores), cycles, freq, m.HostLat, func(t *stats.Table) {
		t.AddRow("dispatch drops", m.DispatchDrops)
	})
}

func runRMTOnly(cycles uint64, freq, line float64, seed uint64, src engine.Source) {
	cfg := baseline.RMTOnlyConfig{
		FreqHz: freq, LineRateGbps: line,
		NeedsComplex:       baseline.NeedIPSec,
		PCIeCycles:         300,
		HostCycles:         1000,
		HostComplexPerByte: 10,
		HostCores:          4,
		Seed:               seed,
	}
	r := baseline.NewRMTOnlyNIC(cfg, src)
	r.Run(cycles)
	report("RMT-only NIC (Fig 2c): complex offloads punted to host software", cycles, freq, r.HostLat, func(t *stats.Table) {
		t.AddRow("punted to host sw", r.Punted)
		t.AddRow("queue drops", r.QueueDrops)
	})
}
