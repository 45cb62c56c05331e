// Quickstart: build a PANIC NIC, push a handful of key-value requests
// through it, and print what happened to each one — the cycle-stamped
// timeline of every queue, engine, mesh hop and wire delivery it went
// through, and how long the round trip took.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"sort"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/trace"
	"github.com/panic-nic/panic/internal/workload"
)

func main() {
	// A PANIC NIC at the paper's operating point: two 100 Gbps ports,
	// 500 MHz clock, two RMT pipelines on a 6x6 mesh of 128-bit channels.
	cfg := core.DefaultConfig()
	// Trace every message: each component records cycle-stamped spans.
	tracer := trace.New(trace.Options{FreqHz: cfg.FreqHz})
	cfg.Tracer = tracer

	// One tenant sends eight GETs; 40% arrive encrypted over the WAN.
	src := workload.NewKVSStream(workload.KVSTenantConfig{
		Tenant: 1, Class: packet.ClassLatency,
		RateGbps: 2, FreqHz: cfg.FreqHz,
		Keys: 16, GetRatio: 1.0, WANShare: 0.4,
		ValueBytes: 256, Count: 8, Seed: 7,
	})

	nic := core.NewNIC(cfg, []engine.Source{src})

	// Pre-warm half the key space so some GETs are served entirely on
	// the NIC (cache -> RDMA -> DMA read -> response) without the host.
	for k := uint64(0); k < 8; k++ {
		nic.Cache.Warm(k, 256)
	}

	// Capture every response as it leaves on the wire.
	var responses []*packet.Message
	nic.WireLat.OnDeliver = func(m *packet.Message, _ uint64) {
		responses = append(responses, m)
	}

	nic.Run(100_000)

	hits, misses, _ := nic.Cache.Counts()
	dec, enc := nic.IPSec.Counts()
	fmt.Println("PANIC quickstart: 8 GET requests through a 2x100G NIC")
	fmt.Printf("  cache: %d hits, %d misses (hits bypass the host CPU entirely)\n", hits, misses)
	fmt.Printf("  ipsec: %d decrypted, %d responses re-encrypted\n\n", dec, enc)

	// A response carries its request's trace ID, so one timeline covers
	// the whole round trip: the request's inbound hops, the engine that
	// answered it, and the response's way back out to the wire.
	sort.Slice(responses, func(i, j int) bool { return responses[i].ID < responses[j].ID })
	set := tracer.Set()
	for _, m := range responses {
		us := float64(m.Done-m.Inject) / cfg.FreqHz * 1e6
		fmt.Printf("req#%d %s  rtt=%.2fus\n", m.ID, m.Pkt.String(), us)
		fmt.Println(set.Timeline(m.TraceID))
	}
}
