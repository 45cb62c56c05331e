package core

import (
	"strconv"
	"strings"
	"testing"

	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/workload"
)

// kvsSource builds a bounded single-tenant KVS stream for port 0.
func kvsSource(count uint64, getRatio, wanShare float64, seed uint64) *workload.KVSStream {
	return workload.NewKVSStream(workload.KVSTenantConfig{
		Tenant: 1, Class: packet.ClassLatency,
		RateGbps: 5, FreqHz: 500e6,
		Keys: 64, GetRatio: getRatio, WANShare: wanShare,
		ValueBytes: 256, Count: count, Seed: seed,
	})
}

// TestNICCommitterCount pins the Commit phase's fixed per-cycle cost. The
// mesh commits its own lanes, so with tracing off the canonical NIC's
// kernel visits only the mesh and the three staged sinks (two wire ports
// and the DMA engine's host sink).
func TestNICCommitterCount(t *testing.T) {
	nic := NewNIC(DefaultConfig(), nil)
	defer nic.Close()
	if n := nic.Builder.Kernel.Committers(); n > 4 {
		t.Fatalf("canonical NIC registers %d committers, want at most 4", n)
	}
}

func TestNICEndToEndGetMissServedByHost(t *testing.T) {
	cfg := DefaultConfig()
	src := kvsSource(20, 1.0, 0, 42) // all GETs, all LAN, cold cache
	nic := NewNIC(cfg, []engine.Source{src})
	if !nic.RunQuiet(2000, 2_000_000) {
		t.Fatal("NIC did not go quiet")
	}
	// Every GET missed the cold cache, reached the host, and a response
	// left on the wire.
	hits, misses, _ := nic.Cache.Counts()
	if hits != 0 || misses != 20 {
		t.Errorf("cache hits/misses = %d/%d, want 0/20", hits, misses)
	}
	gets, _ := nic.Host.Counts()
	if gets != 20 {
		t.Errorf("host served %d GETs, want 20", gets)
	}
	if nic.WireLat.Count != 20 {
		t.Errorf("wire responses = %d, want 20", nic.WireLat.Count)
	}
	if nic.Drops.Value() != 0 {
		t.Errorf("drops = %d", nic.Drops.Value())
	}
	// Responses must be well-formed GET responses.
	if nic.HostLat.Count != 20 {
		t.Errorf("host deliveries = %d", nic.HostLat.Count)
	}
}

func TestNICCacheHitBypassesHost(t *testing.T) {
	cfg := DefaultConfig()
	src := kvsSource(30, 1.0, 0, 7)
	nic := NewNIC(cfg, []engine.Source{src})
	// Warm the cache with every key the tenant can draw.
	for k := uint64(0); k < 64; k++ {
		nic.Cache.Warm(k, 256)
	}
	if !nic.RunQuiet(2000, 2_000_000) {
		t.Fatal("NIC did not go quiet")
	}
	hits, misses, _ := nic.Cache.Counts()
	if hits != 30 || misses != 0 {
		t.Errorf("cache hits/misses = %d/%d, want 30/0", hits, misses)
	}
	gets, _ := nic.Host.Counts()
	if gets != 0 {
		t.Errorf("host served %d GETs, want 0 (CPU bypass)", gets)
	}
	issued, replies := nic.RDMA.Counts()
	if issued != 30 || replies != 30 {
		t.Errorf("RDMA issued/replies = %d/%d", issued, replies)
	}
	if nic.WireLat.Count != 30 {
		t.Errorf("wire responses = %d, want 30", nic.WireLat.Count)
	}
	// CPU-bypass responses skip the ~1000-cycle host path: p50 RTT must
	// be well under the host service time.
	if p50 := nic.WireLat.All.P50(); p50 >= float64(cfg.HostCycles) {
		t.Errorf("bypass p50 = %v cycles, want < host %d", p50, cfg.HostCycles)
	}
}

func TestNICCacheHitFasterThanMiss(t *testing.T) {
	run := func(warm bool) float64 {
		cfg := DefaultConfig()
		src := kvsSource(25, 1.0, 0, 9)
		nic := NewNIC(cfg, []engine.Source{src})
		if warm {
			for k := uint64(0); k < 64; k++ {
				nic.Cache.Warm(k, 256)
			}
		}
		if !nic.RunQuiet(2000, 2_000_000) {
			t.Fatal("NIC did not go quiet")
		}
		return nic.WireLat.All.P50()
	}
	hit, miss := run(true), run(false)
	if hit*2 >= miss {
		t.Errorf("cache hit p50 %v not clearly below miss p50 %v", hit, miss)
	}
}

func TestNICWANRequestsDecryptAndReencrypt(t *testing.T) {
	cfg := DefaultConfig()
	src := kvsSource(15, 1.0, 1.0, 3) // all WAN
	nic := NewNIC(cfg, []engine.Source{src})
	if !nic.RunQuiet(2000, 2_000_000) {
		t.Fatal("NIC did not go quiet")
	}
	dec, enc := nic.IPSec.Counts()
	if dec != 15 {
		t.Errorf("decrypted %d, want 15", dec)
	}
	// Replies to WAN clients are re-encrypted on the way out.
	if enc != 15 {
		t.Errorf("encrypted %d, want 15", enc)
	}
	if nic.WireLat.Count != 15 {
		t.Errorf("wire responses = %d", nic.WireLat.Count)
	}
	// Encrypted messages make two RMT passes: >= 2 per request plus one
	// per response.
	if got := nic.RMTStats().Accepted; got < 45 {
		t.Errorf("RMT passes = %d, want >= 45", got)
	}
}

func TestNICSetsPopulateCacheAndHost(t *testing.T) {
	cfg := DefaultConfig()
	src := kvsSource(20, 0, 0, 5) // all SETs
	nic := NewNIC(cfg, []engine.Source{src})
	if !nic.RunQuiet(2000, 2_000_000) {
		t.Fatal("NIC did not go quiet")
	}
	_, _, sets := nic.Cache.Counts()
	if sets != 20 {
		t.Errorf("cache saw %d SETs", sets)
	}
	if nic.Cache.CacheLen() == 0 {
		t.Error("cache empty after SETs")
	}
	_, hostSets := nic.Host.Counts()
	if hostSets != 20 {
		t.Errorf("host absorbed %d SETs", hostSets)
	}
	if nic.Host.StoreLen() == 0 {
		t.Error("host store empty")
	}
	// SET acks left on the wire.
	if nic.WireLat.Count != 20 {
		t.Errorf("acks = %d", nic.WireLat.Count)
	}
}

func TestNICSetThenGetHitsCache(t *testing.T) {
	cfg := DefaultConfig()
	// Interleave: first SETs then GETs on the same key space, same
	// stream (GetRatio 0.5 over 64 keys with heavy skew makes hot keys
	// hit after their first SET).
	src := kvsSource(200, 0.5, 0, 21)
	nic := NewNIC(cfg, []engine.Source{src})
	if !nic.RunQuiet(2000, 8_000_000) {
		t.Fatal("NIC did not go quiet")
	}
	hits, _, _ := nic.Cache.Counts()
	if hits == 0 {
		t.Error("no GET ever hit a SET-populated cache entry")
	}
	if nic.WireLat.Count != 200 {
		t.Errorf("responses = %d, want 200", nic.WireLat.Count)
	}
}

func TestNICDropRule(t *testing.T) {
	cfg := DefaultConfig()
	src := kvsSource(10, 1.0, 0, 4)
	nic := NewNIC(cfg, []engine.Source{src})
	// Drop everything from 10.0.0.0/8 (the LAN clients).
	InstallDropRule(nic.Program, 10<<24, 8, 100)
	if !nic.RunQuiet(2000, 1_000_000) {
		t.Fatal("NIC did not go quiet")
	}
	if nic.WireLat.Count != 0 || nic.HostLat.Count != 0 {
		t.Errorf("dropped traffic was served: wire=%d host=%d", nic.WireLat.Count, nic.HostLat.Count)
	}
	if nic.RMTStats().Dropped != 10 {
		t.Errorf("RMT drops = %d, want 10", nic.RMTStats().Dropped)
	}
}

func TestNICDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		cfg := DefaultConfig()
		src := kvsSource(50, 0.8, 0.3, 77)
		nic := NewNIC(cfg, []engine.Source{src})
		nic.RunQuiet(2000, 4_000_000)
		return nic.WireLat.Count, nic.WireLat.All.Mean()
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Errorf("same seed diverged: (%d,%v) vs (%d,%v)", c1, m1, c2, m2)
	}
}

func TestNICInterruptCoalescing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InterruptCoalesce = 4
	src := kvsSource(16, 1.0, 0, 2)
	nic := NewNIC(cfg, []engine.Source{src})
	if !nic.RunQuiet(2000, 2_000_000) {
		t.Fatal("NIC did not go quiet")
	}
	notif, irqs := nic.PCIe.Counts()
	if notif != 16 {
		t.Errorf("notifications = %d, want 16", notif)
	}
	if irqs != 4 {
		t.Errorf("interrupts = %d, want 4 (coalesce 4)", irqs)
	}
}

func TestNICTwoPorts(t *testing.T) {
	cfg := DefaultConfig()
	mk := func(port byte, seed uint64) engine.Source {
		return workload.NewKVSStream(workload.KVSTenantConfig{
			Tenant: uint16(port) + 1, Class: packet.ClassLatency,
			RateGbps: 5, FreqHz: 500e6,
			Keys: 32, GetRatio: 1.0, ValueBytes: 128,
			ClientNet: port, Count: 10, Seed: seed,
		})
	}
	nic := NewNIC(cfg, []engine.Source{mk(0, 1), mk(1, 2)})
	if !nic.RunQuiet(2000, 2_000_000) {
		t.Fatal("NIC did not go quiet")
	}
	// Responses return through the arrival port's subnet mapping.
	if nic.MACs[0].TxCount() != 10 || nic.MACs[1].TxCount() != 10 {
		t.Errorf("tx per port = %d/%d, want 10/10", nic.MACs[0].TxCount(), nic.MACs[1].TxCount())
	}
}

func TestNICConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config, *[]engine.Source){
		"too many sources": func(c *Config, s *[]engine.Source) {
			*s = make([]engine.Source, c.Ports+1)
		},
		"no pipelines": func(c *Config, s *[]engine.Source) { c.RMTPipelines = 0 },
		"tiny mesh": func(c *Config, s *[]engine.Source) {
			c.Mesh.Width, c.Mesh.Height = 2, 2
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", name)
				}
			}()
			cfg := DefaultConfig()
			srcs := []engine.Source{}
			mutate(&cfg, &srcs)
			NewNIC(cfg, srcs)
		}()
	}
}

func TestNICSummaryRenders(t *testing.T) {
	cfg := DefaultConfig()
	src := kvsSource(5, 1.0, 0, 1)
	nic := NewNIC(cfg, []engine.Source{src})
	nic.RunQuiet(2000, 1_000_000)
	s := nic.Summary(nic.Now())
	if len(s) == 0 {
		t.Fatal("empty summary")
	}
}

// TestNICSummaryAccountsForEveryFrame: once the NIC drains, the summary's
// delivery and drop rows, and the /statz snapshot's, add up to the
// received frames. Minimum-size frames at 50 Gbps per port overrun the RMT
// queues, so the rmt drops must carry the losses no scheduling-queue
// counter sees: sheds of bulk frames, refusals of lossless control frames.
func TestNICSummaryAccountsForEveryFrame(t *testing.T) {
	for _, class := range []packet.Class{packet.ClassBulk, packet.ClassControl} {
		t.Run(class.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			srcs := make([]engine.Source, 2)
			for p := range srcs {
				srcs[p] = workload.NewFixedStream(workload.FixedStreamConfig{
					FrameBytes: 64, RateGbps: 50, FreqHz: cfg.FreqHz, Poisson: true,
					Tenant: uint16(p + 1), Class: class, Count: 3000, Seed: uint64(p) + 1,
				})
			}
			nic := NewNIC(cfg, srcs)
			if !nic.RunQuiet(5000, 5_000_000) {
				t.Fatal("did not drain")
			}
			rows := make(map[string]uint64)
			for _, line := range strings.Split(nic.Summary(nic.Now()), "\n") {
				f := strings.Fields(line)
				if len(f) < 2 {
					continue
				}
				if v, err := strconv.ParseUint(f[len(f)-1], 10, 64); err == nil {
					rows[strings.Join(f[:len(f)-1], " ")] = v
				}
			}
			if rows["rx packets"] != 6000 {
				t.Fatalf("rx packets = %d, want 6000", rows["rx packets"])
			}
			if rows["rmt drops"] == 0 {
				t.Fatal("minimum-size frames at 50 Gbps per port lost nothing at the RMT queues")
			}
			out := rows["host deliveries"] + rows["wire deliveries"] + rows["sched drops"] + rows["rmt drops"]
			if out != rows["rx packets"] {
				t.Errorf("host %d + wire %d + sched drops %d + rmt drops %d = %d, want rx packets %d",
					rows["host deliveries"], rows["wire deliveries"], rows["sched drops"], rows["rmt drops"],
					out, rows["rx packets"])
			}
			st := nic.Snapshot()
			if out := st.HostDeliveries + st.WireDeliveries + st.SchedDrops + st.RMTDropped; out != st.RxPackets {
				t.Errorf("snapshot: host %d + wire %d + sched drops %d + rmt dropped %d = %d, want rx packets %d",
					st.HostDeliveries, st.WireDeliveries, st.SchedDrops, st.RMTDropped, out, st.RxPackets)
			}
		})
	}
}

// TestObservedMessagesAreNotRecycled: a collector with an OnDeliver
// observer keeps its messages out of the pool, because the observer may
// retain them. Were they recycled, later deliveries would hand the
// observer the same shells again.
func TestObservedMessagesAreNotRecycled(t *testing.T) {
	nic := NewNIC(DefaultConfig(), benchSources(0.9))
	seen := make(map[*packet.Message]bool)
	observe := func(m *packet.Message, _ uint64) {
		if seen[m] {
			t.Fatalf("message %d delivered to an observer in a recycled shell", m.ID)
		}
		seen[m] = true
	}
	nic.WireLat.OnDeliver = observe
	nic.HostLat.OnDeliver = observe
	nic.Run(30_000)
	if len(seen) < 1000 {
		t.Fatalf("only %d deliveries observed", len(seen))
	}
	for m := range seen {
		m.AssertLive()
	}
}
