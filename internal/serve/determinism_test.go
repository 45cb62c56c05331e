package serve

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/fault"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/trace"
	"github.com/panic-nic/panic/internal/workload"
)

// scenarioRecords builds the deterministic trace batch every mode replays:
// two tenants, a GET/SET mix, some WAN arrivals. Cycles are relative (the
// admitting op rebases them to its barrier).
func scenarioRecords() []workload.TraceRecord {
	var recs []workload.TraceRecord
	for i := 0; i < 400; i++ {
		op := packet.KVSGet
		vlen := uint32(0)
		if i%4 == 0 {
			op = packet.KVSSet
			vlen = 256
		}
		recs = append(recs, workload.TraceRecord{
			Cycle:  uint64(i * 13),
			Tenant: uint16(1 + i%2), Class: packet.ClassLatency,
			Op: op, Key: uint64(i % 64), ValueLen: vlen,
			WAN: i%5 == 0, ClientNet: 0,
		})
	}
	return recs
}

// mustEnqueue schedules an op pinned to a barrier; the test harness drives
// RunBarriers itself, so nothing waits on the reply channel (buffered).
func mustEnqueue(t *testing.T, s *Server, name string, barrier uint64, fn func(*core.NIC, uint64) (any, error)) {
	t.Helper()
	if _, err := s.enqueue(name, barrier, fn); err != nil {
		t.Fatalf("enqueue %s: %v", name, err)
	}
}

// reloadScenario runs the acceptance scenario for one kernel mode: ingest
// a trace batch and a bounded stream at barrier 1, swap tenant weights at
// barrier 4, edit the RMT program at barrier 6, inject a fault plan at
// barrier 8, then run to a fixed horizon. Returns (summary+tenant report,
// oplog JSON, Chrome trace JSON).
func reloadScenario(t *testing.T, ticked, fastForward bool) (string, string, string) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = 7
	cfg.NoEventEngine = ticked
	cfg.FastForward = fastForward
	cfg.IPSecReplicas = 2
	cfg.TenantWeights = map[uint16]uint64{1: 1, 2: 1}
	tracer := trace.New(trace.Options{FreqHz: cfg.FreqHz, Sample: 1})
	cfg.Tracer = tracer
	ports := NewIngestSources(cfg.Ports)
	nic := core.NewNIC(cfg, AsEngineSources(ports))
	defer nic.Close()
	s := New(Config{BarrierCycles: 4096, Spin: true}, nic, tracer, ports)

	recs := scenarioRecords()
	mustEnqueue(t, s, "ingest-trace", 1, func(n *core.NIC, now uint64) (any, error) {
		rc := append([]workload.TraceRecord(nil), recs...)
		for i := range rc {
			rc[i].Cycle += now
		}
		ports[0].admitBatch(rc)
		return nil, nil
	})
	desc := &StreamDesc{
		Port: 1, Tenant: 2, Class: "latency",
		RateGbps: 8, Poisson: true, Keys: 512, GetRatio: 0.9,
		WANShare: 0.2, ValueBytes: 256, Count: 600, Seed: 11,
	}
	mustEnqueue(t, s, "ingest-stream", 1, func(n *core.NIC, now uint64) (any, error) {
		ports[1].admitStream(desc.buildStream(n.Cfg.FreqHz))
		return nil, nil
	})
	mustEnqueue(t, s, "reload-weights", 4, func(n *core.NIC, now uint64) (any, error) {
		return nil, n.SetTenantWeights(map[uint16]uint64{1: 4, 2: 1})
	})
	mustEnqueue(t, s, "reload-program", 6, func(n *core.NIC, now uint64) (any, error) {
		if err := n.InstallACLDrop(0xCB007100, 24, 100); err != nil { // 203.0.113.0/24
			return nil, err
		}
		addrs := core.EngineAddrs()
		if _, err := n.RewriteSteering(addrs["ipsec"], addrs["ipsec-alt0"]); err != nil {
			return nil, err
		}
		return nil, nil
	})
	mustEnqueue(t, s, "inject-faults", 8, func(n *core.NIC, now uint64) (any, error) {
		plan := (&fault.Plan{}).Add(fault.Event{
			At: 100, Kind: fault.Slow, Engine: core.AddrIPSec, Factor: 2, For: 30_000,
		})
		return nil, n.InjectFaultPlan(plan.Shifted(now))
	})

	s.RunBarriers(60)

	cycles := nic.Now()
	fp := nic.Summary(cycles) + "\n" + nic.TenantReport()
	oplog, err := json.Marshal(s.Oplog())
	if err != nil {
		t.Fatalf("marshal oplog: %v", err)
	}
	var sb strings.Builder
	if err := tracer.Set().WriteChrome(&sb); err != nil {
		t.Fatalf("write trace: %v", err)
	}
	return fp, string(oplog), sb.String()
}

// TestHotReloadDeterminism is the serve plane's acceptance test: the same
// barrier-pinned reload sequence must produce byte-identical stats,
// oplog, and exported trace across the ticked and event-driven kernel
// loops, each with and without fast-forward — because every mutation
// lands at cycle barrier*quantum regardless of how the kernel covers the
// cycles in between.
func TestHotReloadDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-mode NIC runs are slow")
	}
	type mode struct {
		name       string
		ticked, ff bool
	}
	modes := []mode{
		{"ticked", true, false},
		{"ticked+ff", true, true},
		{"event", false, false},
		{"event+ff", false, true},
	}
	wantFP, wantOplog, wantTrace := reloadScenario(t, modes[0].ticked, modes[0].ff)
	if !strings.Contains(wantFP, "host deliveries") {
		t.Fatalf("summary looks empty:\n%s", wantFP)
	}
	if !strings.Contains(wantTrace, `"name"`) {
		t.Fatalf("trace contains no spans; tracing is not wired up")
	}
	if !strings.Contains(wantOplog, "inject-faults") {
		t.Fatalf("oplog missing scheduled ops:\n%s", wantOplog)
	}
	for _, m := range modes[1:] {
		fp, oplog, tr := reloadScenario(t, m.ticked, m.ff)
		if fp != wantFP {
			t.Errorf("mode %s: stats diverged from the ticked oracle:\nwant:\n%s\ngot:\n%s", m.name, wantFP, fp)
		}
		if oplog != wantOplog {
			t.Errorf("mode %s: oplog diverged:\nwant: %s\ngot:  %s", m.name, wantOplog, oplog)
		}
		if tr != wantTrace {
			t.Errorf("mode %s: exported trace diverged from the ticked oracle (%d vs %d bytes)", m.name, len(tr), len(wantTrace))
		}
	}
}

// TestBarrierPlacementInvariant pins the contract everything above rests
// on: barrier k is always cycle k*quantum, in every kernel mode.
func TestBarrierPlacementInvariant(t *testing.T) {
	for _, ff := range []bool{false, true} {
		cfg := core.DefaultConfig()
		cfg.FastForward = ff
		cfg.TenantWeights = map[uint16]uint64{1: 1}
		ports := NewIngestSources(cfg.Ports)
		nic := core.NewNIC(cfg, AsEngineSources(ports))
		s := New(Config{BarrierCycles: 1000, Spin: true}, nic, nil, ports)
		var atCycles []uint64
		for _, b := range []uint64{1, 3, 7} {
			mustEnqueue(t, s, "probe", b, func(n *core.NIC, now uint64) (any, error) {
				atCycles = append(atCycles, now)
				return nil, nil
			})
		}
		s.RunBarriers(10)
		nic.Close()
		want := []uint64{1000, 3000, 7000}
		if len(atCycles) != len(want) {
			t.Fatalf("ff=%v: %d ops applied, want %d", ff, len(atCycles), len(want))
		}
		for i, c := range atCycles {
			if c != want[i] {
				t.Errorf("ff=%v: op %d applied at cycle %d, want %d", ff, i, c, want[i])
			}
		}
	}
}
