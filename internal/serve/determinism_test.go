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

// scenarioRecords builds the deterministic trace batch every run replays:
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

// reloadScenario runs the acceptance scenario on the kernel or on its
// reference stepper: ingest a trace batch and a bounded stream at barrier
// 1, swap tenant weights at barrier 4, edit the RMT program at barrier 6,
// inject a fault plan at barrier 8, then run to a fixed horizon. Returns (summary+tenant report,
// oplog JSON, Chrome trace JSON).
func reloadScenario(t *testing.T, reference bool) (string, string, string) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = 7
	cfg.IPSecReplicas = 2
	cfg.TenantWeights = map[uint16]uint64{1: 1, 2: 1}
	tracer := trace.New(trace.Options{FreqHz: cfg.FreqHz, Sample: 1})
	cfg.Tracer = tracer
	ports := NewIngestSources(cfg.Ports)
	nic := core.NewNIC(cfg, AsEngineSources(ports))
	defer nic.Close()
	if reference {
		nic.UseReference()
	}
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
// oplog, and exported trace on the kernel and on its reference stepper —
// because every mutation lands at cycle barrier*quantum regardless of how
// the kernel covers the cycles in between.
func TestHotReloadDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("paired NIC runs are slow")
	}
	wantFP, wantOplog, wantTrace := reloadScenario(t, true)
	if !strings.Contains(wantFP, "host deliveries") {
		t.Fatalf("summary looks empty:\n%s", wantFP)
	}
	if !strings.Contains(wantTrace, `"name"`) {
		t.Fatalf("trace contains no spans; tracing is not wired up")
	}
	if !strings.Contains(wantOplog, "inject-faults") {
		t.Fatalf("oplog missing scheduled ops:\n%s", wantOplog)
	}
	fp, oplog, tr := reloadScenario(t, false)
	if fp != wantFP {
		t.Errorf("stats diverged from the reference stepper:\nwant:\n%s\ngot:\n%s", wantFP, fp)
	}
	if oplog != wantOplog {
		t.Errorf("oplog diverged:\nwant: %s\ngot:  %s", wantOplog, oplog)
	}
	if tr != wantTrace {
		t.Errorf("exported trace diverged from the reference stepper (%d vs %d bytes)", len(tr), len(wantTrace))
	}
}

// TestBarrierPlacementInvariant pins the contract everything above rests
// on: barrier k is always cycle k*quantum, on the kernel and on its
// reference stepper.
func TestBarrierPlacementInvariant(t *testing.T) {
	for _, reference := range []bool{true, false} {
		cfg := core.DefaultConfig()
		cfg.TenantWeights = map[uint16]uint64{1: 1}
		ports := NewIngestSources(cfg.Ports)
		nic := core.NewNIC(cfg, AsEngineSources(ports))
		if reference {
			nic.UseReference()
		}
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
			t.Fatalf("reference=%v: %d ops applied, want %d", reference, len(atCycles), len(want))
		}
		for i, c := range atCycles {
			if c != want[i] {
				t.Errorf("reference=%v: op %d applied at cycle %d, want %d", reference, i, c, want[i])
			}
		}
	}
}
