package bench

import (
	"testing"

	"github.com/panic-nic/panic/internal/analytic"
	"github.com/panic-nic/panic/internal/sched"
)

// TestPaperVerdicts holds each of the paper's claims to an inequality with
// a stated margin, measured by the same function as the claim's benchmark,
// so a claim that flips fails the suite instead of only moving a reported
// metric. Every row logs what it measured:
//
//	go test -run TestPaperVerdicts -v .
//
// Under -short the rows that simulate a whole NIC or mesh skip; the exact
// rows still run.
func TestPaperVerdicts(t *testing.T) {
	rows := []struct {
		name  string
		whole bool // simulates a whole NIC or mesh
		check func(t *testing.T)
	}{
		{"Table2", false, verdictTable2},
		{"Table3", true, verdictTable3},
		{"Fig2a-HOL", true, verdictFig2aHOL},
		{"Fig2a-recirculation", true, verdictFig2aRecirculation},
		{"Fig2b", true, verdictFig2b},
		{"Fig2c", true, verdictFig2c},
		{"Fig3-hop", false, verdictHopLatency},
		{"LSTF", true, verdictLSTF},
		{"Isolation", true, verdictIsolation},
		{"RMT-passes", false, verdictRMTPasses},
		{"Descriptors", false, verdictDescriptors},
		{"DoS", true, verdictDoS},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.whole && testing.Short() {
				t.Skip("simulates a whole NIC or mesh")
			}
			t.Parallel()
			row.check(t)
		})
	}
}

// verdictTable2: the paper's two 500 MHz RMT pipelines serve every Table 2
// row at line rate, but leave the two-port 100 Gbps NIC less than two
// passes per packet (§4.2). One pipeline serves one packet per cycle.
func verdictTable2(t *testing.T) {
	measured := measureRMTServiceRate(rmtPipelines, table2Cycles)
	for _, row := range table2Rows {
		required := analytic.MinPPS(row.rate, row.ports)
		t.Logf("%s: required %.4g Mpps, RMT %.4g Mpps", row.name, required/1e6, measured/1e6)
		if measured < required {
			t.Errorf("%s: RMT serves %.4g Mpps, below the required %.4g", row.name, measured/1e6, required/1e6)
		}
		if row.name == "100Gx2" && measured >= 2*required {
			t.Errorf("100Gx2: RMT serves %.4g Mpps, two passes per packet at line rate (%.4g)", measured/1e6, required/1e6)
		}
	}
	one := measureRMTServiceRate(1, table2Cycles)
	t.Logf("1 pipeline %.4g Mpps", one/1e6)
	if one < 490e6 || one > 500e6 {
		t.Errorf("1 pipeline serves %.4g Mpps, want one packet per cycle (490-500)", one/1e6)
	}
	if measured < 1.9*one {
		t.Errorf("2 pipelines serve %.4g Mpps, under 1.9x one (%.4g)", measured/1e6, one/1e6)
	}
}

// verdictTable3: the flit-level mesh saturates between 40% and 100% of the
// uniform bisection bound on every Table 3 configuration, and scales with
// mesh size and channel width the way the analytic model does.
func verdictTable3(t *testing.T) {
	sat := map[[2]int]float64{} // by {mesh side, channel width}
	for _, row := range analytic.Table3() {
		p := row.Params
		g := measureTable3Saturation(p)
		bound := p.UniformBisectionBoundGbps()
		t.Logf("%s/%dbit: %.4g Gbps of a %.4g Gbps bound", p.Topology(), p.WidthBits, g, bound)
		if g > bound || g < 0.4*bound {
			t.Errorf("%s/%dbit: %.4g Gbps outside [0.4, 1] x the bound", p.Topology(), p.WidthBits, g)
		}
		sat[[2]int{p.K, p.WidthBits}] = g
	}
	for _, w := range []int{64, 128} {
		if small, large := sat[[2]int{6, w}], sat[[2]int{8, w}]; large <= 1.1*small {
			t.Errorf("%d bit: 8x8 (%.4g Gbps) not above 1.1x 6x6 (%.4g)", w, large, small)
		}
	}
	for _, k := range []int{6, 8} {
		r := sat[[2]int{k, 128}] / sat[[2]int{k, 64}]
		t.Logf("%dx%d: 128/64-bit ratio %.3g", k, k, r)
		if r < 1.7 || r > 2.4 {
			t.Errorf("%dx%d: 128/64-bit ratio %.3g outside [1.7, 2.4]", k, k, r)
		}
	}
}

// verdictFig2aHOL: in the fixed pipeline the plain tenant waits behind
// crypto at the IPSec stage; bypass wires help, and PANIC, which never
// chains plain traffic through IPSec, halves the bypass pipeline's p99.
func verdictFig2aHOL(t *testing.T) {
	pipe, bypass, panicNIC := measureFig2aHOL("pipeline"), measureFig2aHOL("pipeline-bypass"), measureFig2aHOL("panic")
	t.Logf("plain p99: pipeline %.4g µs, bypass %.4g µs, PANIC %.4g µs", pipe, bypass, panicNIC)
	if bypass >= pipe {
		t.Errorf("bypass p99 %.4g µs not below the pipeline's %.4g", bypass, pipe)
	}
	if panicNIC >= bypass/2 {
		t.Errorf("PANIC p99 %.4g µs not below half the bypass pipeline's %.4g", panicNIC, bypass)
	}
}

// verdictFig2aRecirculation: a chain in the pipeline's order never
// recirculates; one against it recirculates at least once per packet.
func verdictFig2aRecirculation(t *testing.T) {
	in, out := measureRecirculation("A", "B"), measureRecirculation("B", "A")
	t.Logf("recirculations per packet: in order %.4g, out of order %.4g", in, out)
	if in != 0 {
		t.Errorf("in-order chain recirculates %.4g times per packet, want 0", in)
	}
	if out < 1 {
		t.Errorf("out-of-order chain recirculates %.4g times per packet, want >= 1", out)
	}
}

// verdictFig2b: embedded-core orchestration adds 10 µs or more (§2.3.2),
// at least 10x PANIC's switch steering.
func verdictFig2b(t *testing.T) {
	many, panicNIC := measureFig2bP50("manycore-8cores"), measureFig2bP50("panic")
	t.Logf("p50: manycore %.4g µs, PANIC %.4g µs", many, panicNIC)
	if many < 10 || many < 10*panicNIC {
		t.Errorf("manycore p50 %.4g µs, want >= 10 µs and >= 10x PANIC's %.4g", many, panicNIC)
	}
}

// verdictFig2c: an RMT-only NIC punts IPSec to host software, at least 10x
// PANIC's p50; PANIC decrypts every packet on the NIC.
func verdictFig2c(t *testing.T) {
	rmtOnly, rmtPunted := measureFig2c("rmt-only")
	panicNIC, panicPunted := measureFig2c("panic")
	t.Logf("encrypted p50: RMT-only %.4g µs (%d punted), PANIC %.4g µs (%d punted)", rmtOnly, rmtPunted, panicNIC, panicPunted)
	if rmtOnly < 10*panicNIC {
		t.Errorf("RMT-only p50 %.4g µs, want >= 10x PANIC's %.4g", rmtOnly, panicNIC)
	}
	if rmtPunted == 0 || panicPunted != 0 {
		t.Errorf("punted to host software: RMT-only %d, PANIC %d; want some and none", rmtPunted, panicPunted)
	}
}

// verdictHopLatency: "The routers add one cycle of latency at each hop"
// (§3.1.2).
func verdictHopLatency(t *testing.T) {
	for _, hops := range hopCounts {
		got := measureHopLatency(hops)
		t.Logf("%d hops: %.4g cycles/hop", hops, got)
		if got != 1 {
			t.Errorf("%d hops: %v cycles/hop, want 1", hops, got)
		}
	}
}

// verdictLSTF: slack scheduling keeps the latency tenant off the bulk
// tenant's queue (§3.1.3): strict LSTF cuts FIFO's p99 tenfold, and 40 µs
// of bulk slack lands between the two.
func verdictLSTF(t *testing.T) {
	fifo := measureSchedulerIsolation(sched.RankFIFO, 0)
	slack40 := measureSchedulerIsolation(nil, 0)
	strict := measureSchedulerIsolation(nil, strictBulkSlack)
	t.Logf("latency p99: FIFO %.4g µs, LSTF 40 µs bulk slack %.4g µs, strict LSTF %.4g µs", fifo, slack40, strict)
	if strict > fifo/10 {
		t.Errorf("strict LSTF p99 %.4g µs above FIFO's %.4g / 10", strict, fifo)
	}
	if !(strict < slack40 && slack40 < fifo) {
		t.Errorf("40 µs-slack p99 %.4g µs not between strict LSTF (%.4g) and FIFO (%.4g)", slack40, strict, fifo)
	}
}

// verdictIsolation: LSTF and weighted LSTF keep the victim's p99 within 2x
// of running alone; weighted LSTF does so even when the aggressor games
// its slack, which FIFO and plain LSTF cannot (>= 10x).
func verdictIsolation(t *testing.T) {
	for _, v := range isolationVariants {
		solo, cont := measureTenantIsolation(v)
		x := cont / solo
		t.Logf("%s: victim p99 %.4g µs solo, %.4g µs contended, %.4gx", v.name, solo, cont, x)
		switch v.name {
		case "lstf", "wlstf-1to1", "wlstf-1to1-gamed-slack":
			if x > 2 {
				t.Errorf("%s: p99 inflation %.4gx, want <= 2x", v.name, x)
			}
		case "fifo", "lstf-gamed-slack":
			if x < 10 {
				t.Errorf("%s: p99 inflation %.4gx, want >= 10x", v.name, x)
			}
		}
	}
}

// verdictRMTPasses: lightweight per-engine tables follow the chain with
// one RMT pass per packet; returning to the pipeline between the three
// offloads takes four (§4.2).
func verdictRMTPasses(t *testing.T) {
	light, everyHop := measurePassesPerPacket(false), measurePassesPerPacket(true)
	t.Logf("RMT passes per packet: lightweight tables %.4g, RMT every hop %.4g", light, everyHop)
	if light != 1 {
		t.Errorf("lightweight tables: %v passes/pkt, want 1", light)
	}
	if everyHop != 4 {
		t.Errorf("rmt-every-hop: %v passes/pkt, want 4", everyHop)
	}
}

// verdictDescriptors: 32 B descriptors beat 1 KB packets on a chain that
// never touches the payload, and lose that lead when two engines fetch it
// from the central buffer (§6).
func verdictDescriptors(t *testing.T) {
	full := measureChainThroughput(1024, 0, false)
	desc := measureChainThroughput(32, 0, true)
	touched := measureChainThroughput(32, 2, true)
	t.Logf("kmsg/ms: full packets %.4g, descriptors %.4g, descriptors with 2 payload reads %.4g", full, desc, touched)
	if desc <= full {
		t.Errorf("descriptors (%.4g) not above full packets (%.4g)", desc, full)
	}
	if touched >= desc {
		t.Errorf("payload-touching (%.4g) not below pure descriptors (%.4g)", touched, desc)
	}
}

// verdictDoS: a per-tenant rate limit and an RMT ACL rule each cut the
// flooded victim's p99 tenfold (§6); the ACL drops every attacker request
// in the pipeline.
func verdictDoS(t *testing.T) {
	none, limit, acl := measureDoS("none"), measureDoS("ratelimit"), measureDoS("acl")
	t.Logf("victim p99: undefended %.4g µs, rate limit %.4g µs, ACL %.4g µs; attacker served under ACL: %d",
		none.victimP99us, limit.victimP99us, acl.victimP99us, acl.attackerServed)
	if limit.victimP99us > none.victimP99us/10 {
		t.Errorf("rate limit: victim p99 %.4g µs above the undefended %.4g / 10", limit.victimP99us, none.victimP99us)
	}
	if acl.victimP99us > none.victimP99us/10 {
		t.Errorf("ACL: victim p99 %.4g µs above the undefended %.4g / 10", acl.victimP99us, none.victimP99us)
	}
	if acl.attackerServed != 0 {
		t.Errorf("ACL served %d attacker requests, want 0", acl.attackerServed)
	}
}
