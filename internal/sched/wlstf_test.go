package sched

import (
	"testing"

	"github.com/panic-nic/panic/internal/packet"
)

func wlstfMsg(tenant uint16, bytes int) *packet.Message {
	return &packet.Message{Tenant: tenant, Pkt: &packet.Packet{PayloadLen: bytes}}
}

func TestWLSTFWeightScalesSlack(t *testing.T) {
	rank := NewWLSTF(WLSTFConfig{
		Weights: map[uint16]uint64{1: 4, 2: 1},
		// Large budgets so credits never bite in this test.
		QuantumBytes: 1 << 20,
	}).Rank
	now := uint64(100)
	heavy := rank(wlstfMsg(1, 64), 400, now)
	light := rank(wlstfMsg(2, 64), 400, now)
	// Weight 4 vs 1 with maxW 4: heavy sees slack 400*4/4 = 400, light
	// 400*4/1 = 1600. Lower rank = served first.
	if heavy != now+400 || light != now+1600 {
		t.Errorf("ranks = %d, %d; want %d, %d", heavy, light, now+400, now+1600)
	}
	if heavy >= light {
		t.Error("heavier tenant must outrank lighter at equal slack")
	}
}

func TestWLSTFUnknownTenantGetsDefaultWeight(t *testing.T) {
	rank := NewWLSTF(WLSTFConfig{
		Weights:      map[uint16]uint64{1: 2},
		QuantumBytes: 1 << 20,
	}).Rank
	known := rank(wlstfMsg(1, 64), 100, 0)
	unknown := rank(wlstfMsg(77, 64), 100, 0)
	if unknown <= known {
		t.Errorf("unknown tenant rank %d should trail known weighted tenant %d", unknown, known)
	}
}

func TestWLSTFCreditExhaustionPenalizesAggressor(t *testing.T) {
	cfg := WLSTFConfig{
		Weights:    map[uint16]uint64{1: 1, 2: 1},
		BurstBytes: 2048,
	}
	rank := NewWLSTF(cfg).Rank
	// Aggressor (tenant 2) burns its 2048-byte burst with two 1024-byte
	// messages, all at cycle 0 so no refill happens.
	r1 := rank(wlstfMsg(2, 1024), 100, 0)
	r2 := rank(wlstfMsg(2, 1024), 100, 0)
	if r1 != r2 {
		t.Errorf("in-budget ranks differ: %d vs %d", r1, r2)
	}
	broke := rank(wlstfMsg(2, 1024), 100, 0)
	if broke < r1+(1<<20) {
		t.Errorf("exhausted tenant rank %d not penalized (in-budget %d)", broke, r1)
	}
	// The victim (tenant 1) still has credit: its message outranks the
	// aggressor's even with far less slack headroom.
	victim := rank(wlstfMsg(1, 64), 5000, 0)
	if victim >= broke {
		t.Errorf("victim rank %d must beat exhausted aggressor %d", victim, broke)
	}
}

func TestWLSTFCreditRefillsDeficitStyle(t *testing.T) {
	cfg := WLSTFConfig{
		Weights:    map[uint16]uint64{2: 1},
		BurstBytes: 1024,
	}
	rank := NewWLSTF(cfg).Rank
	fresh := rank(wlstfMsg(2, 1024), 100, 0) // spends the full burst
	broke := rank(wlstfMsg(2, 1024), 100, 0)
	if broke <= fresh {
		t.Fatal("second message should have exhausted the bucket")
	}
	// One refill period later the tenant has earned a fresh quantum.
	healed := rank(wlstfMsg(2, 512), 100, 64)
	if healed != 64+100 {
		t.Errorf("post-refill rank = %d, want %d (un-penalized LSTF)", healed, 64+100)
	}
	// Idle periods cannot bank past the burst cap: after a very long idle
	// stretch the tenant still cannot pay for more than BurstBytes.
	rank(wlstfMsg(2, 1024), 100, 1_000_000) // drains the (capped) bucket
	over := rank(wlstfMsg(2, 1024), 100, 1_000_000)
	if over < 1_000_000+100+(1<<20) {
		t.Errorf("burst cap not enforced: rank %d after long idle", over)
	}
}

func TestWLSTFWorkConserving(t *testing.T) {
	// Penalized messages still get a finite rank: a saturating tenant
	// alone on the NIC keeps draining, just with inflated deadlines.
	rank := NewWLSTF(WLSTFConfig{Weights: map[uint16]uint64{1: 1}}).Rank
	var last uint64
	for i := 0; i < 1000; i++ {
		last = rank(wlstfMsg(1, 1500), 100, uint64(i))
	}
	if last == 0 || last == ^uint64(0) {
		t.Errorf("penalized rank %d not a usable deadline", last)
	}
}

func TestWLSTFDeterministicAcrossInstances(t *testing.T) {
	cfg := WLSTFConfig{Weights: map[uint16]uint64{1: 3, 2: 1, 7: 5}}
	a := NewWLSTF(cfg).Rank
	b := NewWLSTF(cfg).Rank
	tenants := []uint16{1, 2, 7, 2, 1, 7, 7, 1}
	for i, tn := range tenants {
		now := uint64(i * 37)
		m := wlstfMsg(tn, 64+i*200)
		if ra, rb := a(m, uint32(i*11), now), b(m, uint32(i*11), now); ra != rb {
			t.Fatalf("call %d: instance ranks diverge: %d vs %d", i, ra, rb)
		}
	}
}
