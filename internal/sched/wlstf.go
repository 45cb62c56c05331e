package sched

import (
	"fmt"

	"github.com/panic-nic/panic/internal/packet"
)

// WLSTFConfig parameterizes NewRankWeightedLSTF: least-slack-time-first
// over per-tenant weights, backed by a deficit-style byte-credit bucket
// per tenant so an aggressor cannot starve a victim's slack budget.
type WLSTFConfig struct {
	// Weights are the relative service weights. A tenant with weight 2
	// sees its chain slack shrink twice as slowly as a tenant with weight
	// 1, so under contention it is scheduled proportionally sooner.
	// Unknown tenants get DefaultWeight.
	Weights       map[uint16]uint64
	DefaultWeight uint64
	// RefillPeriod is the credit-refill granularity in cycles (0 = 64).
	RefillPeriod uint64
	// QuantumBytes is the byte credit granted per weight unit per refill
	// period (0 = 1024). A tenant's fair share per period is
	// QuantumBytes × weight.
	QuantumBytes uint64
	// BurstBytes caps each tenant's credit bucket (0 = 8 × its per-period
	// grant, floored at two max-size frames so a small quantum still lets
	// a compliant tenant pay for individual large frames), bounding how
	// far an idle tenant can burst ahead.
	BurstBytes uint64
	// ExhaustedPenalty is the slack inflation, in cycles, applied to a
	// message whose tenant has spent its credit (0 = 1<<20). Penalized
	// messages still drain — they are deprioritized, not dropped — so the
	// policy is work-conserving: an aggressor alone on the NIC runs at
	// full rate, but under contention it cannot outrank in-budget tenants.
	ExhaustedPenalty uint64
}

func (c WLSTFConfig) withDefaults() WLSTFConfig {
	if c.DefaultWeight == 0 {
		c.DefaultWeight = 1
	}
	if c.RefillPeriod == 0 {
		c.RefillPeriod = 64
	}
	if c.QuantumBytes == 0 {
		c.QuantumBytes = 1024
	}
	if c.ExhaustedPenalty == 0 {
		c.ExhaustedPenalty = 1 << 20
	}
	return c
}

// wlstfTenant is one tenant's scheduler state plus the lifetime ledger the
// credit-conservation audit checks against:
//
//	credit == burst(initial fill) + credited − spent
//	earned == credited + overflow
type wlstfTenant struct {
	weight     uint64
	credit     uint64
	burst      uint64
	lastRefill uint64

	earned   uint64 // raw grant: periods × quantum × weight, pre-cap
	credited uint64 // grant actually added (post burst cap)
	overflow uint64 // grant discarded by the burst cap
	spent    uint64 // credit actually removed by ranked messages
}

// WLSTF is the weighted-LSTF rank state machine: rank is the absolute
// cycle by which service should begin (as RankLSTF), but the message's
// chain slack is scaled by maxWeight/weight — a heavier tenant's deadline
// bites sooner — and a tenant that has exhausted its per-period byte
// credit has its effective slack inflated by ExhaustedPenalty. The credit
// bucket refills deficit-style: every RefillPeriod cycles each tenant
// earns QuantumBytes × weight, capped at BurstBytes, and each ranked
// message spends its wire length. Saturating the NIC therefore drains an
// aggressor's bucket within one period, after which its messages rank
// behind every in-budget tenant regardless of how much slack the RMT
// program stamped — the victim's slack budget is protected by
// construction, not by trusting the aggressor's traffic profile.
//
// The state is deterministic given the call sequence; give each engine
// its own instance (core.NewNIC does). Refill is computed lazily from
// cycle arithmetic, so Rank is a pure state machine — byte-identical
// however many idle cycles the kernel skips.
type WLSTF struct {
	cfg     WLSTFConfig
	maxW    uint64
	tenants map[uint16]*wlstfTenant
}

// NewWLSTF builds the rank state machine. Use Rank as the queue's
// RankFunc; Audit checks credit conservation.
func NewWLSTF(cfg WLSTFConfig) *WLSTF {
	cfg = cfg.withDefaults()
	maxW := cfg.DefaultWeight
	for _, w := range cfg.Weights {
		if w > maxW {
			maxW = w
		}
	}
	return &WLSTF{cfg: cfg, maxW: maxW, tenants: make(map[uint16]*wlstfTenant)}
}

// NewRankWeightedLSTF returns a weighted-LSTF rank function — a fresh
// WLSTF instance's Rank method, for callers that only need the RankFunc.
func NewRankWeightedLSTF(cfg WLSTFConfig) RankFunc {
	return NewWLSTF(cfg).Rank
}

func (s *WLSTF) state(id uint16) *wlstfTenant {
	t := s.tenants[id]
	if t == nil {
		w := s.cfg.Weights[id]
		if w == 0 {
			w = s.cfg.DefaultWeight
		}
		grant := s.cfg.QuantumBytes * w
		burst := s.cfg.BurstBytes
		if burst == 0 {
			burst = 8 * grant
			// Two standard max-size Ethernet frames: a tenant within
			// its rate must be able to afford one frame at a time.
			if const2MTU := uint64(2 * 1538); burst < const2MTU {
				burst = const2MTU
			}
		}
		t = &wlstfTenant{weight: w, credit: burst, burst: burst}
		s.tenants[id] = t
	}
	return t
}

// SetWeights replaces the weight table — the hot-reload primitive behind
// the serve control plane's tenant-quota updates. The swap is safe
// mid-run: each tenant's credit bucket, burst cap, and lifetime ledger
// (earned/credited/overflow/spent) are untouched, so Audit's conservation
// equations keep holding across the swap; only the slack scaling and
// future refill grants change. Tenants absent from the new map fall back
// to DefaultWeight. Call it between kernel cycles (core.NIC.SetTenantWeights
// applies it at the serve loop's barrier), never concurrently with Rank.
func (s *WLSTF) SetWeights(weights map[uint16]uint64) {
	w2 := make(map[uint16]uint64, len(weights))
	maxW := s.cfg.DefaultWeight
	for id, w := range weights {
		if w == 0 {
			continue // weight 0 is "unset": the tenant reverts to default
		}
		w2[id] = w
		if w > maxW {
			maxW = w
		}
	}
	s.cfg.Weights = w2
	s.maxW = maxW
	for id, t := range s.tenants {
		w := w2[id]
		if w == 0 {
			w = s.cfg.DefaultWeight
		}
		t.weight = w
	}
}

// Weight returns the tenant's current effective weight.
func (s *WLSTF) Weight(id uint16) uint64 {
	if w := s.cfg.Weights[id]; w != 0 {
		return w
	}
	return s.cfg.DefaultWeight
}

// Rank implements RankFunc.
func (s *WLSTF) Rank(msg *packet.Message, slack uint32, now uint64) uint64 {
	t := s.state(msg.Tenant)
	// Lazy refill: whole periods elapsed since the last refill.
	if periods := (now - t.lastRefill) / s.cfg.RefillPeriod; periods > 0 {
		earned := periods * s.cfg.QuantumBytes * t.weight
		t.earned += earned
		if room := t.burst - t.credit; earned <= room {
			t.credit += earned
			t.credited += earned
		} else {
			t.credit = t.burst
			t.credited += room
			t.overflow += earned - room
		}
		t.lastRefill += periods * s.cfg.RefillPeriod
	}
	eff := uint64(slack) * s.maxW / t.weight
	cost := uint64(msg.WireLen())
	if t.credit >= cost {
		t.credit -= cost
		t.spent += cost
	} else {
		t.spent += t.credit
		t.credit = 0
		eff += s.cfg.ExhaustedPenalty
	}
	return now + eff
}

// Audit checks per-tenant deficit-credit conservation: every byte a tenant
// holds was granted (initial burst fill plus refills that fit under the
// cap) and not yet spent, the bucket never exceeds its burst cap, the
// lifetime ledger balances (earned == credited + overflow), and the refill
// clock stays period-aligned. It returns the first violation found.
func (s *WLSTF) Audit() error {
	for id, t := range s.tenants {
		if t.credit > t.burst {
			return fmt.Errorf("sched: wlstf tenant %d credit %d exceeds burst %d", id, t.credit, t.burst)
		}
		if t.earned != t.credited+t.overflow {
			return fmt.Errorf("sched: wlstf tenant %d earned %d != credited %d + overflow %d",
				id, t.earned, t.credited, t.overflow)
		}
		if want := t.burst + t.credited - t.spent; t.credit != want {
			return fmt.Errorf("sched: wlstf tenant %d credit %d != burst %d + credited %d - spent %d",
				id, t.credit, t.burst, t.credited, t.spent)
		}
		if t.lastRefill%s.cfg.RefillPeriod != 0 {
			return fmt.Errorf("sched: wlstf tenant %d refill clock %d not aligned to period %d",
				id, t.lastRefill, s.cfg.RefillPeriod)
		}
	}
	return nil
}
