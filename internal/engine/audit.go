package engine

import (
	"fmt"

	"github.com/panic-nic/panic/internal/packet"
)

// This file implements the per-tile custody audits behind the runtime
// invariant monitor (internal/invariant). Every audit is read-only and
// valid only between cycles (the kernel's end-of-cycle barrier), when all
// staged state is committed.

// Occupancy returns how many messages the tile currently holds: queued,
// in service, staged for emission, or delay-pending.
func (t *Tile) Occupancy() int {
	n := t.queue.Len() + t.outLen() + len(t.pending)
	if t.cur != nil {
		n++
	}
	return n
}

// AuditConservation checks the tile's message-custody ledger: everything
// that ever entered custody (Ejected from the fabric, Generated, or
// produced by Process) either left it (Emitted, Processed, Dropped,
// Refused) or is still resident. It also audits the scheduling queue's
// own ledger and the per-tenant balance:
//
//	Enqueued_t = Processed_t + (Dropped_t − Rejected_t) + Drained_t
//	             + queued_t + inService_t
//
// (Dropped_t − Rejected_t is the tenant's evicted-from-queue count.)
// It returns the first violation found.
func (t *Tile) AuditConservation() error {
	if err := t.queue.Audit(); err != nil {
		return fmt.Errorf("tile %q: %w", t.eng.Name(), err)
	}
	s := t.Stats()
	in := s.Ejected + s.Generated + s.ProcOut
	out := s.Emitted + s.Processed + s.Dropped + s.Refused
	occ := uint64(t.Occupancy())
	if in != out+occ {
		return fmt.Errorf(
			"tile %q: custody leak: in %d (ejected %d + generated %d + procOut %d) != out %d (emitted %d + processed %d + dropped %d + refused %d) + resident %d",
			t.eng.Name(), in, s.Ejected, s.Generated, s.ProcOut,
			out, s.Emitted, s.Processed, s.Dropped, s.Refused, occ)
	}

	// Per-tenant balance over queue custody. Resident occupancy per tenant
	// comes from walking the queue; the in-service message counts for its
	// tenant.
	if len(t.tenants) > 0 {
		queued := make(map[uint16]uint64, len(t.tenants))
		t.queue.Each(func(m *packet.Message, _ uint64) { queued[m.Tenant]++ })
		for id, ta := range t.tenants {
			resident := queued[id]
			if t.cur != nil && t.cur.Tenant == id {
				resident++
			}
			want := ta.Processed + (ta.Dropped - ta.Rejected) + ta.Drained + resident
			if ta.Enqueued != want {
				return fmt.Errorf(
					"tile %q tenant %d: enqueued %d != processed %d + evicted %d + drained %d + resident %d",
					t.eng.Name(), id, ta.Enqueued, ta.Processed,
					ta.Dropped-ta.Rejected, ta.Drained, resident)
			}
		}
		// A tenant in the queue that never got a tally would be invisible
		// above; Push goes through admit, which always tallies, so this is
		// a pure cross-check.
		for id, n := range queued {
			if _, ok := t.tenants[id]; !ok && n > 0 {
				return fmt.Errorf("tile %q tenant %d: %d queued messages but no tally", t.eng.Name(), id, n)
			}
		}
	}
	return nil
}

// Occupancy returns how many messages the RMT tile currently holds:
// queued, inside pipeline stages, or staged for emission.
func (t *RMTTile) Occupancy() int {
	return t.queue.Len() + t.pipe.Occupancy() + t.outLen()
}

// AuditConservation checks the RMT tile's custody ledger: every message
// pulled from the fabric either left (emitted onward, dropped by the
// program or the queue, unrouted, refused) or is still resident in the
// queue, a pipeline stage, or the outbox. It returns the first violation
// found.
func (t *RMTTile) AuditConservation() error {
	if err := t.queue.Audit(); err != nil {
		return fmt.Errorf("rmt tile %d: %w", t.cfg.Addr, err)
	}
	s := t.Stats()
	out := s.Emitted + s.Dropped + s.Unrouted + s.QueueDropped + s.Refused
	occ := uint64(t.Occupancy())
	if s.Ejected != out+occ {
		return fmt.Errorf(
			"rmt tile %d: custody leak: ejected %d != out %d (emitted %d + dropped %d + unrouted %d + queueDropped %d + refused %d) + resident %d",
			t.cfg.Addr, s.Ejected, out, s.Emitted, s.Dropped, s.Unrouted,
			s.QueueDropped, s.Refused, occ)
	}
	return nil
}
