package core

import (
	"fmt"

	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/trace"
)

// This file registers the NIC's invariant checks on the runtime monitor
// (internal/invariant). Each check is read-only and runs at the kernel's
// end-of-cycle barrier, after every committer, so it sees the cycle's
// final state. ROBUSTNESS.md documents every invariant and its
// conservation equation.

// shadowCheckEvery is how often (in cache hits) an RMT flow-cache hit is
// shadow-executed against the full table walk when the invariant monitor
// is armed. The shadow run substitutes the real walk for the replay — a
// coherent cache makes them byte-identical — so the simulation stream is
// unperturbed at any rate; 64 keeps the cost noise-level.
const shadowCheckEvery = 64

// wireInvariants registers every NIC-level check on n.Invar.
func (n *NIC) wireInvariants() {
	m := n.Invar
	b := n.Builder

	// Flow-cache coherence: sample cache hits and re-execute them against
	// the full RMT walk; any field-level divergence is a stale cache.
	for _, r := range b.RMTs {
		r.Pipeline().EnableShadowCheck(shadowCheckEvery)
	}
	m.AddCheck("flow-cache-coherence", func(uint64) error {
		for i, r := range b.RMTs {
			if _, mismatches, first := r.Pipeline().ShadowCheckStats(); mismatches > 0 {
				return fmt.Errorf("rmt pipeline %d: %d shadow mismatches; first: %s", i, mismatches, first)
			}
		}
		return nil
	})

	// Message conservation, per tile and per tenant: every tile's custody
	// ledger (in = out + resident) plus its scheduling queue's push/pop
	// ledger and depth bound, audited by the engine package.
	m.AddCheck("tile-conservation", func(uint64) error {
		for _, t := range b.Tiles {
			if err := t.AuditConservation(); err != nil {
				return err
			}
		}
		for _, r := range b.RMTs {
			if err := r.AuditConservation(); err != nil {
				return err
			}
		}
		return nil
	})

	// Fabric conservation plus the tile/mesh boundary: messages in flight
	// inside the mesh reconcile with router buffers, and the lifetime
	// totals match across the boundary — every tile emission is a mesh
	// injection and every tile ejection a mesh delivery, so the composition
	// of the per-tile ledgers with this check is global conservation:
	// ingress == egress + drops + in-flight.
	m.AddCheck("mesh-conservation", func(uint64) error {
		if err := b.Mesh.AuditConservation(); err != nil {
			return err
		}
		var emitted, ejected uint64
		for _, t := range b.Tiles {
			s := t.Stats()
			emitted += s.Emitted
			ejected += s.Ejected
		}
		for _, r := range b.RMTs {
			s := r.Stats()
			emitted += s.Emitted
			ejected += s.Ejected
		}
		in, out := b.Mesh.OccCounts()
		if emitted != in {
			return fmt.Errorf("boundary: tiles emitted %d messages but the mesh counts %d injections", emitted, in)
		}
		if ejected != out {
			return fmt.Errorf("boundary: tiles ejected %d messages but the mesh counts %d deliveries", ejected, out)
		}
		return nil
	})

	// WLSTF deficit-credit conservation: per tenant, earned == credited +
	// overflow and credit == burst + credited − spent, with credit bounded
	// by burst.
	if len(n.wlstfs) > 0 {
		m.AddCheck("wlstf-credits", func(uint64) error {
			for i, w := range n.wlstfs {
				if err := w.Audit(); err != nil {
					return fmt.Errorf("wlstf %d: %w", i, err)
				}
			}
			return nil
		})
	}

	// Health-monitor legality: replay the failure log through a reference
	// state machine (see auditHealthEvents).
	hl := &healthLegality{nic: n}
	m.AddCheck("health-legality", hl.check)

	// Trace-span well-formedness: validate every span newly committed to
	// the master stream since the last pass.
	if tr := n.Cfg.Tracer; tr != nil {
		cursor := 0
		m.AddCheck("trace-spans", func(uint64) error {
			spans := tr.Set().Spans
			for cursor < len(spans) {
				sp := spans[cursor]
				cursor++
				if err := trace.ValidateSpan(sp); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// healthLegality replays the NIC's failure-event log through a reference
// state machine, incrementally (each pass consumes only newly appended
// events). It enforces:
//
//   - episode ordering: detected opens an episode; rerouted/punted/
//     unrecoverable/drained/recovered require one; reintegrated closes it;
//   - reroute-target legality: a rerouted event's target must have no
//     fault window open (no reroute to a wedged replica) and no open
//     failure episode of its own;
//   - punt legality: punting requires the DMA engine itself to have no
//     open episode;
//   - drain quiescence: a tile drained this very cycle must end the cycle
//     with an empty queue and no message in service (drain implies
//     quiesced; only same-cycle events are checkable — the monitor
//     samples, and older state is gone).
//
// Fault windows come from the same log: fault-injected opens an engine's
// window, fault-lifted closes it (a heal clears all faults at once). Link
// fault events are excluded — they carry no engine.
type healthLegality struct {
	nic    *NIC
	cursor int

	faultOpen map[packet.Addr]bool
	episodes  map[packet.Addr]*episode
}

// episode tracks one engine's failure episode in the reference machine.
type episode struct {
	open   bool
	routed bool
	// lastClosed is the cycle the last reintegration closed an episode;
	// tenant-scoped reintegration logs one event per tenant, so follow-on
	// events at the same cycle are legal repeats.
	lastClosed uint64
	hasClosed  bool
}

func (h *healthLegality) check(cycle uint64) error {
	if h.faultOpen == nil {
		h.faultOpen = make(map[packet.Addr]bool)
		h.episodes = make(map[packet.Addr]*episode)
	}
	events := h.nic.Events.Events()
	for h.cursor < len(events) {
		e := events[h.cursor]
		h.cursor++
		if err := h.step(e, cycle); err != nil {
			return fmt.Errorf("event %d (cycle %d, %s, %s): %w",
				h.cursor-1, e.Cycle, e.Kind, EngineName(e.Engine), err)
		}
	}
	return nil
}

func (h *healthLegality) step(e FailureEvent, now uint64) error {
	switch e.Kind {
	case "fault-injected":
		if !e.Link {
			h.faultOpen[e.Engine] = true
		}
	case "fault-lifted":
		if !e.Link {
			h.faultOpen[e.Engine] = false
		}
	case "detected":
		ep := h.episode(e.Engine)
		if ep.open {
			return fmt.Errorf("detected while an episode is already open")
		}
		ep.open = true
		ep.routed = false
	case "rerouted":
		ep := h.episode(e.Engine)
		if !ep.open {
			return fmt.Errorf("rerouted without an open episode")
		}
		if h.faultOpen[e.Target] {
			return fmt.Errorf("rerouted to %s, which has an active injected fault", EngineName(e.Target))
		}
		if tep, ok := h.episodes[e.Target]; ok && tep.open {
			return fmt.Errorf("rerouted to %s, which has an open failure episode", EngineName(e.Target))
		}
		ep.routed = true
	case "punted":
		ep := h.episode(e.Engine)
		if !ep.open {
			return fmt.Errorf("punted without an open episode")
		}
		if dep, ok := h.episodes[AddrDMA]; ok && dep.open {
			return fmt.Errorf("punted to host while the DMA engine has an open failure episode")
		}
		ep.routed = true
	case "unrecoverable":
		if !h.episode(e.Engine).open {
			return fmt.Errorf("unrecoverable without an open episode")
		}
	case "drained":
		if !h.episode(e.Engine).open {
			return fmt.Errorf("drained without an open episode")
		}
		if e.Cycle == now {
			if t := h.nic.Builder.TileByAddr(e.Engine); t != nil {
				if t.QueueLen() > 0 || t.Busy() {
					return fmt.Errorf("drained but not quiesced: queue=%d busy=%v", t.QueueLen(), t.Busy())
				}
			}
		}
	case "recovered":
		ep := h.episode(e.Engine)
		if !ep.open || !ep.routed {
			return fmt.Errorf("recovered without a routed episode")
		}
	case "reintegrated":
		ep := h.episode(e.Engine)
		if !ep.open || !ep.routed {
			// Tenant-domain reintegration emits one event per tenant at the
			// same cycle; repeats right after a close are legal.
			if ep.hasClosed && ep.lastClosed == e.Cycle {
				return nil
			}
			return fmt.Errorf("reintegrated without a routed episode")
		}
		ep.open = false
		ep.routed = false
		ep.hasClosed = true
		ep.lastClosed = e.Cycle
	}
	return nil
}

func (h *healthLegality) episode(a packet.Addr) *episode {
	ep := h.episodes[a]
	if ep == nil {
		ep = &episode{}
		h.episodes[a] = ep
	}
	return ep
}
