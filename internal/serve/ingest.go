package serve

import (
	"github.com/panic-nic/panic/internal/engine"
	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/workload"
)

// IngestStats is one port's ingest counters, published in every Statz.
type IngestStats struct {
	Port            int    `json:"port"`
	BatchesAccepted uint64 `json:"batches_accepted"`
	RecordsAccepted uint64 `json:"records_accepted"`
	StreamsAccepted uint64 `json:"streams_accepted"`
	Replayed        uint64 `json:"replayed"`
	PendingRecords  int    `json:"pending_records"`
	ActiveStreams   int    `json:"active_streams"`
}

// IngestSource feeds one Ethernet port from work admitted over HTTP: a
// FIFO of trace batches (replayed in admission order, each batch's cycles
// already rebased to its admission barrier) plus a set of bounded
// open-loop KVS streams. It implements engine.ArrivalSource so idle-cycle
// fast-forward keeps working while the port waits for work.
//
// Concurrency: Poll and NextArrival run inside kernel cycles, when the
// port's MAC ticks; admitBatch, admitStream, and Stats run on the serve
// loop goroutine strictly between Run calls. No two of these
// ever overlap, so the type needs no locks — and reporting "exhausted" to
// the kernel is safe because admission only happens at barriers, after
// which the MAC re-queries the source.
type IngestSource struct {
	port    int
	batches []*workload.TraceSource
	streams []*workload.KVSStream
	stats   IngestStats
	pool    *packet.MessagePool
}

var (
	_ engine.Source        = (*IngestSource)(nil)
	_ engine.ArrivalSource = (*IngestSource)(nil)
)

// NewIngestSources builds one empty ingest source per port.
func NewIngestSources(ports int) []*IngestSource {
	out := make([]*IngestSource, ports)
	for p := range out {
		out[p] = &IngestSource{port: p}
	}
	return out
}

// AsEngineSources converts for core.NewNIC's sources argument.
func AsEngineSources(ports []*IngestSource) []engine.Source {
	out := make([]engine.Source, len(ports))
	for i, p := range ports {
		out[i] = p
	}
	return out
}

// UsePool makes every batch and stream admitted to the port from now on
// build its messages from the given pool (the NIC's own).
func (g *IngestSource) UsePool(p *packet.MessagePool) { g.pool = p }

// admitBatch appends a trace batch. Records must already carry absolute
// cycles (rebased to the admission barrier) and be monotone.
func (g *IngestSource) admitBatch(records []workload.TraceRecord) {
	b := workload.NewTraceSource(records)
	b.UsePool(g.pool)
	g.batches = append(g.batches, b)
	g.stats.BatchesAccepted++
	g.stats.RecordsAccepted += uint64(len(records))
}

// admitStream adds a bounded open-loop stream.
func (g *IngestSource) admitStream(s *workload.KVSStream) {
	s.UsePool(g.pool)
	g.streams = append(g.streams, s)
	g.stats.StreamsAccepted++
}

// Poll implements engine.Source. Batches replay strictly FIFO — a later
// batch never overtakes an earlier one even if its rebased cycles are due —
// then streams are polled in admission order.
func (g *IngestSource) Poll(now uint64) *packet.Message {
	for len(g.batches) > 0 {
		b := g.batches[0]
		if m := b.Poll(now); m != nil {
			g.stats.Replayed++
			return m
		}
		if b.Remaining() == 0 {
			g.batches = g.batches[1:]
			continue
		}
		break
	}
	for _, s := range g.streams {
		if m := s.Poll(now); m != nil {
			g.stats.Replayed++
			return m
		}
	}
	return nil
}

// NextArrival implements engine.ArrivalSource: the earliest cycle at which
// Poll can succeed — the head batch's next record (later batches wait
// behind it, exactly as Poll drains them) or any stream's next due cycle.
func (g *IngestSource) NextArrival(now uint64) (uint64, bool) {
	for len(g.batches) > 0 && g.batches[0].Remaining() == 0 {
		g.batches = g.batches[1:]
	}
	best, ok := uint64(0), false
	if len(g.batches) > 0 {
		if at, o := g.batches[0].NextArrival(now); o {
			best, ok = at, true
		}
	}
	for _, s := range g.streams {
		if at, o := s.NextArrival(now); o && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// pendingRecords is the number of admitted-but-unreplayed trace records.
func (g *IngestSource) pendingRecords() int {
	n := 0
	for _, b := range g.batches {
		n += b.Remaining()
	}
	return n
}

// pending reports whether the port still has admitted work to emit.
func (g *IngestSource) pending(now uint64) bool {
	_, ok := g.NextArrival(now)
	return ok
}

// Stats returns the port's counters with the live backlog filled in.
func (g *IngestSource) Stats(now uint64) IngestStats {
	s := g.stats
	s.Port = g.port
	s.PendingRecords = g.pendingRecords()
	for _, st := range g.streams {
		if _, ok := st.NextArrival(now); ok {
			s.ActiveStreams++
		}
	}
	return s
}
