package packet

import "sync"

// MessagePool is an opt-in free list for Message shells. Steady-state
// simulation churns one Message (plus its Packet buffer and layer stack)
// per generated frame; recycling shells at the point a message leaves the
// simulated NIC removes that allocation from the hot loop.
//
// Ownership rule: Put only a message that has fully left the simulation —
// delivered to a terminal sink with no component retaining a reference.
// Producers must treat a Get shell as uninitialized and set every field
// they care about; both the recycled and the fresh-allocation paths must
// produce byte-identical messages, so pooling never affects simulation
// results (only the allocator).
//
// The pool is mutex-guarded, so one pool may serve kernels on different
// goroutines (fleet shards). Which caller wins a recycled shell is then
// scheduling-dependent, which is safe precisely because of the rule above.
type MessagePool struct {
	mu   sync.Mutex
	free []*Message
}

// NewMessagePool returns an empty pool.
func NewMessagePool() *MessagePool {
	return &MessagePool{free: make([]*Message, 0, 64)}
}

// Get returns a recycled shell, or nil when the pool is empty (the caller
// then allocates fresh). The shell's Pkt, when present, keeps its layer
// stack and serialization buffer for in-place header rebuilding; all other
// fields arrive zeroed.
func (p *MessagePool) Get() *Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return nil
	}
	m := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return m
}

// Put scrubs and recycles a message the caller owns exclusively. Identity,
// timestamps, metadata, trace, and the Inner packet are cleared; the Pkt
// keeps its buffer and layers so the next producer can rebuild headers
// without reallocating.
func (p *MessagePool) Put(m *Message) {
	if m == nil {
		return
	}
	m.ID = 0
	m.TraceID = 0
	m.Inject = 0
	m.Done = 0
	m.Deadline = 0
	m.Tenant = 0
	m.Class = 0
	m.Port = 0
	m.Trace = m.Trace[:0]
	m.Needs = nil
	m.EnqueuedAt = 0
	m.Inner = nil
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}

// Len returns the current free-list size (tests).
func (p *MessagePool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
