package rmt

import (
	"fmt"

	"github.com/panic-nic/panic/internal/packet"
)

// Program is everything installed into an RMT pipeline: the parse graph,
// the match+action stages (tables applied in order within a stage), and
// the stateful registers.
type Program struct {
	Parser *Parser
	Stages [][]*Table
	Regs   *RegisterFile

	// plantSkipTenantInvalidate and genSkew implement a deliberately
	// plantable invalidation bug for the chaos harness (cmd/chaos -plant):
	// when planted, the generation bumps caused by RewriteEngineTenant are
	// subtracted back out of Generation, so the flow cache never notices
	// tenant-scoped reroutes and keeps replaying stale steering. The
	// invariant monitor's shadow re-execution must catch this.
	plantSkipTenantInvalidate bool
	genSkew                   uint64

	// scratch is what every table walk of this program runs on (see walk).
	scratch walk
}

// PlantSkipTenantInvalidate arms the planted flow-cache invalidation bug:
// from now on, tenant-scoped rewrites no longer advance the generation the
// flow cache sees. Test/chaos harness use only.
func (p *Program) PlantSkipTenantInvalidate() { p.plantSkipTenantInvalidate = true }

// NewProgram builds a program with an empty register file.
func NewProgram(parser *Parser, stages ...[]*Table) *Program {
	return &Program{Parser: parser, Stages: stages, Regs: NewRegisterFile()}
}

// NumStages returns the number of match+action stages.
func (p *Program) NumStages() int { return len(p.Stages) }

// RewriteEngine repoints every chain hop targeting old at new across all
// stages and tables, returning the number of hops rewritten. The control
// plane uses this to fail a broken engine over to a replica (and the
// inverse rewrite to reintegrate it) without touching in-flight packets:
// messages already carrying a chain keep their old steering until they
// next traverse an RMT pipeline.
func (p *Program) RewriteEngine(old, new packet.Addr) int {
	n := 0
	for _, stage := range p.Stages {
		for _, t := range stage {
			n += t.RewriteEngine(old, new)
		}
	}
	return n
}

// RewriteEngineTenant repoints chain hops targeting old at new, but only
// in table entries whose match key pins tenantField to exactly tenant —
// the control-plane primitive behind tenant-scoped fault domains: a wedged
// tile serving several tenants' chains can have a single tenant's steering
// punted to host while every other entry (other tenants' and shared ones)
// keeps its target. Returns the number of hops rewritten.
func (p *Program) RewriteEngineTenant(old, new packet.Addr, tenantField FieldID, tenant uint64) int {
	before := p.rawGeneration()
	n := 0
	for _, stage := range p.Stages {
		for _, t := range stage {
			n += t.RewriteEngineTenant(old, new, tenantField, tenant)
		}
	}
	if p.plantSkipTenantInvalidate {
		p.genSkew += p.rawGeneration() - before
	}
	return n
}

// Generation returns the sum of every table's mutation counter across all
// stages. Any table mutation strictly increases it, so a flow cache can
// detect staleness with one comparison per lookup.
func (p *Program) Generation() uint64 {
	return p.rawGeneration() - p.genSkew
}

func (p *Program) rawGeneration() uint64 {
	var g uint64
	for _, stage := range p.Stages {
		for _, t := range stage {
			g += t.Version()
		}
	}
	return g
}

// Split partitions the program's stages into n contiguous sub-programs for
// chained RMT engines (§3.1.2: "Neighboring engines may be configured to
// independently process messages or be chained to form a longer
// pipeline"). Sub-programs share the parser and register file. The first
// i%n sub-programs get the extra stages when the count is not divisible.
func (p *Program) Split(n int) []*Program {
	if n < 1 || n > len(p.Stages) {
		panic(fmt.Sprintf("rmt: cannot split %d stages into %d parts", len(p.Stages), n))
	}
	parts := make([]*Program, n)
	per := len(p.Stages) / n
	extra := len(p.Stages) % n
	off := 0
	for i := range parts {
		take := per
		if i < extra {
			take++
		}
		parts[i] = &Program{Parser: p.Parser, Stages: p.Stages[off : off+take], Regs: p.Regs}
		off += take
	}
	return parts
}

// Result is the verdict of one pipeline traversal.
type Result struct {
	Msg *packet.Message
	// Drop means the program discarded the packet.
	Drop bool
	// Queue is the descriptor queue selected by the program (value of
	// meta.queue at deparse time).
	Queue uint64
	// Enq is the cycle the timed Pipeline accepted the message (set by
	// Accept, zero for bare Program.Process calls). Tracing reconstructs
	// per-stage spans from it: exit later than Enq + Latency means the
	// pipeline was frozen by fabric backpressure for the difference.
	Enq uint64
	// CacheHit reports that the verdict was replayed from the pipeline's
	// flow cache rather than computed by a table walk. The verdict itself
	// is identical either way; this is observability only.
	CacheHit bool
}

// Process runs one message through the program combinationally (parse →
// stages → deparse) and returns the verdict. The timed Pipeline wraps this
// with the throughput/latency model. now is the current cycle for
// slack/deadline arithmetic. The walk runs on the program's scratch, so it
// allocates nothing in steady state.
func (p *Program) Process(msg *packet.Message, now uint64) (Result, error) {
	w := &p.scratch
	phv := w.begin(p, msg, now)
	if err := p.Parser.Parse(msg.Pkt.Buf, phv); err != nil {
		return Result{}, err
	}
	for _, stage := range p.Stages {
		for _, table := range stage {
			action, _ := table.Lookup(phv)
			action.Apply(&w.ctx)
		}
	}
	if w.ctx.Drop {
		return Result{Msg: msg, Drop: true}, nil
	}
	// The pipeline's tenant classification is authoritative: whatever the
	// stages left in meta.tenant (the parsed KVS tenant, an ESP SPI
	// mapping, or the ingress default) becomes the message's accounting
	// tenant for scheduling, per-tenant engine stats, and fault domains.
	msg.Tenant = uint16(phv.Get(FieldMetaTenant))
	p.deparse(msg, w.ctx.Chain, uint8(phv.Get(FieldMetaNewFlags)))
	return Result{Msg: msg, Queue: phv.Get(FieldMetaQueue)}, nil
}

// walk is the scratch a table walk runs on: the PHV, the action context
// with the chain under construction, and the entry a recording walk fills
// in. A program owns one and reuses it for every walk — Process, the flow
// cache's recording walk and its shadow re-walk — so a walk allocates
// nothing once the chain and register-op buffers have grown to the
// program's longest. Walks of one program never overlap: each runs to
// completion inside one call on the goroutine of the NIC that owns the
// program, and every pipeline built on the program takes its turn. Nothing
// a walk leaves in the scratch outlives it: deparse copies the chain into
// the packet, and the flow cache copies what it keeps (flowCache.keep).
type walk struct {
	phv   PHV
	ctx   Ctx
	entry flowEntry
}

// begin clears the scratch for a walk of msg and seeds the metadata fields
// the engine sets before parsing.
func (w *walk) begin(p *Program, msg *packet.Message, now uint64) *PHV {
	phv := &w.phv
	phv.Reset()
	phv.Set(FieldMetaPort, uint64(uint32(msg.Port)))
	phv.Set(FieldMetaWireLen, uint64(msg.WireLen()))
	phv.Set(FieldMetaClass, uint64(msg.Class))
	phv.Set(FieldMetaTenant, uint64(msg.Tenant))
	phv.Set(FieldMetaNow, now)
	phv.Set(FieldMetaDeadline, msg.Deadline)
	if c := msg.Chain(); c != nil {
		phv.Set(FieldChainRemaining, uint64(c.Remaining()))
	}
	w.ctx = Ctx{PHV: phv, Chain: w.ctx.Chain[:0], Regs: p.Regs}
	return phv
}

// deparse writes the action results back into the packet: the offload
// chain (and its flags) becomes the chain shim header, replacing any
// existing one or reusing the one a recycled shell shed. The chain slice is
// copied, so callers (including the flow cache's replay path) may retain
// theirs.
func (p *Program) deparse(msg *packet.Message, chain []packet.Hop, flags uint8) {
	if len(chain) == 0 {
		return
	}
	if existing := msg.Chain(); existing != nil {
		// Reuse the resident chain's hop buffer when it has capacity: a
		// message re-entering the pipeline (reinjection) already carries a
		// chain, and rewriting it must not allocate in steady state. copy
		// is overlap-safe, so chain may alias existing.Hops.
		existing.Cursor = 0
		existing.Flags = flags
		if cap(existing.Hops) >= len(chain) {
			existing.Hops = existing.Hops[:len(chain)]
		} else {
			existing.Hops = make([]packet.Hop, len(chain))
		}
		copy(existing.Hops, chain)
		msg.Pkt.Serialize()
		return
	}
	msg.InsertChainHops(flags, chain)
}

// Pipeline is the timed model of one RMT engine's pipeline: it accepts at
// most one message per cycle and holds each for a fixed latency of
// parserCycles + stages + deparserCycles before it emerges.
type Pipeline struct {
	prog    *Program
	slots   []pipeSlot // slots[0] is the entry stage
	parserC int
	depC    int
	cache   *flowCache // nil = every message runs the full table walk
	dropped uint64
	errs    uint64
	done    uint64
}

type pipeSlot struct {
	res  Result
	full bool
}

// NewPipeline builds a timed pipeline around a program. parserCycles and
// deparserCycles default to 1 when zero.
func NewPipeline(prog *Program, parserCycles, deparserCycles int) *Pipeline {
	if parserCycles <= 0 {
		parserCycles = 1
	}
	if deparserCycles <= 0 {
		deparserCycles = 1
	}
	latency := parserCycles + prog.NumStages() + deparserCycles
	return &Pipeline{prog: prog, slots: make([]pipeSlot, latency), parserC: parserCycles, depC: deparserCycles}
}

// EnableFlowCache attaches a per-flow decision cache to the pipeline (see
// flowcache.go). Verdicts and register state are byte-identical with the
// cache on or off; only the Go-side cost of the table walk changes. The
// cache is private to this pipeline, so pipelines sharing a Program (and
// its registers) never see each other's cached decisions.
func (p *Pipeline) EnableFlowCache() { p.cache = newFlowCache() }

// FlowCacheStats returns the flow cache's counters (zero when disabled).
func (p *Pipeline) FlowCacheStats() FlowCacheStats {
	if p.cache == nil {
		return FlowCacheStats{}
	}
	return p.cache.stats
}

// EnableShadowCheck arms flow-cache shadow re-execution: every every-th
// cache hit runs the instrumented full table walk in place of the replay
// and compares the fresh verdict against the cached one field by field
// (see flowCache.shadowEvery). A no-op when the flow cache is disabled or
// every is 0. The invariant monitor asserts ShadowCheckStats mismatches
// stay zero.
func (p *Pipeline) EnableShadowCheck(every uint64) {
	if p.cache != nil {
		p.cache.shadowEvery = every
	}
}

// ShadowCheckStats returns (checks run, mismatches found, description of
// the first mismatch). All zero when shadow checking is off.
func (p *Pipeline) ShadowCheckStats() (checks, mismatches uint64, first string) {
	if p.cache == nil {
		return 0, 0, ""
	}
	return p.cache.shadowChecks, p.cache.shadowMismatches, p.cache.firstMismatch
}

// Occupancy returns how many messages currently sit in pipeline stages —
// accepted but not yet exited. Custody accounting for the invariant
// monitor.
func (p *Pipeline) Occupancy() int {
	n := 0
	for _, s := range p.slots {
		if s.full {
			n++
		}
	}
	return n
}

// Latency returns the pipeline depth in cycles.
func (p *Pipeline) Latency() int { return len(p.slots) }

// ParserCycles returns the parser phase length in cycles.
func (p *Pipeline) ParserCycles() int { return p.parserC }

// DeparserCycles returns the deparser phase length in cycles.
func (p *Pipeline) DeparserCycles() int { return p.depC }

// CanAccept reports whether the entry stage is free this cycle.
func (p *Pipeline) CanAccept() bool { return !p.slots[0].full }

// Accept admits one message; the caller must have checked CanAccept. The
// verdict is computed immediately but only becomes visible when the
// message exits the pipeline. Parse errors count as drops (a real pipeline
// sends unparseable packets to a default action; ours discards and
// counts).
func (p *Pipeline) Accept(msg *packet.Message, now uint64) {
	if p.slots[0].full {
		panic("rmt: Pipeline.Accept when entry stage is occupied")
	}
	var res Result
	var err error
	if p.cache != nil {
		var hit bool
		res, hit, err = p.cache.process(p.prog, msg, now)
		res.CacheHit = hit
	} else {
		res, err = p.prog.Process(msg, now)
	}
	if err != nil {
		p.errs++
		res = Result{Msg: msg, Drop: true}
	}
	res.Enq = now
	p.slots[0] = pipeSlot{res: res, full: true}
}

// Tick advances the pipeline one cycle and returns the message exiting
// this cycle, if any. Dropped packets are counted and returned with
// ok == false (so tracing callers can observe the drop; the zero Result
// with ok == false means nothing exited at all).
func (p *Pipeline) Tick() (Result, bool) {
	last := len(p.slots) - 1
	out := p.slots[last]
	copy(p.slots[1:], p.slots[:last])
	p.slots[0] = pipeSlot{}
	if !out.full {
		return Result{}, false
	}
	p.done++
	if out.res.Drop {
		p.dropped++
		return out.res, false
	}
	return out.res, true
}

// UntilExit returns how many Ticks from now the message nearest the exit
// leaves the pipeline: the n-th Tick returns it. ok is false when the
// pipeline is empty.
func (p *Pipeline) UntilExit() (n uint64, ok bool) {
	last := len(p.slots) - 1
	for i := last; i >= 0; i-- {
		if p.slots[i].full {
			return uint64(last - i + 1), true
		}
	}
	return 0, false
}

// Skip advances the pipeline n cycles in which nothing exits: the same
// state as n Tick calls that each return nothing. It panics if n would
// pass an exit; a caller sleeps through at most UntilExit()-1 cycles.
func (p *Pipeline) Skip(n uint64) {
	if e, ok := p.UntilExit(); ok && n >= e {
		panic(fmt.Sprintf("rmt: Pipeline.Skip(%d) passes an exit %d cycles away", n, e))
	}
	if n >= uint64(len(p.slots)) {
		clear(p.slots)
		return
	}
	k := int(n)
	copy(p.slots[k:], p.slots[:len(p.slots)-k])
	clear(p.slots[:k])
}

// Stats returns (processed, dropped, parse errors).
func (p *Pipeline) Stats() (processed, dropped, parseErrors uint64) {
	return p.done, p.dropped, p.errs
}
