package rmt

import (
	"fmt"

	"github.com/panic-nic/panic/internal/packet"
)

// Ctx is the per-packet action context threaded through the match+action
// stages: the PHV, the offload chain under construction, the drop verdict,
// and the pipeline's stateful registers.
type Ctx struct {
	PHV *PHV
	// Chain accumulates the offload chain the deparser will write into
	// the chain shim header.
	Chain []packet.Hop
	// Drop marks the packet for discarding at the end of the pipeline.
	Drop bool
	// Regs is the pipeline's stateful register file.
	Regs *RegisterFile
}

// Op is a single-cycle action primitive, the unit of programmability RMT
// hardware guarantees can complete within a stage (§2.3.3: "the actions
// that are possible at each stage of the pipeline are limited to relatively
// simple atoms to guarantee that the entire pipeline can process packets at
// line-rate").
type Op interface {
	Apply(ctx *Ctx)
}

// Action is an ordered list of primitives, executed when a table entry
// hits. The zero Action is a no-op.
type Action struct {
	Name string
	Ops  []Op
}

// Apply runs the action's primitives in order.
func (a Action) Apply(ctx *Ctx) {
	for _, op := range a.Ops {
		op.Apply(ctx)
	}
}

// NewAction builds an action from primitives.
func NewAction(name string, ops ...Op) Action { return Action{Name: name, Ops: ops} }

// OpSet writes a constant to a field.
type OpSet struct {
	Field FieldID
	Value uint64
}

// Apply implements Op.
func (o OpSet) Apply(ctx *Ctx) { ctx.PHV.Set(o.Field, o.Value) }

// OpCopy copies Src into Dst.
type OpCopy struct {
	Dst, Src FieldID
}

// Apply implements Op.
func (o OpCopy) Apply(ctx *Ctx) { ctx.PHV.Set(o.Dst, ctx.PHV.Get(o.Src)) }

// OpAdd adds a signed constant to a field (wrapping, like ALU hardware).
type OpAdd struct {
	Field FieldID
	Delta int64
}

// Apply implements Op.
func (o OpAdd) Apply(ctx *Ctx) {
	ctx.PHV.Set(o.Field, ctx.PHV.Get(o.Field)+uint64(o.Delta))
}

// OpAnd masks a field.
type OpAnd struct {
	Field FieldID
	Mask  uint64
}

// Apply implements Op.
func (o OpAnd) Apply(ctx *Ctx) { ctx.PHV.Set(o.Field, ctx.PHV.Get(o.Field)&o.Mask) }

// OpOr sets bits in a field.
type OpOr struct {
	Field FieldID
	Bits  uint64
}

// Apply implements Op.
func (o OpOr) Apply(ctx *Ctx) { ctx.PHV.Set(o.Field, ctx.PHV.Get(o.Field)|o.Bits) }

// OpMod reduces a field modulo N (descriptor-queue load balancing).
type OpMod struct {
	Field FieldID
	N     uint64
}

// Apply implements Op.
func (o OpMod) Apply(ctx *Ctx) {
	if o.N == 0 {
		panic("rmt: OpMod with N=0")
	}
	ctx.PHV.Set(o.Field, ctx.PHV.Get(o.Field)%o.N)
}

// OpHash writes a hash of the source fields into Dst (flow hashing for
// load balancing): FNV-1a over the bytes of the 64-bit values, as a
// hardware hash unit would provide it, except for the seed. The seed is
// FNV-1a 64's offset basis, 14695981039346656037, with its last digit
// dropped. The hash is still deterministic, but fixing the seed moves every
// hashed queue choice and so every golden fingerprint; it is the first of
// the fingerprint breaks queued in ROADMAP.md's golden-fingerprints item.
type OpHash struct {
	Dst  FieldID
	Srcs []FieldID
}

// Apply implements Op.
func (o OpHash) Apply(ctx *Ctx) {
	h := uint64(1469598103934665603)
	for _, f := range o.Srcs {
		v := ctx.PHV.Get(f)
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	ctx.PHV.Set(o.Dst, h)
}

// OpPushHop appends an engine to the offload chain. Slack is SlackConst
// plus the value of SlackFrom (use the zero FieldID-less form for a pure
// constant by leaving HasSlackFrom false).
type OpPushHop struct {
	Engine       packet.Addr
	SlackConst   uint32
	SlackFrom    FieldID
	HasSlackFrom bool
}

// Apply implements Op.
func (o OpPushHop) Apply(ctx *Ctx) {
	slack := o.SlackConst
	if o.HasSlackFrom {
		slack = satAdd32(slack, ctx.PHV.Get(o.SlackFrom))
	}
	ctx.Chain = append(ctx.Chain, packet.Hop{Engine: o.Engine, Slack: slack})
}

// satAdd32 adds a 64-bit value to a 32-bit slack with saturation (hardware
// slack adders saturate rather than wrap).
func satAdd32(a uint32, b uint64) uint32 {
	if b >= 0xffffffff || uint64(a)+b > 0xffffffff {
		return 0xffffffff
	}
	return a + uint32(b)
}

// OpPushHopFromField appends an engine whose address comes from a PHV
// field (e.g. a queue index computed by OpHash+OpMod mapped to a DMA
// engine address by an earlier table).
type OpPushHopFromField struct {
	EngineFrom   FieldID
	SlackConst   uint32
	SlackFrom    FieldID
	HasSlackFrom bool
}

// Apply implements Op.
func (o OpPushHopFromField) Apply(ctx *Ctx) {
	slack := o.SlackConst
	if o.HasSlackFrom {
		slack = satAdd32(slack, ctx.PHV.Get(o.SlackFrom))
	}
	ctx.Chain = append(ctx.Chain, packet.Hop{
		Engine: packet.Addr(ctx.PHV.Get(o.EngineFrom)),
		Slack:  slack,
	})
}

// OpClearChain resets the chain under construction (used on reinjection,
// when the pipeline replaces the remainder of a chain, §3.1.2).
type OpClearChain struct{}

// Apply implements Op.
func (OpClearChain) Apply(ctx *Ctx) { ctx.Chain = ctx.Chain[:0] }

// OpDrop marks the packet for dropping.
type OpDrop struct{}

// Apply implements Op.
func (OpDrop) Apply(ctx *Ctx) { ctx.Drop = true }

// OpRegRead loads Regs[Reg][index] into Dst, where index comes from
// IndexFrom modulo the register array size.
type OpRegRead struct {
	Reg       string
	IndexFrom FieldID
	Dst       FieldID
}

// Apply implements Op.
func (o OpRegRead) Apply(ctx *Ctx) {
	ctx.PHV.Set(o.Dst, ctx.Regs.read(o.Reg, ctx.PHV.Get(o.IndexFrom)))
}

// OpRegWrite stores Src into Regs[Reg][index].
type OpRegWrite struct {
	Reg       string
	IndexFrom FieldID
	Src       FieldID
}

// Apply implements Op.
func (o OpRegWrite) Apply(ctx *Ctx) {
	ctx.Regs.write(o.Reg, ctx.PHV.Get(o.IndexFrom), ctx.PHV.Get(o.Src))
}

// OpRegAdd atomically adds Delta to Regs[Reg][index] and writes the
// post-increment value to Dst — the read-modify-write atom used for
// round-robin counters and flow statistics.
type OpRegAdd struct {
	Reg       string
	IndexFrom FieldID
	Delta     uint64
	Dst       FieldID
}

// Apply implements Op.
func (o OpRegAdd) Apply(ctx *Ctx) {
	v := ctx.Regs.read(o.Reg, ctx.PHV.Get(o.IndexFrom)) + o.Delta
	ctx.Regs.write(o.Reg, ctx.PHV.Get(o.IndexFrom), v)
	ctx.PHV.Set(o.Dst, v)
}

// RegisterFile is the stateful memory of a pipeline: named arrays of
// 64-bit registers, as provided by RMT stage SRAM.
type RegisterFile struct {
	arrays map[string][]uint64
}

// NewRegisterFile creates an empty register file.
func NewRegisterFile() *RegisterFile {
	return &RegisterFile{arrays: make(map[string][]uint64)}
}

// Define allocates a named register array. Defining an existing name
// panics: programs own their register layout.
func (r *RegisterFile) Define(name string, size int) {
	if size <= 0 {
		panic(fmt.Sprintf("rmt: register array %q size %d", name, size))
	}
	if _, dup := r.arrays[name]; dup {
		panic(fmt.Sprintf("rmt: register array %q already defined", name))
	}
	r.arrays[name] = make([]uint64, size)
}

// Read returns Regs[name][index % size] (test/inspection access).
func (r *RegisterFile) Read(name string, index uint64) uint64 { return r.read(name, index) }

// slot returns the register Regs[name][index % size].
func (r *RegisterFile) slot(name string, index uint64) *uint64 {
	a, ok := r.arrays[name]
	if !ok {
		panic(fmt.Sprintf("rmt: undefined register array %q", name))
	}
	return &a[index%uint64(len(a))]
}

func (r *RegisterFile) read(name string, index uint64) uint64 { return *r.slot(name, index) }

func (r *RegisterFile) write(name string, index, v uint64) { *r.slot(name, index) = v }

// OpFunc adapts a Go closure to Op, the escape hatch for model code that
// does not need the single-cycle-atom discipline (used by tests and the
// manycore baseline's software datapath).
type OpFunc func(ctx *Ctx)

// Apply implements Op.
func (f OpFunc) Apply(ctx *Ctx) { f(ctx) }
