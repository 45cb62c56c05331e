package rmt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/panic-nic/panic/internal/packet"
)

// This file implements the per-pipeline flow cache: a megaflow-style
// exact-match cache over Program.Process. The second packet of a flow runs
// an instrumented table walk that both computes the verdict and proves (or
// disproves) that the verdict is a pure function of the cache key; later
// packets with the same key replay the recorded verdict — tenant
// classification, descriptor queue, offload chain, drop decision, and the
// program's register side effects — without touching the parser or tables.
//
// Cycle accuracy is unaffected: the cache lives inside Program.Process,
// which the timed Pipeline calls combinationally at Accept; the message
// still occupies the pipeline for the full parser+stages+deparser latency.
// Only the Go-side cost of modelling the walk is skipped.
//
// # Admission
//
// A flow earns an entry on its second miss, not its first. A direct-mapped
// doorkeeper of doorkeeperSlots slots sits in front of insertion: each
// slot holds a tag of the FNV-1a hash of a probe key (the key the lookup
// just missed with). A miss whose tag is not in its slot writes it there
// and runs the plain Program.Process walk, which records, keeps and
// inserts nothing; a miss whose tag is already there runs the recording
// walk and keeps its entry. One-shot flows — a churning tenant's fresh
// keys — so cost a hash and a table write instead of a kept entry, and
// only flows that repeat occupy the cache. Both walks produce the same
// verdict and register effects, so admission decides which walk runs and
// never what a packet sees. The hash is deterministic, so hit rates
// repeat from process to process. Colliding keys evict each other's tags,
// which only delays their admission; the doorkeeper survives flushes, so a
// flow that missed before a table change is admitted on its first miss
// after it, unless the key prefix grew in between and changed its probe.
//
// # Key and correctness
//
// The key is (len(buf), buf[:maxParseLen], port, wire length, class,
// ingress tenant, chain presence + remaining hops) — every input
// Program.Process reads except the current cycle and the deadline, which
// are handled by taint tracking below. maxParseLen is the largest byte
// offset any recorded parse walk has examined; whenever a new walk reads
// further, the prefix grows and the cache flushes, so all resident keys
// are always comparable. Two packets with equal keys therefore present
// identical bytes to the parser over every offset the recorded walk
// visited, which forces the identical walk (the walk is a deterministic
// function of the bytes it examines), identical PHV extracts, and — given
// untainted table keys — identical match results at every stage.
//
// # Taint
//
// meta.now and meta.deadline differ between packets of one flow, and
// register reads differ between visits, so the recording walk tracks a
// taint bit per PHV field (seeded with now and deadline, spread by copies,
// hashes, and register reads, cleared by constant writes). A flow is
// cacheable only if no tainted field reaches a table key, a chain hop's
// slack or engine source, a register-op operand, or the verdict fields
// (tenant, queue, chain flags). Anything else — including OpFunc escape
// hatches — records a negative entry: later packets of that flow skip the
// recording overhead and run the plain walk.
//
// # Side effects
//
// Register writes are re-executed on every hit from a recorded replay
// list: OpRegWrite stores its resolved slot and value, OpRegAdd its
// resolved slot and delta, in program order. Replaying an add (rather than
// a remembered final value) keeps counters evolving exactly as the
// uncached walk would, so register state is byte-identical cache on/off.
//
// # Invalidation
//
// Every Table mutation (Add, RewriteEngine, RewriteEngineTenant) bumps the
// table's version; the cache compares the summed versions
// (Program.Generation) on every lookup and flushes on change. Control-
// plane reroutes — failover, tenant punts, drop rules — all go through
// those mutators, so a cached decision can never outlive the tables that
// produced it.

const (
	// flowKeyPrefixCap bounds how many packet bytes a key may carry; a
	// walk that examines more records a negative entry instead. 160 covers
	// the standard parse graph even with a long chain shim header.
	flowKeyPrefixCap = 160
	// flowCacheCap bounds resident flows; insertion into a full cache
	// flushes (simple, deterministic, and sized far above the flow counts
	// the workloads generate).
	flowCacheCap = 4096
	// doorkeeperBits sizes the admission doorkeeper: 2^11 slots admit as
	// well as 2^13 on the churning workloads, at 4 KiB per cache.
	doorkeeperBits  = 11
	doorkeeperSlots = 1 << doorkeeperBits
)

// errCachedParse is returned for replayed parse failures; the original
// error text is only reported by the misses that walk the parser.
var errCachedParse = errors.New("rmt: parse error (cached verdict)")

// regReplay is one recorded register side effect, its register resolved
// at record time (register arrays never move once defined).
type regReplay struct {
	reg *uint64
	val uint64 // value for writes, delta for adds
	add bool
}

// flowEntry is one cached verdict.
type flowEntry struct {
	// uncacheable marks a negative entry: the flow's verdict depends on
	// per-packet or stateful inputs, so hits run the plain walk.
	uncacheable bool
	err         bool // parse failed; replay returns errCachedParse
	drop        bool
	tenant      uint16
	flags       uint8
	queue       uint64
	hops        []packet.Hop
	regOps      []regReplay
}

// FlowCacheStats are a flow cache's counters.
type FlowCacheStats struct {
	// Hits replayed a cached verdict.
	Hits uint64
	// Misses found no entry and ran a table walk: the plain walk on a
	// key's first miss, the recording walk once the doorkeeper has seen
	// the key (see # Admission). Either way a miss is one walk, so walks
	// are Misses + NegHits.
	Misses uint64
	// NegHits matched a negative entry and ran the plain walk.
	NegHits uint64
	// Flushes counts whole-cache invalidations (table generation change,
	// key-prefix growth, or capacity).
	Flushes uint64
}

// HitRate returns Hits / (Hits + Misses + NegHits), 0 when idle.
func (s FlowCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.NegHits
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// flowCache is the per-pipeline cache. It is not safe for concurrent use;
// each timed Pipeline owns one, matching the kernel's rule that a
// component's state is touched only by its own Eval.
type flowCache struct {
	entries map[string]*flowEntry
	// The chunks kept entries are carved from (see keep).
	entrySlab   []flowEntry
	hopSlab     []packet.Hop
	regOpSlab   []regReplay
	gen         uint64
	maxParseLen int
	keyBuf      []byte
	stats       FlowCacheStats

	// shadowEvery > 0 arms shadow re-execution: every shadowEvery-th hit
	// runs the instrumented full walk instead of the replay and compares
	// the freshly recorded entry against the cached one field by field. A
	// coherent cache produces byte-identical effects either way, so the
	// substitution never perturbs the simulation; a divergence means the
	// cache replayed a verdict the tables would no longer produce — the
	// invariant the monitor asserts (mismatches == 0).
	shadowEvery      uint64
	shadowChecks     uint64
	shadowMismatches uint64
	firstMismatch    string

	// seen is the admission doorkeeper: slot i holds the tag (the low 16
	// bits of the hash) of the last missed probe key whose hash's top bits
	// index i. Two keys that share a slot and a tag admit each other early,
	// one probe in 65,536, which costs an entry and never a verdict. It
	// comes last so the fields every hit reads share cache lines.
	seen [doorkeeperSlots]uint16
}

func newFlowCache() *flowCache {
	return &flowCache{
		entries: make(map[string]*flowEntry),
		keyBuf:  make([]byte, 0, 256),
	}
}

// flush empties the cache and drops the chunks its entries were carved
// from.
func (c *flowCache) flush() {
	if len(c.entries) > 0 {
		c.entries = make(map[string]*flowEntry)
		c.entrySlab, c.hopSlab, c.regOpSlab = nil, nil, nil
	}
	c.stats.Flushes++
}

// buildKey assembles the flow key into the cache's reusable buffer and
// returns it with the length of its metadata part: the metadata as
// varints, which delimit themselves, followed by up to prefixLen packet
// bytes. It must cover every Process input except meta.now and
// meta.deadline (those are taint-tracked instead).
func (c *flowCache) buildKey(msg *packet.Message, prefixLen int) (key []byte, metaLen int) {
	buf := msg.Pkt.Buf
	k := c.keyBuf[:0]
	k = binary.AppendUvarint(k, uint64(len(buf)))
	k = binary.AppendUvarint(k, uint64(uint32(msg.Port)))
	k = binary.AppendUvarint(k, uint64(msg.WireLen()))
	k = append(k, byte(msg.Class))
	k = binary.AppendUvarint(k, uint64(msg.Tenant))
	if ch := msg.Chain(); ch != nil {
		k = append(k, 1)
		k = binary.AppendUvarint(k, uint64(ch.Remaining()))
	} else {
		k = append(k, 0)
	}
	metaLen = len(k)
	n := len(buf)
	if n > prefixLen {
		n = prefixLen
	}
	k = append(k, buf[:n]...)
	c.keyBuf = k
	return k, metaLen
}

// process is the cached equivalent of Program.Process. The bool reports
// whether the verdict was replayed from the cache.
func (c *flowCache) process(p *Program, msg *packet.Message, now uint64) (Result, bool, error) {
	if g := p.Generation(); g != c.gen {
		c.flush()
		c.gen = g
	}
	key, _ := c.buildKey(msg, c.maxParseLen)
	if e, ok := c.entries[string(key)]; ok {
		if e.uncacheable {
			c.stats.NegHits++
			res, err := p.Process(msg, now)
			return res, false, err
		}
		c.stats.Hits++
		if c.shadowEvery > 0 && c.stats.Hits%c.shadowEvery == 0 {
			// Shadow re-execution: the full walk replaces the replay for
			// this hit, applying the same effects a coherent entry would.
			c.shadowChecks++
			res, _, err := p.scratch.record(p, msg, now)
			if diff := diffEntries(e, &p.scratch.entry); diff != "" {
				c.shadowMismatches++
				if c.firstMismatch == "" {
					c.firstMismatch = diff
				}
			}
			return res, true, err
		}
		res, err := replay(p, e, msg)
		return res, true, err
	}
	c.stats.Misses++
	if !c.admit(key) {
		res, err := p.Process(msg, now)
		return res, false, err
	}
	// Capture the full-prefix key BEFORE the walk: processing mutates the
	// message (chain insertion rewrites the buffer), and the stored key
	// must describe the packet as the next probe will see it — at ingress.
	full, metaLen := c.buildKey(msg, flowKeyPrefixCap)
	res, consumed, err := p.scratch.record(p, msg, now)
	e := &p.scratch.entry
	if !e.uncacheable && consumed > c.maxParseLen {
		if consumed <= flowKeyPrefixCap {
			// The walk examined bytes beyond the current key prefix: grow
			// the prefix and flush so every resident key stays comparable.
			c.maxParseLen = consumed
			c.flush()
		} else {
			e.uncacheable = true
		}
	}
	if len(c.entries) >= flowCacheCap {
		c.flush()
	}
	n := len(full) - metaLen // pristine packet bytes captured
	if n > c.maxParseLen {
		n = c.maxParseLen
	}
	c.entries[string(full[:metaLen+n])] = c.keep(e)
	return res, false, err
}

// admit reports whether the doorkeeper has seen the missed probe key
// before; if not, it records the key's tag in the key's slot, evicting
// whatever tag was there.
func (c *flowCache) admit(key []byte) bool {
	h := uint64(14695981039346656037) // FNV-1a 64
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	slot, tag := &c.seen[h>>(64-doorkeeperBits)], uint16(h)
	if *slot == tag {
		return true
	}
	*slot = tag
	return false
}

// Kept entries, their hops and their register ops are carved from chunks
// that start at minChunk elements and double up to the size given for
// their kind. A chunk is referenced only by the entries carved from it,
// all of which sit in the current map, so a flush that drops the map drops
// its chunks with it. The cache pins no more than its resident flows plus
// the unused tails of the newest chunks, which doubling keeps below what
// the chunks before them hold.
const (
	minChunk   = 8
	entryChunk = 64
	hopChunk   = 256
	regOpChunk = 64
)

// keep copies the recording walk's entry out of the scratch into the
// cache's chunks and returns the copy the map keeps.
func (c *flowCache) keep(e *flowEntry) *flowEntry {
	k := &carve(&c.entrySlab, []flowEntry{*e}, entryChunk)[0]
	k.hops = carve(&c.hopSlab, e.hops, hopChunk)
	k.regOps = carve(&c.regOpSlab, e.regOps, regOpChunk)
	return k
}

// carve appends src to the chunk and returns the copy, with its capacity
// capped so appends never spill into a neighbour. A chunk without room is
// replaced by a fresh one twice its size, between minChunk and maxSize
// elements (and never smaller than src); the old one stays alive for as
// long as the entries carved from it. Empty src carves nil.
func carve[T any](chunk *[]T, src []T, maxSize int) []T {
	if len(src) == 0 {
		return nil
	}
	c := *chunk
	if cap(c)-len(c) < len(src) {
		c = make([]T, 0, max(min(max(2*cap(c), minChunk), maxSize), len(src)))
	}
	n := len(c)
	c = append(c, src...)
	*chunk = c
	return c[n:len(c):len(c)]
}

// diffEntries compares a cached verdict against a freshly recorded one and
// returns a description of the first divergence, or "" when they agree on
// every field a replay would apply.
func diffEntries(old, fresh *flowEntry) string {
	switch {
	case old.uncacheable != fresh.uncacheable:
		return fmt.Sprintf("cacheability changed: cached %v, fresh walk %v", !old.uncacheable, !fresh.uncacheable)
	case old.err != fresh.err:
		return fmt.Sprintf("parse verdict changed: cached err=%v, fresh err=%v", old.err, fresh.err)
	case old.drop != fresh.drop:
		return fmt.Sprintf("drop verdict changed: cached %v, fresh %v", old.drop, fresh.drop)
	case old.tenant != fresh.tenant:
		return fmt.Sprintf("tenant changed: cached %d, fresh %d", old.tenant, fresh.tenant)
	case old.flags != fresh.flags:
		return fmt.Sprintf("chain flags changed: cached %#x, fresh %#x", old.flags, fresh.flags)
	case old.queue != fresh.queue:
		return fmt.Sprintf("queue changed: cached %d, fresh %d", old.queue, fresh.queue)
	case len(old.hops) != len(fresh.hops):
		return fmt.Sprintf("chain length changed: cached %d hops, fresh %d", len(old.hops), len(fresh.hops))
	case len(old.regOps) != len(fresh.regOps):
		return fmt.Sprintf("register side effects changed: cached %d ops, fresh %d", len(old.regOps), len(fresh.regOps))
	}
	for i := range old.hops {
		if old.hops[i] != fresh.hops[i] {
			return fmt.Sprintf("chain hop %d changed: cached %+v, fresh %+v", i, old.hops[i], fresh.hops[i])
		}
	}
	for i := range old.regOps {
		a, b := &old.regOps[i], &fresh.regOps[i]
		if a.reg != b.reg || a.val != b.val || a.add != b.add {
			return fmt.Sprintf("register op %d changed: cached {val:%d add:%v}, fresh {val:%d add:%v}, same register %v",
				i, a.val, a.add, b.val, b.add, a.reg == b.reg)
		}
	}
	return ""
}

// replay applies a cached verdict to msg: register side effects first (in
// recorded program order), then the message-level outputs, mirroring the
// order of the plain walk.
func replay(p *Program, e *flowEntry, msg *packet.Message) (Result, error) {
	for i := range e.regOps {
		r := &e.regOps[i]
		if r.add {
			*r.reg += r.val
		} else {
			*r.reg = r.val
		}
	}
	if e.err {
		return Result{}, errCachedParse
	}
	if e.drop {
		return Result{Msg: msg, Drop: true}, nil
	}
	msg.Tenant = e.tenant
	p.deparse(msg, e.hops, e.flags)
	return Result{Msg: msg, Queue: e.queue}, nil
}

// record runs the instrumented walk on the program's scratch: identical
// effects to Program.Process, plus taint tracking and side-effect
// recording. It returns the verdict and how many leading packet bytes the
// parse walk examined, and leaves the entry to cache in w.entry, whose hops
// and register ops alias the scratch until flowCache.keep copies them.
func (w *walk) record(p *Program, msg *packet.Message, now uint64) (Result, int, error) {
	e := &w.entry
	*e = flowEntry{regOps: e.regOps[:0]}
	phv := w.begin(p, msg, now)
	consumed, err := p.Parser.parse(msg.Pkt.Buf, phv)
	if err != nil {
		// A parse failure is a pure function of (len(buf), examined
		// bytes), both in the key, so the drop verdict itself is cacheable.
		e.err = true
		return Result{}, consumed, err
	}

	// taint marks PHV fields whose value may differ between packets that
	// share this flow key.
	taint := uint64(1<<FieldMetaNow | 1<<FieldMetaDeadline)
	cacheable := true
	ctx := &w.ctx
	for _, stage := range p.Stages {
		for _, table := range stage {
			for _, f := range table.Key {
				if taint&(1<<f) != 0 {
					// The winning entry may differ between packets of
					// this flow; this packet's walk is still correct.
					cacheable = false
				}
			}
			action, _ := table.Lookup(phv)
			for _, op := range action.Ops {
				switch o := op.(type) {
				case OpSet:
					taint &^= 1 << o.Field
				case OpCopy:
					if taint&(1<<o.Src) != 0 {
						taint |= 1 << o.Dst
					} else {
						taint &^= 1 << o.Dst
					}
				case OpAdd, OpAnd, OpOr, OpMod:
					// In-place arithmetic preserves the field's taint.
				case OpHash:
					dirty := false
					for _, s := range o.Srcs {
						if taint&(1<<s) != 0 {
							dirty = true
						}
					}
					if dirty {
						taint |= 1 << o.Dst
					} else {
						taint &^= 1 << o.Dst
					}
				case OpPushHop:
					if o.HasSlackFrom && taint&(1<<o.SlackFrom) != 0 {
						cacheable = false
					}
				case OpPushHopFromField:
					if taint&(1<<o.EngineFrom) != 0 ||
						(o.HasSlackFrom && taint&(1<<o.SlackFrom) != 0) {
						cacheable = false
					}
				case OpRegRead:
					// Register contents change between visits: the read
					// itself is side-effect free, but its result is tainted.
					taint |= 1 << o.Dst
				case OpRegWrite:
					if taint&(1<<o.IndexFrom|1<<o.Src) != 0 {
						cacheable = false
					} else {
						e.regOps = append(e.regOps, regReplay{
							reg: p.Regs.slot(o.Reg, phv.Get(o.IndexFrom)),
							val: phv.Get(o.Src),
						})
					}
				case OpRegAdd:
					if taint&(1<<o.IndexFrom) != 0 {
						cacheable = false
					} else {
						e.regOps = append(e.regOps, regReplay{
							reg: p.Regs.slot(o.Reg, phv.Get(o.IndexFrom)),
							val: o.Delta,
							add: true,
						})
					}
					taint |= 1 << o.Dst // post-increment value is stateful
				case OpClearChain, OpDrop:
					// Deterministic given the action choice, which the
					// table-key check above already guards.
				default:
					// OpFunc and any future op: opaque to the recorder.
					cacheable = false
				}
				op.Apply(ctx)
			}
		}
	}
	e.uncacheable = !cacheable
	if ctx.Drop {
		e.drop = true
		return Result{Msg: msg, Drop: true}, consumed, nil
	}
	if taint&(1<<FieldMetaTenant|1<<FieldMetaQueue|1<<FieldMetaNewFlags) != 0 {
		e.uncacheable = true
	}
	msg.Tenant = uint16(phv.Get(FieldMetaTenant))
	flags := uint8(phv.Get(FieldMetaNewFlags))
	p.deparse(msg, ctx.Chain, flags)
	e.tenant = msg.Tenant
	e.flags = flags
	e.queue = phv.Get(FieldMetaQueue)
	e.hops = ctx.Chain
	return Result{Msg: msg, Queue: e.queue}, consumed, nil
}
