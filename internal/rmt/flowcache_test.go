package rmt

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"github.com/panic-nic/panic/internal/packet"
)

// cacheProgram builds a program exercising every cacheable op the canonical
// steering program uses: ternary classification, an exact slack stage that
// feeds OpPushHop via SlackFrom, LPM routing, and a stateful lb stage with
// OpHash+OpMod+OpRegAdd. Each call returns a fresh, identical instance so a
// cached and an uncached copy can be driven in lockstep.
func cacheProgram() *Program {
	acl := NewTable("acl", MatchTernary, []FieldID{FieldKVSTenant}, 0, Action{})
	acl.Add(Entry{Values: []uint64{13}, Masks: []uint64{^uint64(0)}, Priority: 10,
		Action: NewAction("deny", OpDrop{})})

	slack := NewTable("slack", MatchExact, []FieldID{FieldMetaClass}, 0,
		NewAction("default-slack", OpSet{FieldMetaScratch1, 1000}))
	slack.Add(Entry{Values: []uint64{uint64(packet.ClassControl)},
		Action: NewAction("tight-slack", OpSet{FieldMetaScratch1, 10})})

	route := NewTable("route", MatchLPM, []FieldID{FieldIPDst}, 32,
		NewAction("to-dma",
			OpPushHop{Engine: 8, SlackFrom: FieldMetaScratch1, HasSlackFrom: true}))
	route.Add(Entry{Values: []uint64{PrefixOf(0x0a000000, 8, 32)}, PrefixLen: 8,
		Action: NewAction("via-cache",
			OpPushHop{Engine: 4, SlackConst: 50},
			OpPushHop{Engine: 8, SlackFrom: FieldMetaScratch1, HasSlackFrom: true})})

	lb := NewTable("lb", MatchExact, []FieldID{FieldMetaScratch2}, 0,
		NewAction("hash-queue",
			OpHash{FieldMetaQueue, []FieldID{FieldIPSrc, FieldIPDst, FieldL4Src, FieldL4Dst}},
			OpMod{FieldMetaQueue, 8},
			OpRegAdd{Reg: "tenant_pkts", IndexFrom: FieldMetaTenant, Delta: 1, Dst: FieldMetaHash},
		))

	prog := NewProgram(StandardParser(), []*Table{acl}, []*Table{slack}, []*Table{route}, []*Table{lb})
	prog.Regs.Define("tenant_pkts", 64)
	return prog
}

type msgSpec struct {
	tenant   uint16
	key      uint64
	srcPort  uint16
	class    packet.Class
	deadline uint64
	dstIP    packet.IP4
	chain    bool
	truncate int // >0: cut the buffer to this many bytes (parse error)
}

func (s msgSpec) build() *packet.Message {
	m := &packet.Message{
		Pkt: packet.NewPacket(0,
			&packet.Ethernet{Dst: packet.MAC{2, 0, 0, 0, 0, 1}, EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: packet.IP4{10, 0, 0, 1}, Dst: s.dstIP},
			&packet.UDP{SrcPort: s.srcPort, DstPort: packet.KVSPort},
			&packet.KVS{Op: packet.KVSGet, Tenant: s.tenant, Key: s.key},
		),
		Tenant:   s.tenant,
		Class:    s.class,
		Deadline: s.deadline,
	}
	if s.chain {
		m.InsertChain(&packet.Chain{Hops: []packet.Hop{{Engine: 9, Slack: 7}, {Engine: 2, Slack: 9}}})
	}
	if s.truncate > 0 && s.truncate < len(m.Pkt.Buf) {
		m.Pkt.Buf = m.Pkt.Buf[:s.truncate]
	}
	return m
}

func randSpec(rng *rand.Rand) msgSpec {
	s := msgSpec{
		tenant:  uint16(rng.Intn(6)) + 10, // includes 13, the ACL-denied tenant
		key:     uint64(rng.Intn(4)),
		srcPort: uint16(7000 + rng.Intn(4)),
		class:   packet.Class(rng.Intn(2)),
		dstIP:   packet.IP4{10, 0, 0, byte(rng.Intn(3))},
	}
	if rng.Intn(4) == 0 {
		s.dstIP = packet.IP4{192, 168, 0, 1} // misses the LPM /8
	}
	if rng.Intn(3) == 0 {
		s.deadline = uint64(rng.Intn(100000)) // deadline is tainted, never keyed
	}
	if rng.Intn(5) == 0 {
		s.chain = true
	}
	if rng.Intn(16) == 0 {
		s.truncate = 20 // mid-IPv4 truncation: parse error
	}
	return s
}

// TestFlowCacheDifferential drives a cached and an uncached copy of the
// same program with identical randomized traffic and demands identical
// verdicts, identical message mutations (tenant, chain bytes), and
// identical register evolution after every single message.
func TestFlowCacheDifferential(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		st := differential(t, seed, 3000, randSpec)
		if st.Hits == 0 {
			t.Fatalf("seed=%d: no cache hits over 3000 messages (misses=%d neg=%d)",
				seed, st.Misses, st.NegHits)
		}
	}
}

// TestFlowCacheDifferentialChurn is the differential test under churn:
// half the traffic is randSpec's recurring flows, half draws KVS keys from
// 2^14 values, so thousands of one-shot keys evict each other's doorkeeper
// slots while the recurring flows are admitted, replayed and flushed.
func TestFlowCacheDifferentialChurn(t *testing.T) {
	churn := func(rng *rand.Rand) msgSpec {
		s := randSpec(rng)
		if rng.Intn(2) == 0 {
			s.key = uint64(rng.Intn(1 << 14))
		}
		return s
	}
	for seed := int64(0); seed < 3; seed++ {
		st := differential(t, seed, 8000, churn)
		if st.Hits == 0 || st.Misses < 2*doorkeeperSlots {
			t.Fatalf("seed=%d: stats %+v, want hits and more misses than twice the doorkeeper's %d slots",
				seed, st, doorkeeperSlots)
		}
	}
}

// differential runs n messages drawn by spec through a plain and a cached
// copy of cacheProgram and fails on the first difference in verdict,
// message bytes or registers. It returns the cache's counters.
func differential(t *testing.T, seed int64, n int, spec func(*rand.Rand) msgSpec) FlowCacheStats {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	plain := cacheProgram()
	cachedProg := cacheProgram()
	cache := newFlowCache()
	for i := 0; i < n; i++ {
		spec := spec(rng)
		now := uint64(1000 + i)
		m1 := spec.build()
		m2 := spec.build()
		r1, err1 := plain.Process(m1, now)
		r2, _, err2 := cache.process(cachedProg, m2, now)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("seed=%d msg=%d: err %v vs %v", seed, i, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if r1.Drop != r2.Drop || r1.Queue != r2.Queue {
			t.Fatalf("seed=%d msg=%d: verdict (%v,%d) vs (%v,%d) spec=%+v",
				seed, i, r1.Drop, r1.Queue, r2.Drop, r2.Queue, spec)
		}
		if m1.Tenant != m2.Tenant {
			t.Fatalf("seed=%d msg=%d: tenant %d vs %d", seed, i, m1.Tenant, m2.Tenant)
		}
		if !bytes.Equal(m1.Pkt.Buf, m2.Pkt.Buf) {
			t.Fatalf("seed=%d msg=%d: serialized bytes diverge (spec=%+v)", seed, i, spec)
		}
		for slot := uint64(0); slot < 64; slot++ {
			if a, b := plain.Regs.Read("tenant_pkts", slot), cachedProg.Regs.Read("tenant_pkts", slot); a != b {
				t.Fatalf("seed=%d msg=%d: reg[%d] %d vs %d", seed, i, slot, a, b)
			}
		}
	}
	return cache.stats
}

// TestFlowCacheAdmitsOnSecondMiss: a key's first miss keeps nothing, so
// 10k one-shot keys leave the cache empty with no chunk carved; a key that
// misses twice is kept, and its third packet hits.
func TestFlowCacheAdmitsOnSecondMiss(t *testing.T) {
	prog := cacheProgram()
	cache := newFlowCache()
	spec := msgSpec{tenant: 1, srcPort: 7000, dstIP: packet.IP4{10, 0, 0, 1}}
	// Admit one flow so the key prefix covers the KVS key, then flush it
	// with a table change that steers nothing differently.
	for now := uint64(0); now < 2; now++ {
		if _, _, err := cache.process(prog, spec.build(), now); err != nil {
			t.Fatal(err)
		}
	}
	if len(cache.entries) != 1 {
		t.Fatalf("%d entries after a flow's second miss, want 1", len(cache.entries))
	}
	prog.Stages[1][0].Add(Entry{Values: []uint64{99}, Action: NewAction("unused", OpSet{FieldMetaScratch1, 1})})

	for k := uint64(1); k <= 10_000; k++ {
		spec.key = 1_000_000 + k
		if _, hit, err := cache.process(prog, spec.build(), k); hit || err != nil {
			t.Fatalf("one-shot key %d: hit=%v err=%v", k, hit, err)
		}
	}
	if n := len(cache.entries); n != 0 || cache.entrySlab != nil || cache.hopSlab != nil || cache.regOpSlab != nil {
		t.Fatalf("after 10k one-shot keys: %d entries, chunks carved: entries %v, hops %v, reg ops %v",
			n, cache.entrySlab != nil, cache.hopSlab != nil, cache.regOpSlab != nil)
	}

	spec.key = 7
	for now := uint64(0); now < 2; now++ {
		if _, hit, _ := cache.process(prog, spec.build(), 20_000+now); hit {
			t.Fatalf("miss %d of a new key hit", now+1)
		}
	}
	if len(cache.entries) != 1 {
		t.Fatalf("%d entries after the key's second miss, want 1", len(cache.entries))
	}
	if _, hit, _ := cache.process(prog, spec.build(), 20_002); !hit {
		t.Fatal("third packet of a twice-missed key did not hit")
	}
}

// TestFlowCacheDoorkeeperCollision: the doorkeeper slot of a probe key is
// picked by the top bits of its FNV-1a hash and holds the hash's low 16
// bits. A key whose slot another key has since taken over misses as if
// new: the collision delays its admission and admits nothing early.
func TestFlowCacheDoorkeeperCollision(t *testing.T) {
	slotTag := func(key []byte) (int, uint16) {
		h := fnv.New64a()
		h.Write(key)
		sum := h.Sum64()
		return int(sum >> (64 - doorkeeperBits)), uint16(sum)
	}
	key := func(i uint64) []byte { return binary.BigEndian.AppendUint64(nil, i) }
	a := key(0)
	slot, tagA := slotTag(a)
	var b []byte
	for i := uint64(1); b == nil; i++ {
		if s, tag := slotTag(key(i)); s == slot && tag != tagA {
			b = key(i)
		}
	}
	if tagA == 0 {
		t.Fatal("key 0's tag is the empty slot's value; pick another key")
	}

	cache := newFlowCache()
	if cache.admit(a) {
		t.Fatal("a's first miss was admitted")
	}
	if cache.seen[slot] != tagA {
		t.Fatalf("slot %d holds %#x after a's miss, want a's FNV-1a tag %#x", slot, cache.seen[slot], tagA)
	}
	if cache.admit(b) {
		t.Fatal("b's first miss was admitted through a's slot")
	}
	if cache.admit(a) {
		t.Fatal("a was admitted after b evicted its tag")
	}
	if !cache.admit(a) {
		t.Fatal("a was not admitted on its miss after its tag came back")
	}
}

// TestFlowCacheAdmissionSurvivesFlush: a flush empties the cache but not
// the doorkeeper, so a flow admitted before a table change is recorded
// again on its first miss after it and hits on its next packet.
func TestFlowCacheAdmissionSurvivesFlush(t *testing.T) {
	prog := cacheProgram()
	cache := newFlowCache()
	// Another flow's admission grows the key prefix first, so the flow
	// under test probes with the same key before and after the flush.
	warm := msgSpec{tenant: 11, srcPort: 7001, dstIP: packet.IP4{10, 0, 0, 2}}
	for now := uint64(1); now <= 2; now++ {
		if _, _, err := cache.process(prog, warm.build(), now); err != nil {
			t.Fatal(err)
		}
	}
	spec := msgSpec{tenant: 10, srcPort: 7000, dstIP: packet.IP4{10, 0, 0, 1}}
	for now := uint64(1); now <= 3; now++ {
		if _, hit, err := cache.process(prog, spec.build(), 2+now); err != nil || hit != (now == 3) {
			t.Fatalf("packet %d: hit=%v err=%v, want two misses then a hit", now, hit, err)
		}
	}
	prog.Stages[1][0].Add(Entry{Values: []uint64{99}, Action: NewAction("unused", OpSet{FieldMetaScratch1, 1})})
	if _, hit, _ := cache.process(prog, spec.build(), 6); hit {
		t.Fatal("hit after a table change")
	}
	if len(cache.entries) != 1 {
		t.Fatalf("%d entries after the first miss past the flush, want the flow re-kept", len(cache.entries))
	}
	if _, hit, _ := cache.process(prog, spec.build(), 7); !hit {
		t.Fatal("the re-kept flow did not hit")
	}
}

// TestFlowCacheChurnSparesRecurringFlow: one-shot keys keep no entries, so
// a churn of more distinct keys than the cache holds neither fills it nor
// flushes it, and a recurring flow between them hits throughout. A
// one-shot key whose tag matches its slot's (one in 65,536) is kept, so a
// few stray entries are allowed.
func TestFlowCacheChurnSparesRecurringFlow(t *testing.T) {
	prog := cacheProgram()
	cache := newFlowCache()
	flow := msgSpec{tenant: 10, srcPort: 7000, dstIP: packet.IP4{10, 0, 0, 1}}
	churn := msgSpec{tenant: 11, srcPort: 7001, dstIP: packet.IP4{10, 0, 0, 2}}
	for now := uint64(1); now <= 2; now++ {
		if _, _, err := cache.process(prog, flow.build(), now); err != nil {
			t.Fatal(err)
		}
	}
	flushes := cache.stats.Flushes
	for k := uint64(0); k < 2*flowCacheCap; k++ {
		churn.key = 1_000_000 + k
		now := 10 + 2*k
		if _, hit, err := cache.process(prog, churn.build(), now); hit || err != nil {
			t.Fatalf("one-shot key %d: hit=%v err=%v", k, hit, err)
		}
		if _, hit, err := cache.process(prog, flow.build(), now+1); !hit || err != nil {
			t.Fatalf("recurring flow after %d one-shot keys: hit=%v err=%v", k+1, hit, err)
		}
	}
	if cache.stats.Flushes != flushes || len(cache.entries) > 1+4 {
		t.Fatalf("after %d one-shot keys: %d flushes (was %d), %d entries, want no flush and at most 4 strays",
			2*flowCacheCap, cache.stats.Flushes, flushes, len(cache.entries))
	}
}

// TestFlowCacheAdmissionDeterministic: the doorkeeper's hash has no
// per-process or per-cache seed, so two caches fed the same traffic admit
// the same flows and report the same counters.
func TestFlowCacheAdmissionDeterministic(t *testing.T) {
	run := func() (FlowCacheStats, [doorkeeperSlots]uint16) {
		rng := rand.New(rand.NewSource(7))
		prog := cacheProgram()
		cache := newFlowCache()
		for i := 0; i < 6000; i++ {
			s := randSpec(rng)
			s.key = uint64(rng.Intn(1 << 12))
			cache.process(prog, s.build(), uint64(i))
		}
		return cache.stats, cache.seen
	}
	st1, seen1 := run()
	st2, seen2 := run()
	if st1 != st2 || seen1 != seen2 {
		t.Fatalf("two caches on the same traffic diverge: stats %+v vs %+v, doorkeepers equal: %v",
			st1, st2, seen1 == seen2)
	}
	if st1.Hits == 0 || st1.Misses == 0 {
		t.Fatalf("stats %+v: the traffic must both hit and miss", st1)
	}
}

// TestFlowCacheInvalidation: a table mutation after a verdict is cached
// must flush it — the next packet of the flow sees the new tables.
func TestFlowCacheInvalidation(t *testing.T) {
	prog := cacheProgram()
	cache := newFlowCache()
	spec := msgSpec{tenant: 10, srcPort: 7000, dstIP: packet.IP4{10, 0, 0, 1}}

	// Two misses admit the flow: the second records and caches it.
	for now := uint64(1); now <= 2; now++ {
		m := spec.build()
		if _, _, err := cache.process(prog, m, now); err != nil {
			t.Fatal(err)
		}
		if hops := m.Chain().Hops; hops[0].Engine != 4 {
			t.Fatalf("first hop = %+v, want engine 4", hops[0])
		}
	}
	m := spec.build()
	if _, hit, _ := cache.process(prog, m, 3); !hit {
		t.Fatal("third packet of the flow should hit")
	}

	// Failover rewrite: engine 4 dies, replica lives at 5.
	if n := prog.RewriteEngine(4, 5); n == 0 {
		t.Fatal("rewrite touched nothing")
	}
	m = spec.build()
	if _, hit, _ := cache.process(prog, m, 4); hit {
		t.Fatal("hit after table rewrite: stale verdict served")
	}
	if hops := m.Chain().Hops; hops[0].Engine != 5 {
		t.Fatalf("post-rewrite first hop = %+v, want engine 5", hops[0])
	}

	// Adding a drop rule (tenant punt / ACL) must also invalidate.
	prog.Stages[0][0].Add(Entry{Values: []uint64{10}, Masks: []uint64{^uint64(0)},
		Priority: 20, Action: NewAction("deny", OpDrop{})})
	m = spec.build()
	res, hit, err := cache.process(prog, m, 5)
	if err != nil || hit || !res.Drop {
		t.Fatalf("post-ACL res=%+v hit=%v err=%v, want fresh drop", res, hit, err)
	}
}

// TestFlowCacheUncacheable: OpFunc and register-dependent outputs must
// record negative entries, never wrong verdicts.
func TestFlowCacheUncacheable(t *testing.T) {
	t.Run("opfunc", func(t *testing.T) {
		calls := 0
		tbl := NewTable("t", MatchExact, []FieldID{FieldMetaClass}, 0,
			NewAction("custom", OpFunc(func(ctx *Ctx) { calls++ })))
		prog := NewProgram(StandardParser(), []*Table{tbl})
		cache := newFlowCache()
		spec := msgSpec{tenant: 1, srcPort: 7000, dstIP: packet.IP4{10, 0, 0, 1}}
		for i := 0; i < 4; i++ {
			if _, hit, err := cache.process(prog, spec.build(), uint64(i)); hit || err != nil {
				t.Fatalf("msg %d: hit=%v err=%v, OpFunc flows must not be replayed", i, hit, err)
			}
		}
		if calls != 4 {
			t.Fatalf("OpFunc ran %d times, want 4 (once per packet)", calls)
		}
		// The second miss admits the flow and records its negative entry.
		if st := cache.stats; st.NegHits != 2 || st.Misses != 2 {
			t.Fatalf("stats = %+v, want 2 misses + 2 negative hits", st)
		}
	})
	t.Run("register-dependent-queue", func(t *testing.T) {
		// Round-robin spraying: the queue is the post-increment counter
		// value — different for every packet, so caching the verdict would
		// pin every packet of the flow to one queue.
		tbl := NewTable("rr", MatchExact, []FieldID{FieldMetaClass}, 0,
			NewAction("spray",
				OpRegAdd{Reg: "rr", IndexFrom: FieldMetaClass, Delta: 1, Dst: FieldMetaQueue},
				OpMod{FieldMetaQueue, 4},
			))
		prog := NewProgram(StandardParser(), []*Table{tbl})
		prog.Regs.Define("rr", 4)
		cache := newFlowCache()
		spec := msgSpec{tenant: 1, srcPort: 7000, dstIP: packet.IP4{10, 0, 0, 1}}
		seen := map[uint64]bool{}
		for i := 0; i < 4; i++ {
			res, hit, err := cache.process(prog, spec.build(), uint64(i))
			if hit || err != nil {
				t.Fatalf("msg %d: hit=%v err=%v", i, hit, err)
			}
			seen[res.Queue] = true
		}
		if len(seen) != 4 {
			t.Fatalf("round-robin produced %d distinct queues, want 4", len(seen))
		}
	})
}

// TestFlowCacheParseError: parse failures are cached verdicts too.
func TestFlowCacheParseError(t *testing.T) {
	prog := cacheProgram()
	cache := newFlowCache()
	spec := msgSpec{tenant: 1, srcPort: 7000, dstIP: packet.IP4{10, 0, 0, 1}, truncate: 20}
	for now := uint64(1); now <= 2; now++ {
		if _, hit, err := cache.process(prog, spec.build(), now); hit || err == nil {
			t.Fatalf("truncated packet %d: hit=%v err=%v", now, hit, err)
		}
	}
	if _, hit, err := cache.process(prog, spec.build(), 3); !hit || err == nil {
		t.Fatalf("third truncated packet: hit=%v err=%v, want cached error", hit, err)
	}
}

// TestFlowCachePrefixGrowth: when a flow's parse walk examines more bytes
// than any before it, the key prefix grows and the cache flushes rather
// than serving entries whose keys no longer capture the walk.
func TestFlowCachePrefixGrowth(t *testing.T) {
	prog := cacheProgram()
	cache := newFlowCache()
	short := msgSpec{tenant: 1, srcPort: 7001, dstIP: packet.IP4{10, 0, 0, 1}}
	long := msgSpec{tenant: 1, srcPort: 7001, dstIP: packet.IP4{10, 0, 0, 1}, chain: true}

	// Each flow's second miss records its walk.
	send := func(s msgSpec, now uint64) {
		t.Helper()
		for i := uint64(0); i < 2; i++ {
			if _, _, err := cache.process(prog, s.build(), now+i); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(short, 1)
	plShort := cache.maxParseLen
	if plShort == 0 {
		t.Fatal("prefix did not grow on first insert")
	}
	flushes := cache.stats.Flushes
	send(long, 3)
	if cache.maxParseLen <= plShort {
		t.Fatalf("prefix %d did not grow past %d for the longer walk", cache.maxParseLen, plShort)
	}
	if cache.stats.Flushes == flushes {
		t.Fatal("no flush on prefix growth")
	}
	// Both flows must now be (re)cacheable and correct. The short flow's
	// earlier misses probed with the empty prefix, so under the grown one
	// it is admitted afresh: two misses, then a hit.
	for now := uint64(5); now <= 6; now++ {
		if _, hit, _ := cache.process(prog, short.build(), now); hit {
			t.Fatal("short flow survived the flush")
		}
	}
	if _, hit, _ := cache.process(prog, short.build(), 7); !hit {
		t.Fatal("short flow did not re-cache under the grown prefix")
	}
}
