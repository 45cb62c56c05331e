package rmt

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/panic-nic/panic/internal/packet"
)

// steeringProgram builds a small but realistic program: GETs from tenant 1
// go to the cache engine (addr 4) then DMA (addr 8); everything else goes
// straight to DMA with a slack from its class.
func steeringProgram() *Program {
	classify := NewTable("classify", MatchExact, []FieldID{FieldKVSOp}, 0,
		NewAction("to-dma", OpPushHop{Engine: 8, SlackConst: 1000}))
	classify.Add(Entry{
		Values: []uint64{uint64(packet.KVSGet)},
		Action: NewAction("get-chain",
			OpPushHop{Engine: 4, SlackConst: 50},
			OpPushHop{Engine: 8, SlackConst: 500},
		),
	})
	lb := NewTable("lb", MatchExact, []FieldID{FieldMetaClass}, 0,
		NewAction("hash-queue",
			OpHash{FieldMetaQueue, []FieldID{FieldIPSrc, FieldL4Src}},
			OpMod{FieldMetaQueue, 8},
		))
	return NewProgram(StandardParser(), []*Table{classify}, []*Table{lb})
}

func TestProgramProcessBuildsChain(t *testing.T) {
	prog := steeringProgram()
	m := kvsGetMsg(1, 42)
	res, err := prog.Process(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drop {
		t.Fatal("unexpected drop")
	}
	c := m.Chain()
	if c == nil {
		t.Fatal("no chain written")
	}
	if len(c.Hops) != 2 || c.Hops[0] != (packet.Hop{Engine: 4, Slack: 50}) || c.Hops[1] != (packet.Hop{Engine: 8, Slack: 500}) {
		t.Errorf("chain = %+v", c.Hops)
	}
	if res.Queue >= 8 {
		t.Errorf("queue = %d, want < 8", res.Queue)
	}
	// The chain must actually be on the wire: reparse from bytes.
	dec, err := packet.Decode(m.Pkt.Buf, m.WireLen())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Has(packet.LayerTypeChain) {
		t.Error("chain not serialized into packet bytes")
	}
}

func TestProgramReplacesExistingChain(t *testing.T) {
	prog := steeringProgram()
	m := kvsGetMsg(1, 42)
	m.InsertChain(&packet.Chain{Cursor: 1, Hops: []packet.Hop{{Engine: 9, Slack: 1}, {Engine: 2, Slack: 2}}})
	if _, err := prog.Process(m, 0); err != nil {
		t.Fatal(err)
	}
	c := m.Chain()
	if c.Cursor != 0 || len(c.Hops) != 2 || c.Hops[0].Engine != 4 {
		t.Errorf("chain not replaced: %+v", c)
	}
}

func TestProgramDrop(t *testing.T) {
	drop := NewTable("acl", MatchExact, []FieldID{FieldKVSTenant}, 0, Action{})
	drop.Add(Entry{Values: []uint64{13}, Action: NewAction("deny", OpDrop{})})
	prog := NewProgram(StandardParser(), []*Table{drop})
	res, err := prog.Process(kvsGetMsg(13, 1), 0)
	if err != nil || !res.Drop {
		t.Errorf("res=%+v err=%v, want drop", res, err)
	}
	res, err = prog.Process(kvsGetMsg(12, 1), 0)
	if err != nil || res.Drop {
		t.Errorf("tenant 12 dropped")
	}
}

func TestProgramSplit(t *testing.T) {
	mk := func() []*Table { return []*Table{NewTable("t", MatchExact, []FieldID{FieldKVSOp}, 0, Action{})} }
	prog := NewProgram(StandardParser(), mk(), mk(), mk(), mk(), mk())
	parts := prog.Split(2)
	if len(parts) != 2 || parts[0].NumStages() != 3 || parts[1].NumStages() != 2 {
		t.Fatalf("split shapes: %d, %d", parts[0].NumStages(), parts[1].NumStages())
	}
	if parts[0].Regs != prog.Regs || parts[0].Parser != prog.Parser {
		t.Error("split parts must share parser and registers")
	}
	defer func() {
		if recover() == nil {
			t.Error("over-split did not panic")
		}
	}()
	prog.Split(6)
}

func TestPipelineLatencyAndThroughput(t *testing.T) {
	prog := steeringProgram() // 2 stages
	p := NewPipeline(prog, 1, 1)
	if p.Latency() != 4 {
		t.Fatalf("latency = %d, want 4 (parse+2 stages+deparse)", p.Latency())
	}
	// Feed one message per cycle for 10 cycles; outputs appear after
	// exactly Latency cycles, one per cycle.
	var outs []uint64
	for cycle := uint64(0); cycle < 20; cycle++ {
		if res, ok := p.Tick(); ok {
			outs = append(outs, res.Msg.ID)
		}
		if cycle < 10 && p.CanAccept() {
			m := kvsGetMsg(1, cycle)
			m.ID = cycle
			p.Accept(m, cycle)
		}
	}
	if len(outs) != 10 {
		t.Fatalf("got %d outputs, want 10", len(outs))
	}
	for i, id := range outs {
		if id != uint64(i) {
			t.Fatalf("out of order: %v", outs)
		}
	}
	done, dropped, errs := p.Stats()
	if done != 10 || dropped != 0 || errs != 0 {
		t.Errorf("stats = %d/%d/%d", done, dropped, errs)
	}
}

func TestPipelineExitTiming(t *testing.T) {
	prog := steeringProgram()
	p := NewPipeline(prog, 1, 1) // latency 4
	m := kvsGetMsg(1, 1)
	// Accept during cycle 0 (after Tick), exits on the Tick of cycle 4.
	exit := -1
	for cycle := 0; cycle < 10; cycle++ {
		if _, ok := p.Tick(); ok && exit < 0 {
			exit = cycle
		}
		if cycle == 0 {
			p.Accept(m, 0)
		}
	}
	if exit != 4 {
		t.Errorf("exited at cycle %d, want 4", exit)
	}
}

func TestPipelineParseErrorCountsAsDrop(t *testing.T) {
	p := NewPipeline(steeringProgram(), 1, 1)
	bad := &packet.Message{Pkt: &packet.Packet{Buf: []byte{1, 2, 3}}}
	p.Accept(bad, 0)
	for i := 0; i < 10; i++ {
		if _, ok := p.Tick(); ok {
			t.Fatal("unparseable packet emerged from pipeline")
		}
	}
	_, dropped, errs := p.Stats()
	if dropped != 1 || errs != 1 {
		t.Errorf("dropped=%d errs=%d, want 1/1", dropped, errs)
	}
}

func TestPipelineDoubleAcceptPanics(t *testing.T) {
	p := NewPipeline(steeringProgram(), 1, 1)
	p.Accept(kvsGetMsg(1, 1), 0)
	defer func() {
		if recover() == nil {
			t.Error("double accept did not panic")
		}
	}()
	p.Accept(kvsGetMsg(1, 2), 0)
}

func TestStatefulLoadBalancing(t *testing.T) {
	// A register-based round-robin spreads consecutive packets across
	// queues — the paper's "load-balancing messages across descriptor
	// queues".
	rr := NewTable("rr", MatchExact, []FieldID{FieldMetaClass}, 0,
		NewAction("rr",
			OpSet{FieldMetaScratch0, 0},
			OpRegAdd{"rrctr", FieldMetaScratch0, 1, FieldMetaQueue},
			OpMod{FieldMetaQueue, 4},
		))
	prog := NewProgram(StandardParser(), []*Table{rr})
	prog.Regs.Define("rrctr", 1)
	seen := map[uint64]int{}
	for i := 0; i < 8; i++ {
		res, err := prog.Process(kvsGetMsg(1, uint64(i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.Queue]++
	}
	for q := uint64(0); q < 4; q++ {
		if seen[q] != 2 {
			t.Errorf("queue %d got %d packets, want 2 (RR): %v", q, seen[q], seen)
		}
	}
}

func TestMatchKindString(t *testing.T) {
	if MatchExact.String() != "exact" || MatchLPM.String() != "lpm" || MatchTernary.String() != "ternary" {
		t.Error("MatchKind strings wrong")
	}
}

// TestPipelineSkipMatchesTicks checks the sleep path of the timed pipeline
// over random slot occupancies, drops included: UntilExit names the Tick
// on which the next message leaves, Skip(n) leaves the pipeline exactly
// as n Ticks that return nothing do, and a Skip that would pass an exit
// panics.
func TestPipelineSkipMatchesTicks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clone := func(p *Pipeline) *Pipeline {
		c := *p
		c.slots = append([]pipeSlot(nil), p.slots...)
		return &c
	}
	for trial := 0; trial < 300; trial++ {
		p := NewPipeline(steeringProgram(), 1+rng.Intn(3), 1+rng.Intn(2))
		steps := uint64(rng.Intn(12))
		for cycle := uint64(0); cycle < steps; cycle++ {
			p.Tick()
			if rng.Intn(3) > 0 {
				m := kvsGetMsg(1, cycle)
				if rng.Intn(4) == 0 {
					m = &packet.Message{Pkt: &packet.Packet{Buf: []byte{1, 2, 3}}}
				}
				p.Accept(m, cycle)
			}
		}
		exit, ok := p.UntilExit()
		if !ok {
			if p.Occupancy() != 0 {
				t.Fatalf("trial %d: no exit reported with %d messages in flight", trial, p.Occupancy())
			}
			exit = uint64(p.Latency()) + 3 // an empty pipeline skips any distance
		}
		for n := uint64(0); n < exit; n++ {
			skipped, ticked := clone(p), clone(p)
			skipped.Skip(n)
			for i := uint64(0); i < n; i++ {
				if res, ok := ticked.Tick(); ok || res.Msg != nil {
					t.Fatalf("trial %d: Tick %d of %d returned a message before the exit UntilExit named", trial, i+1, n)
				}
			}
			if !reflect.DeepEqual(skipped, ticked) {
				t.Fatalf("trial %d: Skip(%d) differs from %d empty Ticks", trial, n, n)
			}
		}
		if !ok {
			continue
		}
		ticked := clone(p)
		for i := uint64(1); i < exit; i++ {
			ticked.Tick()
		}
		if res, _ := ticked.Tick(); res.Msg == nil {
			t.Fatalf("trial %d: nothing left on Tick %d, which UntilExit named", trial, exit)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("trial %d: Skip(%d) passed the exit without a panic", trial, exit)
				}
			}()
			clone(p).Skip(exit)
		}()
	}
}
