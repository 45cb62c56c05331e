package engine

import (
	"math"
	"testing"

	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sched"
	"github.com/panic-nic/panic/internal/sim"
)

// arrival is one scripted frame: its cycle and its KVS value length.
type arrival struct {
	at   uint64
	vlen uint32
}

// scriptSource replays a fixed arrival list as an ArrivalSource, building
// each frame on Poll so every run gets fresh messages.
type scriptSource struct {
	arr  []arrival
	next int
	id   uint64
}

func (s *scriptSource) Poll(now uint64) *packet.Message {
	if s.next == len(s.arr) || s.arr[s.next].at > now {
		return nil
	}
	a := s.arr[s.next]
	s.next++
	s.id++
	return kvsSet(s.id, s.id, a.vlen)
}

func (s *scriptSource) NextArrival(uint64) (uint64, bool) {
	if s.next == len(s.arr) {
		return 0, false
	}
	return s.arr[s.next].at, true
}

// poissonArrivals draws exponential gaps of the given mean until the
// horizon, with value lengths up to 1,400 bytes, and puts one 9,000-byte
// frame at jumbo: bigger than the bucket, it drives the bucket far below
// zero, so the refill after it runs for hundreds of cycles.
func poissonArrivals(seed uint64, meanGap float64, horizon, jumbo uint64) []arrival {
	rng := sim.NewRNG(seed)
	var arr []arrival
	at := 0.0
	for {
		at += -meanGap * math.Log(1-rng.Float64())
		c := uint64(at)
		if c >= horizon {
			return arr
		}
		if c >= jumbo && (len(arr) == 0 || arr[len(arr)-1].at < jumbo) {
			arr = append(arr, arrival{at: jumbo, vlen: 9000})
		}
		arr = append(arr, arrival{at: c, vlen: uint32(rng.Intn(1401))})
	}
}

// The rig's rates at 450 MHz: 40 Gbps is 88 8/9 bits per cycle, not a
// whole number; 63 Gbps is 140.
const (
	exactFreqHz   = 450e6
	exactMACGbps  = 40
	exactPCIeGbps = 63
)

// TestPacerPayableMatchesGenerate checks the payable cycle a waiting
// pacer reports against per-cycle Generate calls: the waiting frame must
// leave on exactly the cycle NextWork named, at whole and non-whole rates
// alike, including after a frame bigger than the bucket.
func TestPacerPayableMatchesGenerate(t *testing.T) {
	for _, rate := range []struct {
		gbps, hz float64
	}{{40, 450e6}, {63, 450e6}, {100, 500e6}, {1, 333e6}} {
		const horizon = 200_000
		bpc := rate.gbps * 1e9 / rate.hz
		// Offered load of about 1.5x the rate keeps frames waiting.
		gap := 6200 / bpc / 1.5
		gens := map[string]Generator{
			"mac":   NewEthernetMAC(MACConfig{LineRateGbps: rate.gbps, FreqHz: rate.hz}, &scriptSource{arr: poissonArrivals(3, gap, horizon, horizon/3)}, nil),
			"txdma": NewTxDMAEngine(rate.gbps, rate.hz, &scriptSource{arr: poissonArrivals(4, gap, horizon, horizon/2)}),
		}
		for name, g := range gens {
			p := g.(interface{ pace() *pacer }).pace()
			checked := 0
			var want uint64
			var waiting *packet.Message
			for c := uint64(0); c < horizon && checked < 300; c++ {
				g.Generate(&Ctx{Now: c})
				if waiting != nil && p.waiting != waiting {
					if c != want {
						t.Fatalf("%s at %.3f bits/cycle: waiting frame left on cycle %d, NextWork said %d", name, bpc, c, want)
					}
					checked++
					waiting = nil
				}
				if waiting == nil && p.waiting != nil {
					waiting = p.waiting
					var idle bool
					if want, idle = g.NextWork(c + 1); idle || want <= c {
						t.Fatalf("%s: NextWork(%d) = %d, %v with a frame waiting", name, c+1, want, idle)
					}
				}
			}
			if checked < 50 {
				t.Errorf("%s at %.3f bits/cycle: only %d waiting frames checked", name, bpc, checked)
			}
		}
	}
}

// pacedTick wraps a paced tile for the kernel and logs its bucket after
// every tick it runs.
type pacedTick struct {
	*Tile
	tokens map[uint64]int64 // cycle -> the bucket
	// replays counts wakes that caught up refills of a partial bucket,
	// waitWakes the ones among them with a frame waiting.
	replays, waitWakes int
}

func (p *pacedTick) Tick(cycle uint64) {
	if p.sleeping && p.sleepRefill && p.pace.tokens < p.pace.max && cycle > p.syncedThrough {
		p.replays++
		if p.pace.waiting != nil {
			p.waitWakes++
		}
	}
	p.Tile.Tick(cycle)
	p.tokens[cycle] = p.pace.tokens
}

// delivery is one frame as the collector saw it.
type delivery struct {
	id, inject, at uint64
}

// pacedRun is one run of the paced-tiles rig.
type pacedRun struct {
	mac, tx    *pacedTick
	rmt        *RMTTile
	deliveries []delivery
	final      [2]int64 // buckets of the MAC and the TX DMA engine at the end
}

// runPaced builds a MAC at 40 Gbps and a TX DMA engine at 63 Gbps, both
// at 450 MHz, fed by Poisson sources with one jumbo frame each, sending
// through an RMT tile to a collector. Each generator is wedged for a
// while during the refill after its jumbo frame. With reference set the
// kernel ticks every tile every cycle; otherwise the tiles sleep.
func runPaced(t *testing.T, reference bool) pacedRun {
	const (
		horizon  = 60_000
		macJumbo = 20_000
		txJumbo  = 35_000
	)
	r := newRig(3, 3)
	var run pacedRun
	sink := SinkFunc(func(m *packet.Message, now uint64) {
		run.deliveries = append(run.deliveries, delivery{m.ID, m.Inject, now})
	})
	pool := packet.NewMessagePool()
	place := func(addr packet.Addr, x, y int, eng Engine) *pacedTick {
		node := r.mesh.NodeAt(x, y)
		r.routes.Bind(addr, node)
		tile := NewTile(TileConfig{Addr: addr, Node: node, QueueCap: 16, Policy: sched.Backpressure}, eng, r.mesh, r.routes, r.rng.Fork())
		tile.UsePool(pool)
		pt := &pacedTick{Tile: tile, tokens: make(map[uint64]int64)}
		r.k.Register(pt)
		poke := r.k.PokerFor(pt)
		r.mesh.SetNodeWaker(node, poke)
		tile.EnableEventSleep(poke, r.k.Clock())
		return pt
	}
	run.mac = place(20, 0, 0, NewEthernetMAC(MACConfig{LineRateGbps: exactMACGbps, FreqHz: exactFreqHz},
		&scriptSource{arr: poissonArrivals(5, 260, horizon, macJumbo)}, nil))
	run.tx = place(21, 0, 2, NewTxDMAEngine(exactPCIeGbps, exactFreqHz,
		&scriptSource{arr: poissonArrivals(6, 180, horizon, txJumbo)}))
	r.place(11, 2, 2, NewCollectorEngine("sink", 1, sink))
	run.rmt = r.placeRMT(1, 1, 1, miniProgram())
	run.rmt.UsePool(pool)
	r.mesh.SetNodeWaker(run.rmt.Node(), r.k.PokerFor(run.rmt))
	run.rmt.EnableEventSleep()
	r.routes.SetDefault(1)

	wedge := func(tile *pacedTick, at, lift uint64) {
		r.k.At(at, func() {
			if reference && tile.pace.tokens >= tile.pace.max {
				t.Errorf("%s: bucket full when wedged at %d; the wedge must land in a refill", tile.Name(), at)
			}
			tile.SetFault(FaultState{Wedged: true})
		})
		r.k.At(lift, func() { tile.SetFault(FaultState{}) })
	}
	wedge(run.mac, macJumbo+400, macJumbo+650)
	wedge(run.tx, txJumbo+250, txJumbo+400)
	if reference {
		r.k.UseReference()
	}
	r.k.Run(horizon)
	run.final = [2]int64{run.mac.pace.tokens, run.tx.pace.tokens}
	return run
}

// TestPacedTilesSleepExactly runs the rig on the reference stepper and
// with sleeping tiles: every frame must be injected and delivered on the
// same cycles, and the bucket must hold the same tokens after every
// tick the sleeping tile runs, the replayed refills of partial buckets,
// waiting frames and the wedge included.
func TestPacedTilesSleepExactly(t *testing.T) {
	ref := runPaced(t, true)
	got := runPaced(t, false)
	if len(ref.deliveries) < 200 {
		t.Fatalf("only %d frames delivered", len(ref.deliveries))
	}
	if len(got.deliveries) != len(ref.deliveries) {
		t.Fatalf("sleeping run delivered %d frames, reference %d", len(got.deliveries), len(ref.deliveries))
	}
	for i, d := range ref.deliveries {
		if got.deliveries[i] != d {
			t.Fatalf("frame %d: sleeping run %+v, reference %+v", i, got.deliveries[i], d)
		}
	}
	for _, p := range []struct {
		name     string
		ref, got *pacedTick
	}{{"mac", ref.mac, got.mac}, {"txdma", ref.tx, got.tx}} {
		for c, tokens := range p.got.tokens {
			if want := p.ref.tokens[c]; tokens != want {
				t.Errorf("%s cycle %d: bucket %d after the tick, reference %d", p.name, c, tokens, want)
			}
		}
		if len(p.got.tokens)*2 > len(p.ref.tokens) {
			t.Errorf("%s ticked %d of %d cycles; it should sleep through most", p.name, len(p.got.tokens), len(p.ref.tokens))
		}
		if p.got.replays < 50 || p.got.waitWakes < 10 {
			t.Errorf("%s: %d wakes replayed refills, %d with a frame waiting; the rig should exercise both", p.name, p.got.replays, p.got.waitWakes)
		}
	}
	if got.final != ref.final {
		t.Errorf("final buckets %v, reference %v", got.final, ref.final)
	}
	if got.rmt.Stats() != ref.rmt.Stats() {
		t.Errorf("rmt stats %+v, reference %+v", got.rmt.Stats(), ref.rmt.Stats())
	}
}
