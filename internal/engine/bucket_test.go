package engine

import (
	"math"
	"math/big"
	"testing"

	"github.com/panic-nic/panic/internal/packet"
	"github.com/panic-nic/panic/internal/sched"
)

// TestBucketRounding checks that the rate in bits per second and FreqHz
// round to whole numbers, at least 1, in both users of the bucket.
func TestBucketRounding(t *testing.T) {
	mac := NewEthernetMAC(MACConfig{LineRateGbps: 0.3e-9, FreqHz: 450e6 + 0.4}, nil, nil)
	if mac.rate != 1 || mac.unit != 450e6 {
		t.Errorf("0.3 bit/s at 450,000,000.4 Hz: rate %d, unit %d; want 1 and 450000000", mac.rate, mac.unit)
	}
	if mac.max != 1538*8*450e6 {
		t.Errorf("max %d, want one 1538-byte frame", mac.max)
	}
	tx := NewTxDMAEngine(63.0000000006, 333e6+0.5, nil)
	if tx.rate != 63e9+1 || tx.unit != 333e6+1 {
		t.Errorf("63.0000000006 Gbps at 333,000,000.5 Hz: rate %d, unit %d", tx.rate, tx.unit)
	}
	rl := NewRateLimiterEngine(0.6)
	rl.SetLimit(1, 0.2e-9)
	if l := rl.limits[1]; l.rate != 1 || l.unit != 1 || l.tokens != rateLimitBurstBytes*8 {
		t.Errorf("0.2 bit/s at 0.6 Hz: rate %d, unit %d, tokens %d", l.rate, l.unit, l.tokens)
	}
}

// TestBucketRefillSaturates checks the overflow guard: the longest refill
// that adds and any longer one fill the bucket, from a full one and from
// one a 64 KiB frame drove negative, and a short one adds exactly.
func TestBucketRefillSaturates(t *testing.T) {
	b := newBucket(100e9, 500e6, 1538*8, 4)
	if b.fill > 1e8 {
		t.Fatalf("fill %d: 10^8 cycles at 100 Gbps should pass the bound", b.fill)
	}
	for _, n := range []uint64{b.fill, b.fill + 1} {
		for _, from := range []int64{-b.units(64 * 1024 * 8), b.max} {
			b.tokens = from
			b.refill(n)
			if b.tokens != b.max {
				t.Errorf("refill of %d cycles from %d: %d tokens, want %d", n, from, b.tokens, b.max)
			}
		}
	}
	b.tokens = -b.units(64 * 1024 * 8)
	b.refill(math.MaxUint64)
	if b.tokens != b.max {
		t.Errorf("refill of 2^64-1 cycles: %d tokens, want %d", b.tokens, b.max)
	}
	b.tokens = b.max - 5*b.rate - 1
	b.refill(5)
	if b.tokens != b.max-1 {
		t.Errorf("refill of 5 cycles: %d tokens, want %d", b.tokens, b.max-1)
	}
}

// TestPacedTileSleepsPastOverflow sleeps a MAC at 100 Gbps and 500 MHz
// for 2·10^9 cycles, past the refills its bucket can add without
// overflowing (an unguarded sum wraps negative here), after a jumbo
// frame drove the bucket negative. The tile must wake with a full bucket
// and pass the next frame at once.
func TestPacedTileSleepsPastOverflow(t *testing.T) {
	const late = 2_000_000_000
	r := newRig(3, 1)
	node := r.mesh.NodeAt(0, 0)
	r.routes.Bind(20, node)
	mac := NewEthernetMAC(MACConfig{LineRateGbps: 100, FreqHz: 500e6},
		&scriptSource{arr: []arrival{{0, 9000}, {late, 100}}}, nil)
	tile := NewTile(TileConfig{Addr: 20, Node: node, QueueCap: 16, Policy: sched.Backpressure}, mac, r.mesh, r.routes, r.rng.Fork())
	tile.UsePool(packet.NewMessagePool())
	pt := &pacedTick{Tile: tile, tokens: make(map[uint64]int64)}
	r.k.Register(pt)
	poke := r.k.PokerFor(pt)
	r.mesh.SetNodeWaker(node, poke)
	tile.EnableEventSleep(poke, r.k.Clock())
	collector := NewCollectorEngine("sink", 1, nil)
	sink := r.place(11, 2, 0, collector)
	sinkPoke := r.k.PokerFor(sink)
	r.mesh.SetNodeWaker(sink.cfg.Node, sinkPoke)
	sink.EnableEventSleep(sinkPoke, r.k.Clock())
	r.routes.SetDefault(11)

	r.k.Run(late)
	if mac.fill >= late {
		t.Fatalf("fill %d: the sleep does not pass the bound", mac.fill)
	}
	if mac.tokens != mac.max {
		t.Errorf("after sleeping to cycle %d: %d tokens, want %d", late, mac.tokens, mac.max)
	}
	r.k.Run(1000)
	if want := mac.max - mac.units(wireBits(kvsSet(2, 2, 100))); pt.tokens[late] != want {
		t.Errorf("tick at cycle %d left %d tokens, want %d: the frame should leave at once from a full bucket", late, pt.tokens[late], want)
	}
	if len(pt.tokens) > 1000 {
		t.Errorf("tile ticked %d cycles; it should sleep to the late frame", len(pt.tokens))
	}
	if collector.Count() != 2 {
		t.Errorf("%d frames delivered, want 2", collector.Count())
	}
}

// ratBucket is the reference bucket: exact rational bits, refilled one
// cycle at a time.
type ratBucket struct {
	tokens, rate, max *big.Rat
}

func newRatBucket(bitsPerSec, freqHz int64, maxBits *big.Rat) *ratBucket {
	return &ratBucket{tokens: new(big.Rat), rate: big.NewRat(bitsPerSec, freqHz), max: maxBits}
}

func (b *ratBucket) refill() {
	b.tokens.Add(b.tokens, b.rate)
	if b.tokens.Cmp(b.max) > 0 {
		b.tokens.Set(b.max)
	}
}

func (b *ratBucket) holds(bits int64) bool { return b.tokens.Cmp(big.NewRat(bits, 1)) >= 0 }

func (b *ratBucket) spend(bits int64) { b.tokens.Sub(b.tokens, big.NewRat(bits, 1)) }

// Rates that are not whole numbers of bits per cycle: 88 8/9 and
// 134 2/47.
var exactRates = []struct{ bitsPerSec, freqHz int64 }{{40e9, 450e6}, {63e9, 470e6}}

// TestBucketMatchesRationals runs the pacer and the rate limiter against
// a bucket of exact rationals refilled once per cycle, at rates that are
// not whole numbers of bits per cycle. The pacer, woken only on the
// cycles NextWork names and refilled in bulk in between, must pass every
// frame on the reference's cycle; the rate limiter must quote every
// frame the reference's wait.
func TestBucketMatchesRationals(t *testing.T) {
	const horizon = 60_000
	for _, rate := range exactRates {
		bpc := float64(rate.bitsPerSec) / float64(rate.freqHz)
		arr := poissonArrivals(7, 6200/bpc/1.5, horizon, horizon/3)
		frames := make([]int64, len(arr))
		for i, a := range arr {
			frames[i] = int64(kvsSet(uint64(i+1), uint64(i+1), a.vlen).WireLen() * 8)
		}

		// The pacer (a TX DMA engine) against the reference, per cycle.
		tx := NewTxDMAEngine(float64(rate.bitsPerSec)/1e9, float64(rate.freqHz), &scriptSource{arr: arr})
		ref := newRatBucket(rate.bitsPerSec, rate.freqHz, big.NewRat(1538*8, 1))
		var want []uint64
		for c, next := uint64(0), 0; c < horizon; c++ {
			ref.refill()
			for ; next < len(arr) && arr[next].at <= c; next++ {
				if !ref.holds(min(frames[next], 1538*8)) {
					break
				}
				ref.spend(frames[next])
				want = append(want, c)
			}
		}
		var got []uint64
		for c, last := uint64(0), uint64(0); c < horizon; {
			if c > 0 {
				tx.refill(c - last - 1)
			}
			for range tx.Generate(&Ctx{Now: c}) {
				got = append(got, c)
			}
			next, idle := tx.NextWork(c + 1)
			if idle {
				break
			}
			last, c = c, next
		}
		if len(got) != len(want) {
			t.Fatalf("%.3f bits/cycle: pacer passed %d frames, reference %d", bpc, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%.3f bits/cycle: pacer passed frame %d on cycle %d, reference %d", bpc, i, got[i], want[i])
			}
		}

		// The rate limiter, serving the frames in order as a tile does:
		// a frame starts when it has arrived and the one before it has
		// been processed, and is processed svc cycles later.
		rl := NewRateLimiterEngine(float64(rate.freqHz))
		rl.SetLimit(1, float64(rate.bitsPerSec)/1e9)
		ref = newRatBucket(rate.bitsPerSec, rate.freqHz, big.NewRat(rateLimitBurstBytes*8, 1))
		ref.tokens.Set(ref.max)
		refAt := uint64(0)
		refillTo := func(c uint64) {
			for ; refAt < c; refAt++ {
				ref.refill()
			}
		}
		var free uint64
		for i, a := range arr {
			start := max(a.at, free)
			refillTo(start)
			// The reference waits until the bucket holds more than the
			// frame: one cycle if it holds the frame already.
			wait := uint64(1)
			if !ref.holds(frames[i]) {
				u, bits := new(big.Rat).Set(ref.tokens), big.NewRat(frames[i], 1)
				for wait = 0; u.Cmp(bits) <= 0; wait++ {
					u.Add(u, ref.rate)
				}
			}
			m := kvsSet(uint64(i+1), uint64(i+1), a.vlen)
			svc := rl.ServiceCyclesAt(&Ctx{Now: start}, m)
			if svc != wait {
				t.Fatalf("%.3f bits/cycle: rate limiter quoted frame %d at cycle %d %d cycles, reference %d", bpc, i, start, svc, wait)
			}
			free = start + svc
			refillTo(free)
			ref.spend(frames[i])
			if ref.tokens.Sign() < 0 {
				ref.tokens.SetInt64(0)
			}
			rl.Process(&Ctx{Now: free}, m)
		}
		if _, delayed := rl.Counts(); delayed < 100 {
			t.Errorf("%.3f bits/cycle: only %d frames delayed", bpc, delayed)
		}
	}
}
