package rmt

import (
	"encoding/binary"
	"testing"

	"github.com/panic-nic/panic/internal/packet"
)

// benchProcess measures one Process-equivalent call per iteration over a
// small set of recurring flows — the loaded hot path the flow cache targets.
func benchSpecs() []msgSpec {
	specs := make([]msgSpec, 8)
	for i := range specs {
		specs[i] = msgSpec{
			tenant:  uint16(1 + i%4),
			key:     uint64(i),
			srcPort: uint16(7000 + i),
			dstIP:   packet.IP4{10, 0, 0, byte(i % 3)},
		}
	}
	return specs
}

func BenchmarkProcessUncached(b *testing.B) {
	prog := cacheProgram()
	specs := benchSpecs()
	msgs := make([]*packet.Message, len(specs))
	for i, s := range specs {
		msgs[i] = s.build()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Process(msgs[i%len(msgs)], uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProcessCached(b *testing.B) {
	prog := cacheProgram()
	cache := newFlowCache()
	specs := benchSpecs()
	msgs := make([]*packet.Message, len(specs))
	for i, s := range specs {
		msgs[i] = s.build()
		// Warm: the first pass writes the chain every later pass carries,
		// and that chained key's second miss, the third pass, records it,
		// so the timed loop measures hits.
		for now := uint64(0); now < 3; now++ {
			if _, _, err := cache.process(prog, msgs[i], now); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cache.process(prog, msgs[i%len(msgs)], uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowCacheChurn measures the cache under a churning tenant: every
// message carries a KVS key never seen before, so each is a first miss
// that runs the plain walk and keeps nothing (0 B/op and 0 allocs/op).
func BenchmarkFlowCacheChurn(b *testing.B) {
	prog := cacheProgram()
	cache := newFlowCache()
	m := benchSpecs()[0].build()
	// Warm: the flow's second miss grows the key prefix over the KVS key,
	// and the passes leave m a chain header that later passes reuse.
	for now := uint64(0); now < 3; now++ {
		m.StripChain()
		if _, _, err := cache.process(prog, m, now); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StripChain()
		buf := m.Pkt.Buf // the KVS header ends the frame; its key starts 12 bytes from the end
		binary.BigEndian.PutUint64(buf[len(buf)-12:], 1<<32+uint64(i))
		if _, hit, err := cache.process(prog, m, uint64(i)); hit || err != nil {
			b.Fatalf("message %d: hit=%v err=%v", i, hit, err)
		}
	}
}
