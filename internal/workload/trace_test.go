package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/panic-nic/panic/internal/packet"
)

func sampleRecords() []TraceRecord {
	return []TraceRecord{
		{Cycle: 10, Tenant: 1, Class: packet.ClassLatency, Op: packet.KVSGet, Key: 7},
		{Cycle: 10, Tenant: 2, Class: packet.ClassBulk, Op: packet.KVSSet, Key: 9, ValueLen: 512},
		{Cycle: 25, Tenant: 1, Class: packet.ClassLatency, Op: packet.KVSGet, Key: 8, WAN: true, ClientNet: 3},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTraceReadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"fields":       "1 2 3\n",
		"non-numeric":  "1 2 3 x 5 6 7 8\n",
		"bad op":       "1 2 0 9 5 6 0 0\n",
		"out of order": "100 1 1 1 0 0 0 0\n50 1 1 1 0 0 0 0\n",
		// Every field but the key is out of range; a parser that truncated
		// would read tenant 1, class 0, GET, value length 1, WAN, net 44.
		"out of range": "100 65537 256 257 5 4294967297 7 300\n",
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	_, err := ReadTrace(strings.NewReader("# header\n" + cases["out of range"]))
	if err == nil || !strings.Contains(err.Error(), "line 2 field 2: tenant 65537 out of range") {
		t.Errorf("out of range: error %v does not name line 2 field 2", err)
	}
}

// TestTraceReadFieldRanges: each field takes values up to the maximum of
// its TraceRecord type (WAN: 0 or 1) and rejects the next one, naming the
// line and field.
func TestTraceReadFieldRanges(t *testing.T) {
	max := []string{"18446744073709551615", "65535", "255", "4", "18446744073709551615", "4294967295", "1", "255"}
	over := []string{"18446744073709551616", "65536", "256", "256", "18446744073709551616", "4294967296", "2", "256"}
	base := []string{"0", "1", "1", "1", "0", "0", "0", "0"}
	for i := range base {
		fields := append([]string(nil), base...)
		fields[i] = max[i]
		recs, err := ReadTrace(strings.NewReader(strings.Join(fields, " ") + "\n"))
		if err != nil || len(recs) != 1 {
			t.Errorf("field %d at %s: %v, %v", i+1, max[i], recs, err)
		}
		fields[i] = over[i]
		_, err = ReadTrace(strings.NewReader(strings.Join(fields, "\t") + "\n"))
		if want := fmt.Sprintf("trace line 1 field %d: ", i+1); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("field %d at %s: error %v, want one naming %q", i+1, over[i], err, want)
		}
	}
}

// traceBatch renders n records of mixed tenants, ops and WAN flags.
func traceBatch(tb testing.TB, n int) []byte {
	recs := make([]TraceRecord, n)
	for i := range recs {
		recs[i] = TraceRecord{Cycle: uint64(i) * 97, Tenant: uint16(1 + i%3), Class: packet.ClassLatency,
			Op: packet.KVSGet + packet.KVSOp(i%2)*2, Key: uint64(i) * 7919, ValueLen: 512, WAN: i%5 == 0, ClientNet: 2}
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, recs); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceReadAllocs: parsing is in place, so a batch costs the scanner,
// its buffer, and the record slice's growth — not objects per line.
func TestTraceReadAllocs(t *testing.T) {
	for _, c := range []struct {
		records int
		max     float64
	}{{512, 16}, {4096, 20}} {
		batch := traceBatch(t, c.records)
		var rd bytes.Reader
		allocs := testing.AllocsPerRun(20, func() {
			rd.Reset(batch)
			if got, err := ReadTrace(&rd); err != nil || len(got) != c.records {
				t.Fatalf("ReadTrace: %d records, %v", len(got), err)
			}
		})
		if allocs > c.max {
			t.Errorf("%d records: %.0f allocations, want at most %.0f", c.records, allocs, c.max)
		}
	}
}

// BenchmarkReadTrace parses one 512-record batch, the size a serve-ingest
// client posts.
func BenchmarkReadTrace(b *testing.B) {
	batch := traceBatch(b, 512)
	var rd bytes.Reader
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Reset(batch)
		if _, err := ReadTrace(&rd); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTraceReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n10 1 1 1 7 0 0 0\n"
	got, err := ReadTrace(strings.NewReader(in))
	if err != nil || len(got) != 1 {
		t.Fatalf("got %v err %v", got, err)
	}
}

func TestTraceSourceReplay(t *testing.T) {
	src := NewTraceSource(sampleRecords())
	if src.Remaining() != 3 {
		t.Fatal("remaining wrong")
	}
	if m := src.Poll(9); m != nil {
		t.Error("record replayed early")
	}
	m1 := src.Poll(10)
	m2 := src.Poll(10)
	if m1 == nil || m2 == nil {
		t.Fatal("same-cycle records not both replayed")
	}
	k := m1.Pkt.Layer(packet.LayerTypeKVS).(*packet.KVS)
	if k.Op != packet.KVSGet || k.Key != 7 || m1.Tenant != 1 {
		t.Errorf("m1 = %+v", k)
	}
	if m2.Pkt.PayloadLen != 512 {
		t.Errorf("SET payload = %d", m2.Pkt.PayloadLen)
	}
	if m := src.Poll(24); m != nil {
		t.Error("future record replayed")
	}
	m3 := src.Poll(30)
	if m3 == nil || !m3.Pkt.Has(packet.LayerTypeESP) || m3.Inner == nil {
		t.Fatalf("WAN record not wrapped: %v", m3)
	}
	if ip := m3.Inner.Layer(packet.LayerTypeIPv4).(*packet.IPv4); ip.Src[1] != 3 {
		t.Errorf("client net = %d", ip.Src[1])
	}
	if src.Remaining() != 0 || src.Poll(100) != nil {
		t.Error("source not exhausted")
	}
}

// TestRecordReplayEquivalence: recording a live generator and replaying the
// trace produces the same packet sequence.
func TestRecordReplayEquivalence(t *testing.T) {
	mk := func() *KVSStream {
		return NewKVSStream(KVSTenantConfig{
			Tenant: 4, Class: packet.ClassLatency,
			RateGbps: 10, FreqHz: 500e6, Poisson: true,
			Keys: 128, GetRatio: 0.8, WANShare: 0.25, ValueBytes: 256,
			ClientNet: 2, Count: 60, Seed: 17,
		})
	}
	records := Record(mk(), 200_000)
	if len(records) != 60 {
		t.Fatalf("recorded %d, want 60", len(records))
	}

	// Round-trip through the text format.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, records); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	live := mk()
	replay := NewTraceSource(parsed)
	for now := uint64(0); now < 200_000; now++ {
		for {
			a := live.Poll(now)
			b := replay.Poll(now)
			if (a == nil) != (b == nil) {
				t.Fatalf("cycle %d: live=%v replay=%v", now, a, b)
			}
			if a == nil {
				break
			}
			pa, pb := a.Pkt, b.Pkt
			if a.Inner != nil {
				pa = a.Inner
			}
			if b.Inner != nil {
				pb = b.Inner
			}
			ka := pa.Layer(packet.LayerTypeKVS).(*packet.KVS)
			kb := pb.Layer(packet.LayerTypeKVS).(*packet.KVS)
			if *ka != *kb || a.Tenant != b.Tenant || (a.Inner == nil) != (b.Inner == nil) {
				t.Fatalf("cycle %d: %+v vs %+v", now, ka, kb)
			}
		}
	}
}
