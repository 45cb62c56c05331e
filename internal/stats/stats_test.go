package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("Counter = %d, want 42", c.Value())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.5, 50}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if h.Mean() != 50.5 {
		t.Errorf("Mean = %v, want 50.5", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("Min/Max = %v/%v, want 1/100", h.Min(), h.Max())
	}
	if h.P50() != 50 || h.P99() != 99 {
		t.Errorf("P50/P99 = %v/%v", h.P50(), h.P99())
	}
}

func TestHistogramEmptyAndPanics(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram should return zeros")
	}
	defer func() {
		if recover() == nil {
			t.Error("Quantile(1.5) did not panic")
		}
	}()
	h.Quantile(1.5)
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	// Interleaving Observe and Quantile must keep answers correct.
	h := NewHistogram()
	h.Observe(5)
	if h.Quantile(1) != 5 {
		t.Fatal("first quantile wrong")
	}
	h.Observe(1)
	if h.Quantile(0) != 1 {
		t.Error("histogram did not resort after new sample")
	}
}

// TestHistogramPropertyQuantiles: quantiles of arbitrary data match a direct
// nearest-rank computation on the sorted data, and are monotone in q.
func TestHistogramPropertyQuantiles(t *testing.T) {
	prop := func(vals []float64, qs []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range clean {
			h.Observe(v)
		}
		ref := append([]float64(nil), clean...)
		sort.Float64s(ref)
		prev := math.Inf(-1)
		for _, q := range qs {
			q = math.Abs(q)
			q -= math.Floor(q) // into [0,1)
			got := h.Quantile(q)
			idx := int(math.Ceil(q*float64(len(ref)))) - 1
			if idx < 0 {
				idx = 0
			}
			if got != ref[idx] {
				return false
			}
			_ = prev
		}
		// Monotonicity across a fixed ladder.
		prev = math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHistogramPropertyInterleaved: queries interleaved with batches of new
// samples answer as a fresh nearest-rank computation over every sample so
// far, so folding each batch into the sorted prefix loses or misplaces
// nothing. The data has duplicates, negatives, -0 and +0 (equal under ==,
// as under sort.Float64s).
func TestHistogramPropertyInterleaved(t *testing.T) {
	prop := func(raw []int8, batches []uint8, qs []float64) bool {
		h := NewHistogram()
		var all []float64
		next := 0
		for bi, b := range batches {
			for n := int(b % 16); n > 0 && next < len(raw); n-- {
				v := float64(raw[next] % 32)
				if raw[next] < 0 && v == 0 {
					v = math.Copysign(0, -1)
				}
				next++
				h.Observe(v)
				all = append(all, v)
			}
			ref := append([]float64(nil), all...)
			sort.Float64s(ref)
			ladder := []float64{0, 0.5, 0.99, 1}
			if len(qs) > 0 {
				q := math.Abs(qs[bi%len(qs)])
				if !math.IsNaN(q) && !math.IsInf(q, 0) {
					ladder = append(ladder, q-math.Floor(q))
				}
			}
			for _, q := range ladder {
				want := 0.0
				if len(ref) > 0 {
					idx := int(math.Ceil(q*float64(len(ref)))) - 1
					want = ref[max(idx, 0)]
				}
				if got := h.Quantile(q); got != want {
					t.Logf("after %d samples: Quantile(%v) = %v, want %v", len(ref), q, got, want)
					return false
				}
			}
			if h.Count() != len(all) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHistogramWarmReadsDoNotAllocate: once a histogram's buffers have
// grown, observing a barrier's worth of samples and reading percentiles
// allocates nothing. Capacity is reserved up front so that append growth,
// the one allocation allowed, cannot happen inside the measured runs.
func TestHistogramWarmReadsDoNotAllocate(t *testing.T) {
	h := &Histogram{samples: make([]float64, 0, 8192)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		h.Observe(float64(rng.Intn(5000)))
	}
	barrier := func() {
		// Values below the prefix's maximum force the merge path.
		for i := 0; i < 4; i++ {
			h.Observe(float64(rng.Intn(1000)))
		}
		_, _, _ = h.P50(), h.P99(), h.Max()
	}
	barrier()
	if allocs := testing.AllocsPerRun(200, barrier); allocs != 0 {
		t.Errorf("warm Observe+P50/P99/Max allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkHistogramBarrierReads is the read pattern of a NIC snapshot
// taken at every barrier of a long run: one op grows a histogram to 10^5
// latency samples, appending a barrier's worth (300) before each
// P50/P99/Max read.
func BenchmarkHistogramBarrierReads(b *testing.B) {
	const total, perBarrier = 100_000, 300
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, total)
	for i := range vals {
		vals[i] = math.Round(200 + 100*rng.ExpFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewHistogram()
		for lo := 0; lo < total; lo += perBarrier {
			for _, v := range vals[lo:min(lo+perBarrier, total)] {
				h.Observe(v)
			}
			sinkF = h.P50() + h.P99() + h.Max()
		}
	}
}

var sinkF float64

func TestTableFormatting(t *testing.T) {
	tb := NewTable("Line-rate", "# Eth Ports", "PPS")
	tb.AddRow("40Gbps", 2, "240Mpps")
	tb.AddRow("100Gbps", 1, "300Mpps")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Line-rate") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[2], "40Gbps") || !strings.Contains(lines[3], "100Gbps") {
		t.Errorf("rows wrong:\n%s", out)
	}
	// Columns aligned: every row same length prefix structure.
	if len(lines[2]) == 0 || len(lines[3]) == 0 {
		t.Error("empty rows")
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("a")
	tb.AddRow(3.0)
	tb.AddRow(3.14159)
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	if got := strings.TrimSpace(lines[2]); got != "3" {
		t.Errorf("integral float rendered as %q, want 3", got)
	}
	if got := strings.TrimSpace(lines[3]); got != "3.14" {
		t.Errorf("float rendered as %q, want 3.14", got)
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram()
	h.Observe(10)
	s := h.Summary("ns")
	if !strings.Contains(s, "n=1") || !strings.Contains(s, "mean=10.0ns") {
		t.Errorf("Summary = %q", s)
	}
}
