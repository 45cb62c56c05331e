package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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

// flatHistogram is the single-slice layout the chunked store replaced: a
// sorted prefix and an unsorted tail in one growing slice, the tail sorted in
// place and merged from the back. The tests below hold the chunked store to
// its answers bit for bit, which pins the order of -0 and +0 as well as the
// values.
type flatHistogram struct {
	samples, scratch []float64
	nsorted          int
}

func (f *flatHistogram) quantile(q float64) float64 {
	n, k := len(f.samples), len(f.samples)-f.nsorted
	if k > 0 {
		tail := f.samples[f.nsorted:]
		slices.Sort(tail)
		i := f.nsorted - 1
		if i >= 0 && cmp.Less(tail[0], f.samples[i]) {
			f.scratch = append(f.scratch[:0], tail...)
			for w, j := n-1, k-1; j >= 0; w-- {
				if i >= 0 && cmp.Less(f.scratch[j], f.samples[i]) {
					f.samples[w] = f.samples[i]
					i--
				} else {
					f.samples[w] = f.scratch[j]
					j--
				}
			}
		}
		f.nsorted = n
	}
	return f.samples[max(int(math.Ceil(q*float64(n)))-1, 0)]
}

// TestHistogramChunkBoundaries: with sample counts that cross many chunk
// boundaries, in batches up to several chunks long, queries taken at a
// multiple of the chunk length, one before it and one after it answer as a
// fresh nearest-rank computation over every sample so far, and bit for bit
// as the single-slice layout did. The data has duplicates, NaN, -0 and +0.
func TestHistogramChunkBoundaries(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram()
		flat := &flatHistogram{}
		var all []float64
		observe := func(n int) {
			for ; n > 0; n-- {
				var v float64
				switch r := rng.Intn(100); {
				case r < 2:
					v = math.NaN()
				case r < 8:
					v = negZero
				case r < 14:
					v = 0
				case seed%2 == 0:
					v = float64(rng.Intn(64)) // many duplicates
				default:
					v = math.Round(100 * rng.ExpFloat64())
				}
				h.Observe(v)
				flat.samples = append(flat.samples, v)
				all = append(all, v)
			}
		}
		check := func() {
			ref := append([]float64(nil), all...)
			sort.Float64s(ref)
			qs := []float64{0, rng.Float64(), 0.5, 0.99, 1}
			for _, idx := range []int{chunkLen - 1, chunkLen, chunkLen + 1, len(ref) - chunkLen, len(ref) / 2} {
				if idx >= 0 && idx < len(ref) {
					qs = append(qs, (float64(idx)+0.5)/float64(len(ref)))
				}
			}
			for _, q := range qs {
				want := ref[max(int(math.Ceil(q*float64(len(ref))))-1, 0)]
				got := h.Quantile(q)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("seed %d, %d samples: Quantile(%v) = %v, want %v", seed, len(ref), q, got, want)
				}
				if fb := math.Float64bits(flat.quantile(q)); math.Float64bits(got) != fb {
					t.Fatalf("seed %d, %d samples: Quantile(%v) bits %#x, single-slice layout %#x",
						seed, len(ref), q, math.Float64bits(got), fb)
				}
			}
			if h.Count() != len(all) {
				t.Fatalf("Count = %d, want %d", h.Count(), len(all))
			}
		}
		// Land on c*chunkLen-1, c*chunkLen and c*chunkLen+1 for growing c,
		// and now and then jump up to three chunks at once.
		for c := 1; len(all) < 24*chunkLen; c++ {
			b := c * chunkLen
			if len(all) >= b-1 {
				continue
			}
			observe(rng.Intn(b - 1 - len(all)))
			check()
			for _, to := range []int{b - 1, b, b + 1} {
				observe(to - len(all))
				check()
			}
			if c%4 == 0 {
				observe(rng.Intn(3 * chunkLen))
				check()
			}
		}
	}
}

// TestHistogramMergeUsesUpPrefix: a tail whose smallest elements sort below
// the whole prefix moves every prefix sample, for short and long tails.
// Every rank then matches the single-slice layout bit for bit.
func TestHistogramMergeUsesUpPrefix(t *testing.T) {
	for _, k := range []int{1, 3, 40, 700, 3000} {
		h, flat := NewHistogram(), &flatHistogram{}
		observe := func(v float64) {
			h.Observe(v)
			flat.samples = append(flat.samples, v)
		}
		for i := 0; i < 1000; i++ {
			observe(float64(i % 500))
		}
		h.P50()
		flat.quantile(0.5)
		for i := 0; i < k; i++ {
			if i%2 == 0 {
				observe(float64(-1 - i))
			} else {
				observe(float64(i * 37 % 600))
			}
		}
		n := h.Count()
		for idx := 0; idx < n; idx++ {
			q := (float64(idx) + 0.5) / float64(n)
			if got, want := h.Quantile(q), flat.quantile(q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("k=%d: rank %d of %d = %v, single-slice layout %v", k, idx, n, got, want)
			}
		}
	}
}

// TestHistogramTwoRuns: barriers of 1 to 600 samples, up to 64 chunks in
// all, each followed by a read of every rank, answer bit for bit as the
// single-slice layout and as a fresh nearest-rank computation over every
// sample so far. Reading every rank covers the first and the last, those on
// both sides of nbase, and the reads just before and just after the delta
// run is merged into the base. The data has NaN, -0 and +0, whose bits pin
// the tie rule of the rank search, and many duplicates (even seeds) or
// few (odd seeds). After each query the tail is empty and the delta run
// holds at most nbase>>deltaShift samples.
func TestHistogramTwoRuns(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, flat := NewHistogram(), &flatHistogram{}
		var all []float64
		var merges, withDelta int
		for h.Count() < 64*chunkLen {
			k := 1 + rng.Intn(40)
			if rng.Intn(4) == 0 {
				k = 1 + rng.Intn(600)
			}
			for ; k > 0; k-- {
				var v float64
				switch r := rng.Intn(100); {
				case r < 2:
					v = math.NaN()
				case r < 10:
					v = negZero
				case r < 18:
					v = 0
				case seed%2 == 0:
					v = float64(rng.Intn(200) - 20) // many duplicates
				default:
					v = 50 * rng.NormFloat64()
				}
				h.Observe(v)
				flat.samples = append(flat.samples, v)
				all = append(all, v)
			}
			ref := append([]float64(nil), all...)
			sort.Float64s(ref)
			n, nb := len(ref), h.nbase
			for idx := 0; idx < n; idx++ {
				q := (float64(idx) + 0.5) / float64(n)
				got, want := h.Quantile(q), ref[idx]
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("seed %d, %d samples, nbase %d: rank %d = %v, want %v", seed, n, h.nbase, idx, got, want)
				}
				if fb := math.Float64bits(flat.quantile(q)); math.Float64bits(got) != fb {
					t.Fatalf("seed %d, %d samples, nbase %d: rank %d bits %#x, single-slice layout %#x",
						seed, n, h.nbase, idx, math.Float64bits(got), fb)
				}
			}
			if h.nsorted != n || n-h.nbase > h.nbase>>deltaShift {
				t.Fatalf("seed %d, %d samples: nbase %d, nsorted %d after a query", seed, n, h.nbase, h.nsorted)
			}
			if nb > 0 && h.nbase != nb {
				merges++
			}
			if h.nbase < n {
				withDelta++
			}
		}
		if merges < 10 || withDelta < 10 {
			t.Fatalf("seed %d: %d delta-to-base merges and %d reads with a delta run, want 10 or more of each", seed, merges, withDelta)
		}
	}
}

// TestHistogramDeltaRunMovesLess: over 2^20 samples observed in 300-sample
// barriers, each followed by a P50/P99/Max read, the merges can move at
// most a tenth of the samples that merging each tail into one sorted
// prefix can move. The bound is counted from nbase and nsorted around each
// query: the tail merge moves at most the delta run and the tail, the
// delta-to-base merge copies the delta run out and moves at most the base
// and the delta run, and a single-prefix merge moves at most every sample.
// The share is about 1/128 + 130*300/n, so a tenth needs n of 4*10^5 or
// more; below about 19,200 samples a 300-sample tail already outgrows
// nbase>>deltaShift and every query merges into the base.
func TestHistogramDeltaRunMovesLess(t *testing.T) {
	const total, perBarrier = 1 << 20, 300
	rng := rand.New(rand.NewSource(1))
	h := NewHistogram()
	var moved, prefixMoved int
	for lo := 0; lo < total; lo += perBarrier {
		for i := lo; i < min(lo+perBarrier, total); i++ {
			h.Observe(math.Round(200 + 100*rng.ExpFloat64()))
		}
		n, nb, ns := h.n, h.nbase, h.nsorted
		sinkF = h.P50() + h.P99() + h.Max()
		if ns > 0 {
			prefixMoved += n
		}
		if ns > nb {
			moved += n - nb
		}
		if nb > 0 && h.nbase != nb {
			moved += h.nbase + (h.nbase - nb)
		}
	}
	if moved > prefixMoved/10 {
		t.Errorf("merges can move %d samples, %.3f of the single prefix's %d; want at most 0.1",
			moved, float64(moved)/float64(prefixMoved), prefixMoved)
	}
}

// TestHistogramWarmReadsDoNotAllocate: once a histogram's chunk and its
// scratch buffer have grown, observing a barrier's worth of samples and
// reading percentiles allocates nothing. The warm-up ends just after a
// chunk boundary, so the measured runs' 204 samples fit in the chunk it
// started.
func TestHistogramWarmReadsDoNotAllocate(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2*chunkLen+1; i++ {
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
	if allocs := testing.AllocsPerRun(50, barrier); allocs != 0 {
		t.Errorf("warm Observe+P50/P99/Max allocated %v times per run, want 0", allocs)
	}
}

// TestHistogramStoresSamplesOnce: observing 64 chunks' worth of samples,
// with a P50/P99/Max read every 300, allocates at most 8 bytes per sample,
// plus one chunk for the first chunk's growth and the chunk table, plus the
// scratch buffer. One growing slice copied each sample about five times.
func TestHistogramStoresSamplesOnce(t *testing.T) {
	const total, perBarrier = 64 * chunkLen, 300
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, total)
	for i := range vals {
		vals[i] = math.Round(200 + 100*rng.ExpFloat64())
	}
	h := NewHistogram()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for lo := 0; lo < total; lo += perBarrier {
		for _, v := range vals[lo:min(lo+perBarrier, total)] {
			h.Observe(v)
		}
		sinkF = h.P50() + h.P99() + h.Max()
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	// The scratch buffer takes its capacity rounded up to the allocator's
	// size class, as an append-grown copy's capacity is.
	scratch := cap(append([]float64(nil), make([]float64, cap(h.scratch))...))
	limit := uint64(8*total + 8*chunkLen + 8*scratch)
	if got > limit {
		t.Errorf("%d samples allocated %d bytes (%.2f B/sample), want at most %d", total, got, float64(got)/total, limit)
	}
}

// BenchmarkHistogramBarrierReads is the read pattern of a NIC snapshot
// taken at every barrier of a long run: one op grows a histogram to 10^5
// or 4*10^5 latency samples, appending a barrier's worth (300) before each
// P50/P99/Max read.
func BenchmarkHistogramBarrierReads(b *testing.B) {
	for _, total := range []int{100_000, 400_000} {
		b.Run(fmt.Sprintf("samples=%d", total), func(b *testing.B) {
			const perBarrier = 300
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
		})
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
