// Package stats provides the measurement primitives used across the
// simulator: counters, latency histograms with percentile queries, and
// aligned-table formatting for experiment output.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Counter is a monotonically increasing event count. A counter may be
// shared by several components of one kernel: addition commutes, so the
// end-of-cycle value does not depend on tick order. Reads are meant for
// between-cycle reporting, not mid-Eval decisions.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Histogram records latency samples (in cycles or nanoseconds — the unit is
// the caller's) and answers percentile queries. Samples are kept exactly;
// simulations here record at most a few million samples, for which exact
// percentiles are affordable and simpler to trust than sketches.
//
// The samples live in chunks of chunkLen: sample i is at index
// i&chunkMask of chunk i>>chunkBits. Only the first chunk grows, fourfold
// from 16 samples up to chunkLen, so a histogram with a handful of samples
// stays small. Every later chunk is allocated once at full length and never
// copied, so a long run stores each sample in 8 bytes, where one growing
// slice would copy it about five times over.
//
// In that index space the samples are a sorted base run, then a sorted
// delta run, then an unsorted tail of those observed since the last query.
// A query sorts the tail, in its chunk or, when it spans chunks, in the
// scratch buffer, and merges it into the delta run in place from the back,
// chunk by chunk. Once the delta run holds more than 1/64 of the base's
// samples, the query merges it into the base the same way; the first query
// makes every sample the base. Rank k is found by a binary search over both
// runs, a base sample ranking before an equal delta sample. That is the
// order of one stable merge of every sample, so the answers, NaN and the
// order of -0 and +0 included, are those of a single sorted prefix. With n
// samples of which t are new, a query sorts in O(t log t) and, once n
// exceeds 64t, moves on average about n/128 + 65t samples, where merging
// into one sorted prefix moved about n. It costs O(log n) when nothing
// arrived since the last one. Once the chunks and the scratch buffer have
// grown, queries do not allocate.
type Histogram struct {
	first   []float64            // chunk 0
	rest    []*[chunkLen]float64 // chunks 1, 2, ...
	n       int
	nbase   int       // samples [0,nbase) ascending: the base run
	nsorted int       // samples [nbase,nsorted) ascending: the delta run; then the tail
	scratch []float64 // holds a run being sorted or merged; reused
	sum     float64   // in observe order, so Mean does not depend on queries
}

// A chunk holds chunkLen samples, 2 KiB. Short chunks keep a last chunk's
// unused room small: per-tenant histograms often hold a few hundred to a
// few thousand samples.
const (
	chunkBits = 8
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// The delta run is merged into the base once it holds more than
// nbase>>deltaShift samples. A larger share merges into the base less
// often, but lengthens each tail merge and the scratch buffer.
const deltaShift = 6

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	switch i, c := h.n, h.n>>chunkBits-1; {
	case i < len(h.first):
		h.first[i] = v
	case c >= 0 && c < len(h.rest):
		h.rest[c][i&chunkMask] = v
	default:
		h.spill(v)
	}
	h.n++
	h.sum += v
}

// spill stores sample h.n where no chunk has room for it yet: it grows the
// first chunk fourfold, up to chunkLen, or starts a new chunk.
func (h *Histogram) spill(v float64) {
	i := h.n
	if i < chunkLen {
		first := make([]float64, min(max(4*i, 16), chunkLen))
		copy(first, h.first)
		h.first = first
		first[i] = v
		return
	}
	c := new([chunkLen]float64)
	c[0] = v
	h.rest = append(h.rest, c)
}

// chunk returns chunk c.
func (h *Histogram) chunk(c int) []float64 {
	if c == 0 {
		return h.first
	}
	return h.rest[c-1][:]
}

// at returns sample i.
func (h *Histogram) at(i int) float64 { return h.chunk(i >> chunkBits)[i&chunkMask] }

// load copies the k samples from index i on into the scratch buffer.
func (h *Histogram) load(i, k int) {
	if cap(h.scratch) < k {
		h.scratch = make([]float64, 0, max(k, 2*cap(h.scratch)))
	}
	h.scratch = h.scratch[:k]
	for dst := h.scratch; len(dst) > 0; {
		n := copy(dst, h.chunk(i >> chunkBits)[i&chunkMask:])
		dst = dst[n:]
		i += n
	}
}

// put copies vals into the samples from index i on.
func (h *Histogram) put(i int, vals []float64) {
	for len(vals) > 0 {
		n := copy(h.chunk(i >> chunkBits)[i&chunkMask:], vals)
		vals = vals[n:]
		i += n
	}
}

// sort folds the unsorted tail into the delta run, and the delta run into
// the base once it has outgrown nbase>>deltaShift. Samples order as
// sort.Float64s orders them: NaNs first, -0 and +0 equal.
func (h *Histogram) sort() {
	n, ns, nb := h.n, h.nsorted, h.nbase
	if n > ns {
		h.nsorted = n
		if c := ns >> chunkBits; c == (n-1)>>chunkBits {
			// The tail lies within one chunk: sort it there.
			tail := h.chunk(c)[ns&chunkMask : (n-1)&chunkMask+1]
			slices.Sort(tail)
			if ns > nb && cmp.Less(tail[0], h.at(ns-1)) {
				h.load(ns, n-ns)
				h.merge(nb, ns)
			}
		} else {
			// It spans chunks: sort a copy in the scratch buffer.
			h.load(ns, n-ns)
			slices.Sort(h.scratch)
			if ns > nb && cmp.Less(h.scratch[0], h.at(ns-1)) {
				h.merge(nb, ns)
			} else {
				h.put(ns, h.scratch) // the tail sorts after the delta run, if any
			}
		}
	}
	if n-nb > nb>>deltaShift {
		h.nbase = n
		if nb > 0 && cmp.Less(h.at(nb), h.at(nb-1)) {
			h.load(nb, n-nb)
			h.merge(0, nb)
		} // else the delta run already sorts after the base
	}
}

// merge merges the sorted run in the scratch buffer into the sorted run
// [lo,hi) from the back: the top remaining run sample, if it is above the
// top remaining scratch element, else that scratch element, goes to the
// highest free slot. So a run sample comes before an equal scratch
// element, as in a stable merge of the run then the scratch buffer.
// The walk keeps a source chunk and offset in the run and a destination
// chunk and offset, so the inner loop indexes plain slices.
func (h *Histogram) merge(lo, hi int) {
	tail := h.scratch
	j, n := len(tail)-1, hi+len(tail)
	lc, sc := lo>>chunkBits, (hi-1)>>chunkBits
	dc, do := (n-1)>>chunkBits, (n-1)&chunkMask
	src, dst := h.chunk(sc)[:(hi-1)&chunkMask+1], h.chunk(dc)
	if sc == lc {
		src = src[lo&chunkMask:]
	}
	so := len(src) - 1
	x := tail[j]
	for {
		for ; do >= 0; do-- {
			if y := src[so]; cmp.Less(x, y) {
				dst[do] = y
				if so--; so >= 0 {
					continue
				}
				if sc == lc {
					h.put(lo, tail[:j+1]) // the run is used up
					return
				}
				sc--
				if src = h.chunk(sc); sc == lc {
					src = src[lo&chunkMask:]
				}
				so = len(src) - 1
			} else {
				dst[do] = x
				if j--; j < 0 {
					return // run samples below the scratch minimum never move
				}
				x = tail[j]
			}
		}
		dc--
		dst, do = h.chunk(dc), chunkMask
	}
}

// rank returns the sample of rank k, counting from 0, once the tail is
// sorted in. Ranks 0..k hold the first i base samples and the first k+1-i
// delta samples, where i is the least count at which delta sample k-i
// sorts strictly below base sample i: a base sample ranks before an equal
// delta sample.
func (h *Histogram) rank(k int) float64 {
	nb, nd := h.nbase, h.n-h.nbase
	lo, hi := max(k+1-nd, 0), min(k+1, nb)
	for lo < hi {
		if i := int(uint(lo+hi) >> 1); cmp.Less(h.at(nb+k-i), h.at(i)) {
			hi = i
		} else {
			lo = i + 1
		}
	}
	// Rank k is the later of base sample lo-1 and delta sample k-lo.
	switch {
	case lo == 0:
		return h.at(nb + k)
	case lo == k+1:
		return h.at(k)
	}
	b, d := h.at(lo-1), h.at(nb+k-lo)
	if cmp.Less(d, b) {
		return b
	}
	return d
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return h.n }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() float64 { return h.Quantile(0) }

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// Quantile returns the q-quantile (q in [0,1]) using the nearest-rank
// method. It returns 0 when the histogram is empty and panics on q outside
// [0,1].
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("stats: Quantile(%v) out of [0,1]", q))
	}
	if h.n == 0 {
		return 0
	}
	h.sort()
	return h.rank(max(int(math.Ceil(q*float64(h.n)))-1, 0))
}

// P50 returns the median.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P99 returns the 99th percentile.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// P999 returns the 99.9th percentile.
func (h *Histogram) P999() float64 { return h.Quantile(0.999) }

// Summary formats count/mean/p50/p99/max with a unit suffix.
func (h *Histogram) Summary(unit string) string {
	return fmt.Sprintf("n=%d mean=%.1f%s p50=%.1f%s p99=%.1f%s max=%.1f%s",
		h.Count(), h.Mean(), unit, h.P50(), unit, h.P99(), unit, h.Max(), unit)
}

// Table renders rows of experiment output with aligned columns, in the style
// of the paper's tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
