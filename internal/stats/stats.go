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
// In that index space the samples are a sorted prefix followed by an
// unsorted tail of those observed since the last query. A query sorts the
// tail, in its chunk or, when it spans chunks, in the scratch buffer, and
// merges it into the prefix in place from the back, chunk by chunk. So with
// n samples of which k are new a query costs O(k log k + n), and O(1) when
// nothing arrived since the last one. Once the chunks and the scratch
// buffer have grown, queries do not allocate.
type Histogram struct {
	first   []float64            // chunk 0
	rest    []*[chunkLen]float64 // chunks 1, 2, ...
	n       int
	nsorted int       // samples [0,nsorted) ascending, then the tail
	scratch []float64 // holds a tail being sorted or merged; reused
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

// get copies the samples from index i on into dst.
func (h *Histogram) get(i int, dst []float64) {
	for len(dst) > 0 {
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

// sort folds the unsorted tail into the sorted prefix. Samples order as
// sort.Float64s orders them: NaNs first, -0 and +0 equal.
func (h *Histogram) sort() {
	n, ns := h.n, h.nsorted
	if n == ns {
		return
	}
	h.nsorted = n
	if c := ns >> chunkBits; c == (n-1)>>chunkBits {
		// The tail lies within one chunk: sort it there.
		tail := h.chunk(c)[ns&chunkMask : (n-1)&chunkMask+1]
		slices.Sort(tail)
		if ns == 0 || !cmp.Less(tail[0], h.at(ns-1)) {
			return // the tail already sorts after the prefix
		}
		h.scratch = append(h.scratch[:0], tail...)
	} else {
		// It spans chunks: sort a copy in the scratch buffer.
		if cap(h.scratch) < n-ns {
			h.scratch = make([]float64, 0, max(n-ns, 2*cap(h.scratch)))
		}
		h.scratch = h.scratch[:n-ns]
		h.get(ns, h.scratch)
		slices.Sort(h.scratch)
		if ns == 0 || !cmp.Less(h.scratch[0], h.at(ns-1)) {
			h.put(ns, h.scratch)
			return
		}
	}
	h.merge(ns)
}

// merge merges the sorted tail in the scratch buffer into the sorted
// prefix [0,ns) from the back: the top remaining prefix sample, if it is
// above the top remaining tail element, else that tail element, goes to the
// highest free slot.
// The walk keeps a source chunk and offset in the prefix and a destination
// chunk and offset, so the inner loop indexes plain slices.
func (h *Histogram) merge(ns int) {
	tail := h.scratch
	j, n := len(tail)-1, ns+len(tail)
	sc, so := (ns-1)>>chunkBits, (ns-1)&chunkMask
	dc, do := (n-1)>>chunkBits, (n-1)&chunkMask
	src, dst := h.chunk(sc), h.chunk(dc)
	x := tail[j]
	for {
		for ; do >= 0; do-- {
			if y := src[so]; cmp.Less(x, y) {
				dst[do] = y
				if so--; so >= 0 {
					continue
				}
				if sc == 0 {
					h.put(0, tail[:j+1]) // the prefix is used up
					return
				}
				sc--
				src, so = h.chunk(sc), chunkMask
			} else {
				dst[do] = x
				if j--; j < 0 {
					return // prefix samples below the tail's minimum never move
				}
				x = tail[j]
			}
		}
		dc--
		dst, do = h.chunk(dc), chunkMask
	}
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
	idx := int(math.Ceil(q*float64(h.n))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.at(idx)
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
