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
// The samples are kept as a sorted prefix followed by an unsorted tail of
// those observed since the last query. A query sorts only the tail and
// merges it into the prefix in place, so with n samples of which k are new
// it costs O(k log k + n), and O(1) when nothing arrived since the last
// one. Once the buffers have grown, queries do not allocate.
type Histogram struct {
	samples []float64 // samples[:nsorted] ascending, then the tail
	nsorted int
	scratch []float64 // holds the tail during a merge; reused
	sum     float64   // in observe order, so Mean does not depend on queries
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.samples = append(h.samples, v)
	h.sum += v
}

// sort folds the unsorted tail into the sorted prefix. Samples order as
// sort.Float64s orders them: NaNs first, -0 and +0 equal.
func (h *Histogram) sort() {
	n, k := len(h.samples), len(h.samples)-h.nsorted
	if k == 0 {
		return
	}
	tail := h.samples[h.nsorted:]
	slices.Sort(tail)
	i := h.nsorted - 1
	if i < 0 || !cmp.Less(tail[0], h.samples[i]) {
		// The tail already sorts after the prefix. This also spares a
		// first query after a long run copying every sample to scratch.
		h.nsorted = n
		return
	}
	// Merge from the back: the largest remaining element of the prefix
	// or of the (copied-out) tail goes to the highest free slot. Prefix
	// elements below the tail's minimum never move.
	h.scratch = append(h.scratch[:0], tail...)
	j := k - 1
	for w := n - 1; j >= 0; w-- {
		if i >= 0 && cmp.Less(h.scratch[j], h.samples[i]) {
			h.samples[w] = h.samples[i]
			i--
		} else {
			h.samples[w] = h.scratch[j]
			j--
		}
	}
	h.nsorted = n
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
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
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.samples[idx]
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
