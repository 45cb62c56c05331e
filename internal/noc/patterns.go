package noc

import "github.com/panic-nic/panic/internal/sim"

// Pattern selects a destination for a source under a synthetic traffic
// pattern. Returning src means "skip this injection" (a node that does not
// participate).
type Pattern func(rng *sim.RNG, src, nodes, width, height int) int

// PatternUniform sends to a uniformly random other node — the assumption
// behind the paper's Table 3 analysis.
func PatternUniform(rng *sim.RNG, src, nodes, _, _ int) int {
	dst := rng.Intn(nodes - 1)
	if dst >= src {
		dst++
	}
	return dst
}

// PatternHotspot sends a fraction of traffic to node 0 (e.g. everyone
// talking to the DMA engine — the pattern a NIC actually exhibits) and the
// rest uniformly.
func PatternHotspot(hotFraction float64) Pattern {
	return func(rng *sim.RNG, src, nodes, w, h int) int {
		if src != 0 && rng.Float64() < hotFraction {
			return 0
		}
		return PatternUniform(rng, src, nodes, w, h)
	}
}

// PatternTranspose sends (x, y) -> (y, x): the classic adversarial pattern
// for dimension-order routing (all traffic crosses the diagonal).
func PatternTranspose(_ *sim.RNG, src, _, width, height int) int {
	x, y := src%width, src/width
	if x >= height || y >= width {
		return src // outside the square sub-mesh: sit out
	}
	return x*width + y
}

// PatternNeighbor sends to the east neighbor (wrapping): maximal locality,
// the upper bound on mesh throughput.
func PatternNeighbor(_ *sim.RNG, src, _, width, _ int) int {
	x, y := src%width, src/width
	return y*width + (x+1)%width
}

// MeasurePattern measures delivered throughput and latency under an
// arbitrary traffic pattern at the given offered load (1.0 = saturation
// probing). The mesh dimensions are needed by coordinate-based patterns.
func MeasurePattern(m *Mesh, pattern Pattern, freqHz float64, msgBytes int, load float64, warmup, window uint64, seed uint64) LoadPoint {
	if pattern == nil {
		panic("noc: nil traffic pattern")
	}
	c := m.Config()
	return measure(m, pattern, c.Width, c.Height, freqHz, msgBytes, load, warmup, window, seed)
}
