package noc

import (
	"testing"

	"github.com/panic-nic/panic/internal/sim"
)

func TestPatternDestinations(t *testing.T) {
	rng := sim.NewRNG(1)
	// Uniform never targets self.
	for i := 0; i < 200; i++ {
		if PatternUniform(rng, 5, 36, 6, 6) == 5 {
			t.Fatal("uniform targeted self")
		}
	}
	// Hotspot(1.0) always targets node 0 from others.
	hot := PatternHotspot(1.0)
	if hot(rng, 7, 36, 6, 6) != 0 {
		t.Error("hotspot(1.0) missed the hotspot")
	}
	// Transpose swaps coordinates: (2,1) -> (1,2) in a 6x6.
	if got := PatternTranspose(rng, 1*6+2, 36, 6, 6); got != 2*6+1 {
		t.Errorf("transpose(2,1) = %d, want %d", got, 2*6+1)
	}
	// The diagonal maps to itself (sits out).
	if got := PatternTranspose(rng, 2*6+2, 36, 6, 6); got != 2*6+2 {
		t.Errorf("transpose diagonal = %d", got)
	}
	// Neighbor wraps east.
	if got := PatternNeighbor(rng, 0*6+5, 36, 6, 6); got != 0 {
		t.Errorf("neighbor wrap = %d, want 0", got)
	}
}

// TestPatternThroughputOrdering: locality beats uniform beats adversarial
// patterns — the canonical NoC result, and the reason engine placement
// matters (§6).
func TestPatternThroughputOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("pattern sweep is slow")
	}
	measure := func(pattern Pattern) float64 {
		m := NewMesh(DefaultMeshConfig())
		return MeasurePattern(m, pattern, 500e6, 64, 1.0, 2000, 8000, 5).DeliveredGbps
	}
	neighbor := measure(PatternNeighbor)
	uniform := measure(PatternUniform)
	hotspot := measure(PatternHotspot(0.3))
	transpose := measure(PatternTranspose)
	if !(neighbor > uniform) {
		t.Errorf("neighbor (%.0f) not above uniform (%.0f)", neighbor, uniform)
	}
	if !(uniform > hotspot) {
		t.Errorf("uniform (%.0f) not above hotspot (%.0f)", uniform, hotspot)
	}
	if !(uniform > transpose) {
		t.Errorf("uniform (%.0f) not above transpose (%.0f)", uniform, transpose)
	}
	// Hotspot saturates near the hot node's single ejection port:
	// ~64 Gbps of its own traffic bounds total roughly by eject/0.3.
	if hotspot > 64/0.3*1.3 {
		t.Errorf("hotspot throughput %.0f implausibly high", hotspot)
	}
}

func TestMeasurePatternNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil pattern did not panic")
		}
	}()
	MeasurePattern(NewMesh(DefaultMeshConfig()), nil, 1e9, 64, 1, 1, 1, 1)
}

// TestMeasureLoadIsUniformPattern: MeasureLoad is MeasurePattern with
// PatternUniform — the same RNG draws, so the same LoadPoint — at a low,
// a mid and a saturating load.
func TestMeasureLoadIsUniformPattern(t *testing.T) {
	for _, load := range []float64{0.02, 0.3, 1.0} {
		got := MeasureLoad(NewMesh(DefaultMeshConfig()), 500e6, 64, load, 500, 2000, 9)
		want := MeasurePattern(NewMesh(DefaultMeshConfig()), PatternUniform, 500e6, 64, load, 500, 2000, 9)
		if got != want {
			t.Errorf("load %v: MeasureLoad %+v, MeasurePattern(uniform) %+v", load, got, want)
		}
		if got.Delivered == 0 {
			t.Errorf("load %v: nothing delivered", load)
		}
	}
}
