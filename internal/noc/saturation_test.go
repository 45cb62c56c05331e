package noc

import "testing"

// table3Mesh builds the mesh for one Table 3 configuration.
func table3Mesh(k, widthBits int) *Mesh {
	cfg := DefaultMeshConfig()
	cfg.Width, cfg.Height, cfg.FlitWidthBits = k, k, widthBits
	return NewMesh(cfg)
}

// TestLatencyThroughputCurve checks the canonical NoC behaviour: latency is
// flat at low load and blows up near saturation; delivered throughput is
// monotone in offered load below saturation.
func TestLatencyThroughputCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("load sweep is slow")
	}
	build := func() resettable { return table3Mesh(6, 64) }
	// Offered load in Gbps is load × 36 nodes × 512 bits × 500 MHz ≈
	// load × 9.2 Tbps; saturation is near 460 Gbps (load ≈ 0.05).
	points := SweepLoad(build, 500e6, 64, []float64{0.005, 0.02, 0.9}, 1000, 6000, 11)
	low, mid, high := points[0], points[1], points[2]
	if low.DeliveredGbps >= mid.DeliveredGbps || mid.DeliveredGbps >= high.DeliveredGbps {
		t.Errorf("throughput not monotone: %.1f, %.1f, %.1f Gbps",
			low.DeliveredGbps, mid.DeliveredGbps, high.DeliveredGbps)
	}
	// At 2% load the mesh is uncongested: latency close to pure hop
	// latency (avg ~4.4 hops + eject + 7 serialization cycles for 8 flits).
	if low.MeanLatencyCycles > 30 {
		t.Errorf("low-load latency %.1f cycles, want near-minimal", low.MeanLatencyCycles)
	}
	if high.MeanLatencyCycles < 3*low.MeanLatencyCycles {
		t.Errorf("saturation latency %.1f not clearly above low-load %.1f",
			high.MeanLatencyCycles, low.MeanLatencyCycles)
	}
}

// TestCrossbarVsMeshTradeoff reproduces the paper's wire-length argument
// (§3.1.2): an idealized (zero-extra-latency) crossbar beats the mesh on
// latency, but once the crossbar pays a realistic long-wire traversal
// penalty the mesh wins at low load, which is why PANIC distributes the
// switch.
func TestCrossbarVsMeshTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("fabric comparison is slow")
	}
	mesh := table3Mesh(6, 64)
	meshLat := MeasureLoad(mesh, 500e6, 64, 0.02, 1000, 5000, 3).MeanLatencyCycles

	ideal := NewCrossbar(CrossbarConfig{Nodes: 36, FlitWidthBits: 64, TraversalLatency: 0, InjectDepth: 8, EjectDepth: 8})
	idealLat := MeasureLoad(ideal, 500e6, 64, 0.02, 1000, 5000, 3).MeanLatencyCycles

	slow := NewCrossbar(CrossbarConfig{Nodes: 36, FlitWidthBits: 64, TraversalLatency: 30, InjectDepth: 8, EjectDepth: 8})
	slowLat := MeasureLoad(slow, 500e6, 64, 0.02, 1000, 5000, 3).MeanLatencyCycles

	if idealLat >= meshLat {
		t.Errorf("ideal crossbar latency %.1f not below mesh %.1f", idealLat, meshLat)
	}
	if slowLat <= meshLat {
		t.Errorf("long-wire crossbar latency %.1f not above mesh %.1f", slowLat, meshLat)
	}
}
