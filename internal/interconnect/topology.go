package interconnect

import (
	"fmt"
	"math"
)

// Fabric models the S-Connect fabric at the system level (Section 8,
// Figure 18): processing elements plugged into a silicon-less
// motherboard whose sockets wire a 2-D torus, each node using its four
// links for its four neighbours. The paper's scaling claim — "the
// system's bi-sectional bandwidth increases as components are added" —
// and its sub-200 ns remote-latency budget both depend on that wiring,
// so this model computes hop distances, average/worst-case remote
// latencies, and bisection bandwidth as the machine grows.
type Fabric struct {
	Nodes int
	// PE is every node's link interface.
	PE *Node
	// Cols is the torus width (≈ √Nodes, chosen automatically).
	Cols int
}

// NewFabric lays out n nodes, each with the link interface pe, on a
// 2-D torus.
func NewFabric(n int, pe *Node) (*Fabric, error) {
	if n < 2 {
		return nil, fmt.Errorf("interconnect: a fabric needs at least 2 nodes")
	}
	f := &Fabric{Nodes: n, PE: pe, Cols: int(math.Round(math.Sqrt(float64(n))))}
	if f.Cols < 2 {
		f.Cols = 2
	}
	if n%f.Cols != 0 {
		return nil, fmt.Errorf("interconnect: %d nodes do not tile a %d-wide torus", n, f.Cols)
	}
	return f, nil
}

// Hops returns the minimal hop count between two nodes.
func (f *Fabric) Hops(a, b int) int {
	rows := f.Nodes / f.Cols
	ax, ay := a%f.Cols, a/f.Cols
	bx, by := b%f.Cols, b/f.Cols
	dx := abs(ax - bx)
	if w := f.Cols - dx; w < dx {
		dx = w
	}
	dy := abs(ay - by)
	if w := rows - dy; w < dy {
		dy = w
	}
	return dx + dy
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// MeanHops returns the average hop count over all distinct node pairs.
// Tori are vertex-transitive — the distance profile is the
// same from every node — so the mean over all pairs equals the mean
// distance from node 0, computed in O(n) instead of O(n²).
func (f *Fabric) MeanHops() float64 {
	var sum int
	for b := 1; b < f.Nodes; b++ {
		sum += f.Hops(0, b)
	}
	return float64(sum) / float64(f.Nodes-1)
}

// Diameter returns the worst-case hop count.
func (f *Fabric) Diameter() int {
	max := 0
	for b := 1; b < f.Nodes; b++ {
		if h := f.Hops(0, b); h > max {
			max = h
		}
	}
	return max
}

// BisectionLinks counts links crossing the best balanced cut: between
// two row-halves, 2×Cols wrap+cross links; between two column halves,
// 2×rows. The bisection is the smaller cut.
func (f *Fabric) BisectionLinks() int {
	return 2 * min(f.Cols, f.Nodes/f.Cols)
}

// BisectionBytesPerSec returns the usable bisection bandwidth.
func (f *Fabric) BisectionBytesPerSec() float64 {
	return float64(f.BisectionLinks()) * f.PE.Params.GbitPerSec * 1e9 * f.PE.Params.Efficiency / 8
}

// RemoteLatencyNs estimates the average remote read latency for a
// 32-byte coherence block across the fabric, using the per-node
// striped-link model of RemoteReadNs.
func (f *Fabric) RemoteLatencyNs() float64 {
	return f.PE.RemoteReadNs(32, int(math.Ceil(f.MeanHops())))
}

// ScalingRow is one machine size in a scaling study.
type ScalingRow struct {
	Nodes        int
	MeanHops     float64
	Diameter     int
	BisectionGBs float64
	RemoteReadNs float64
	Within200ns  bool
}

// ScalingStudy evaluates the fabric of pe nodes across machine sizes
// (the paper's Lego-block growth story: plug in more PEs, bandwidth
// grows).
func ScalingStudy(sizes []int, pe *Node) ([]ScalingRow, error) {
	rows := make([]ScalingRow, 0, len(sizes))
	for _, n := range sizes {
		f, err := NewFabric(n, pe)
		if err != nil {
			return nil, err
		}
		lat := f.RemoteLatencyNs()
		rows = append(rows, ScalingRow{
			Nodes:        n,
			MeanHops:     f.MeanHops(),
			Diameter:     f.Diameter(),
			BisectionGBs: f.BisectionBytesPerSec() / 1e9,
			RemoteReadNs: lat,
			Within200ns:  lat < 200,
		})
	}
	return rows, nil
}
