package interconnect

import "testing"

// paperNode is the paper's link interface: four default links.
func paperNode() *Node { return NewNode(4, Default()) }

// TestPeakBandwidth: the node stripes payload over its links, 4 × 2.5
// Gbit/s × 0.8 / 8 = 1.0 GB/s, the paper's ~1 GB/s-class fabric.
func TestPeakBandwidth(t *testing.T) {
	n := paperNode()
	got := float64(n.Links) * n.bytesPerNs() * 1e9
	if got < 0.9e9 {
		t.Errorf("peak bandwidth %.3g B/s too low for the paper's ~1 GB/s-class fabric", got)
	}
	if got != 1e9 {
		t.Errorf("peak = %v B/s, want 1e9", got)
	}
}

func TestRemoteReadUnder200ns(t *testing.T) {
	n := paperNode()
	if rt := n.RemoteReadNs(32, 2); rt >= 200 {
		t.Errorf("32 B remote read = %v ns, want < 200 (paper's claim)", rt)
	}
}

func TestHopsAddLatency(t *testing.T) {
	n := paperNode()
	near := n.RemoteReadNs(32, 1)
	far := n.RemoteReadNs(32, 5)
	if far <= near {
		t.Error("more hops must cost more")
	}
}

func TestNewNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero links")
		}
	}()
	NewNode(0, Default())
}

func TestTorusHops(t *testing.T) {
	f, err := NewFabric(16, paperNode()) // 4x4
	if err != nil {
		t.Fatal(err)
	}
	if f.Cols != 4 {
		t.Fatalf("cols = %d", f.Cols)
	}
	// Node 0 to node 15 (3,3): wrap both ways -> 1+1 = 2 hops.
	if got := f.Hops(0, 15); got != 2 {
		t.Errorf("torus hops(0,15) = %d, want 2", got)
	}
	// Node 0 to node 10 (2,2): 2+2 = 4 hops (the diameter).
	if got := f.Hops(0, 10); got != 4 {
		t.Errorf("torus hops(0,10) = %d, want 4", got)
	}
	if f.Diameter() != 4 {
		t.Errorf("4x4 torus diameter = %d, want 4", f.Diameter())
	}
	if f.BisectionLinks() != 8 {
		t.Errorf("4x4 torus bisection = %d links, want 8", f.BisectionLinks())
	}
}

func TestBisectionGrowsWithMachine(t *testing.T) {
	rows, err := ScalingStudy([]int{4, 16, 64, 256}, paperNode())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].BisectionGBs <= rows[i-1].BisectionGBs {
			t.Errorf("bisection did not grow: %d nodes %.2f GB/s vs %d nodes %.2f GB/s",
				rows[i].Nodes, rows[i].BisectionGBs, rows[i-1].Nodes, rows[i-1].BisectionGBs)
		}
	}
	// The paper's sub-200 ns remote budget holds at board scale (<=64).
	for _, r := range rows {
		if r.Nodes <= 64 && !r.Within200ns {
			t.Errorf("%d nodes: remote read %.0f ns exceeds 200 ns", r.Nodes, r.RemoteReadNs)
		}
	}
}

// TestFabricStripesOverNodeLinks: the fabric's remote latency follows
// the link count of its nodes, not a fixed four.
func TestFabricStripesOverNodeLinks(t *testing.T) {
	four, err := NewFabric(16, paperNode())
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewFabric(16, NewNode(2, Default()))
	if err != nil {
		t.Fatal(err)
	}
	if two.RemoteLatencyNs() <= four.RemoteLatencyNs() {
		t.Errorf("2-link remote read %.1f ns, want slower than 4-link %.1f ns",
			two.RemoteLatencyNs(), four.RemoteLatencyNs())
	}
}

func TestFabricErrors(t *testing.T) {
	if _, err := NewFabric(1, paperNode()); err == nil {
		t.Error("1-node fabric accepted")
	}
	if _, err := NewFabric(7, paperNode()); err == nil {
		t.Error("non-tiling torus accepted")
	}
}

// TestMeanHopsMatchesPairwise checks the O(n) vertex-transitive
// MeanHops shortcut against the brute-force mean over all distinct
// pairs, on square and rectangular tori.
func TestMeanHopsMatchesPairwise(t *testing.T) {
	for _, nodes := range []int{2, 4, 16, 12, 64, 256} {
		f, err := NewFabric(nodes, paperNode())
		if err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
		var sum, pairs int
		for a := 0; a < f.Nodes; a++ {
			for b := a + 1; b < f.Nodes; b++ {
				sum += f.Hops(a, b)
				pairs++
			}
		}
		want := float64(sum) / float64(pairs)
		if got := f.MeanHops(); got != want {
			t.Errorf("%d nodes: MeanHops = %v, pairwise mean = %v", nodes, got, want)
		}
	}
}
