// Package interconnect models the serial-link fabric of Section 4.2:
// four 2.5 Gbit/s point-to-point links per processing element (the
// S-Connect system), giving the node its off-chip bandwidth and the
// sub-200 ns remote latency budget the multiprocessor latencies of
// Table 6 are derived from. The model is analytic: message latency
// and aggregate bandwidth.
package interconnect

// LinkParams describes one serial link.
type LinkParams struct {
	GbitPerSec float64 // raw signalling rate (2.5 in a 0.25 µm process)
	Efficiency float64 // usable fraction after coding/protocol overhead
	FlightNs   float64 // wire/fibre time of flight
	RouteNs    float64 // per-hop switching latency
}

// Default returns the paper's link: 2.5 Gbit/s, 80% usable (8b/10b-
// style coding), short board-level flight time, and S-Connect's
// low-latency cut-through switching (~10 ns per hop — the fabric was
// designed so that "remote memory latencies can be reduced below
// 200ns" even across a board-scale machine).
func Default() LinkParams {
	return LinkParams{GbitPerSec: 2.5, Efficiency: 0.8, FlightNs: 5, RouteNs: 10}
}

// Node is a processing element's link interface: Links identical
// links that block transfers are striped across.
type Node struct {
	Links  int
	Params LinkParams
}

// NewNode creates a node interface with n links.
func NewNode(n int, p LinkParams) *Node {
	if n < 1 {
		panic("interconnect: need at least one link")
	}
	return &Node{Links: n, Params: p}
}

// bytesPerNs returns the usable payload bandwidth of one link.
func (n *Node) bytesPerNs() float64 {
	return n.Params.GbitPerSec * n.Params.Efficiency / 8
}

// RemoteReadNs estimates a remote read round trip: request (small
// header) out, block back, over the given hop count each way. Payloads
// are striped across the node's links, as S-Connect does for block
// transfers — a single 2.5 Gbit/s lane could not meet the paper's
// sub-200 ns remote latency on its own.
func (n *Node) RemoteReadNs(blockBytes, hops int) float64 {
	const headerBytes = 16
	bw := n.bytesPerNs() * float64(n.Links)
	req := float64(headerBytes)/bw + n.Params.FlightNs + float64(hops)*n.Params.RouteNs
	resp := float64(blockBytes+headerBytes)/bw + n.Params.FlightNs + float64(hops)*n.Params.RouteNs
	return req + resp
}
