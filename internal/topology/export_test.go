package topology

// What the external test package (lifecycle_test.go, which needs
// workload and emu and so cannot live inside this one) sees of the flow
// lifecycle's bookkeeping.

// HoldReleases makes Release keep every flow in the network.
func (n *Network) HoldReleases() { n.holdReleases = true }

// LiveFlows returns how many flows the network still holds.
func (n *Network) LiveFlows() int { return len(n.flows) }

// Strays returns how many packets met the bottleneck with no flow to
// account them to.
func (n *Network) Strays() uint64 { return n.strays }

// InNetwork returns the largest in-network packet count, in absolute
// value, over the flows the network still holds.
func (n *Network) InNetwork() int {
	worst := 0
	for _, f := range n.flows {
		worst = max(worst, f.inNet, -f.inNet)
	}
	return worst
}
