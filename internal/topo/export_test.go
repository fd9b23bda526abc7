package topo

import "github.com/accnet/acc/internal/netsim"

// LeafOf returns the index of the leaf switch serving host h.
func (f *Fabric) LeafOf(h *netsim.Host) int {
	for li, hs := range f.HostsAt {
		for _, hh := range hs {
			if hh == h {
				return li
			}
		}
	}
	return -1
}

// NumNodes returns the total node count of the fabric.
func (p Partition) NumNodes() int { return p.NSpine + p.NLeaf*(p.HostsPerLeaf+1) }
