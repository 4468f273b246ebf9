package topo

// Clone returns an independent copy of the topology: a caller may join
// IXPs, flap links, or otherwise mutate the copy without perturbing the
// original. The mutable overlay is copied eagerly; the immutable core is
// shared. Cloning a frozen topology yields a mutable copy.
func (t *Topology) Clone() *Topology {
	out := &Topology{
		Registry:     t.Registry,
		ases:         t.ases,    // immutable core: shared even on deep copies
		asOrder:      t.asOrder, // (nothing writes these after Build)
		pops:         t.pops,
		popIndex:     t.popIndex,
		version:      t.version,
		links:        make([]*Link, len(t.links)),
		adj:          make(map[PoPID][]LinkID, len(t.adj)),
		ixps:         make(map[string]*IXP, len(t.ixps)),
		ixpMemberIdx: make(map[string]map[ASN]int, len(t.ixpMemberIdx)),
	}
	for i, l := range t.links {
		c := *l
		out.links[i] = &c
	}
	for p, ids := range t.adj {
		out.adj[p] = append([]LinkID(nil), ids...)
	}
	for name, x := range t.ixps {
		c := *x
		c.Members = append([]ASN(nil), x.Members...)
		out.ixps[name] = &c
	}
	for name, m := range t.ixpMemberIdx {
		cm := make(map[ASN]int, len(m))
		for asn, i := range m {
			cm[asn] = i
		}
		out.ixpMemberIdx[name] = cm
	}
	return out
}
