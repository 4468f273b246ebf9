package bgp

import "sisyphus/internal/netsim/topo"

// Fork returns a copy of the RIB rebound onto t, which must be a topology
// equivalent to the one the RIB was computed over (typically a Clone of
// it). This is what lets one converged fixed point seed many engines. A
// table is never rewritten once computed, so the fork shares every table,
// route, the relationship map and the captured policy with the original:
// it costs one struct copy. The forwarding memo is not shared: its hops
// point at the original topology's links.
func (r *RIB) Fork(t *topo.Topology) *RIB {
	return &RIB{Topo: t, Rel: r.Rel, c: r.c}
}

// SizeBytes estimates the RIB's resident size for the artifact store's byte
// bound: a flat per-route cost plus path payloads and per-table overhead,
// over the tables computed so far. It is an estimate, not an accounting —
// the LRU only needs relative magnitudes.
func (r *RIB) SizeBytes() int64 {
	const perRoute = 64  // one table entry
	const perPathHop = 4 // one topo.ASN
	const perDest = 48   // table header
	var n int64
	for i := range r.c.slots {
		tbl := r.c.slots[i].tbl.Load()
		if tbl == nil {
			continue
		}
		n += perDest
		for j, st := range tbl.state {
			if st != absent {
				n += perRoute + int64(len(tbl.routes[j].Path))*perPathHop
			}
		}
	}
	return n
}
