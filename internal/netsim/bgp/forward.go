package bgp

import (
	"fmt"
	"sync"

	"sisyphus/internal/netsim/geo"
	"sisyphus/internal/netsim/topo"
)

// Hop is one data-plane step of a forwarded path.
type Hop struct {
	From, To topo.PoPID
	// Link is the inter-AS (or IXP) link crossed, or nil for an intra-AS
	// segment between two PoPs of the same AS.
	Link *topo.Link
	// DelayMs is the propagation delay of this hop (queueing is added by
	// the engine from link utilization).
	DelayMs float64
}

// Path is a fully expanded forwarding path. A RIB hands the same Path to
// every caller that asks for it, so a Path and its slices are read-only:
// copy before editing.
type Path struct {
	Src, Dst topo.PoPID
	ASPath   []topo.ASN
	Hops     []Hop
}

// PropagationMs sums the hops' propagation delays (one way).
func (p *Path) PropagationMs() float64 {
	var s float64
	for _, h := range p.Hops {
		s += h.DelayMs
	}
	return s
}

// CrossesLink reports whether the path uses the given link.
func (p *Path) CrossesLink(id topo.LinkID) bool {
	for _, h := range p.Hops {
		if h.Link != nil && h.Link.ID == id {
			return true
		}
	}
	return false
}

// fwdMemo remembers a RIB's forwarding answers for one link state: the
// topology version current when the memo was made. Forward reads link state
// live, so an answer is served only while the version is unchanged; at any
// other version the RIB computes without the memo. Failures are never kept.
// Each RIB makes its own memo on first use — a fork is bound to another
// topology, whose links the kept hops do not point at — and it is safe
// under concurrent lookups.
type fwdMemo struct {
	version uint64
	mu      sync.Mutex
	paths   map[uint64]*Path      // popPair(src, dst) → Forward's path
	nearest map[uint64]topo.PoPID // popPair(src, asn) → NearestPoP's choice
}

func popPair(a topo.PoPID, b uint32) uint64 { return uint64(uint32(a))<<32 | uint64(b) }

// memo returns the RIB's forwarding memo, or nil when the topology's link
// state has moved since the memo was made.
func (r *RIB) memo() *fwdMemo {
	v := r.Topo.Version()
	m := r.fwd.Load()
	if m == nil {
		m = &fwdMemo{version: v, paths: make(map[uint64]*Path), nearest: make(map[uint64]topo.PoPID)}
		if !r.fwd.CompareAndSwap(nil, m) {
			m = r.fwd.Load()
		}
	}
	if m.version != v {
		return nil
	}
	return m
}

// keepPath records p as the path for key unless a racing lookup already
// did, and returns the kept path.
func (m *fwdMemo) keepPath(key uint64, p *Path) *Path {
	m.mu.Lock()
	defer m.mu.Unlock()
	if kept, ok := m.paths[key]; ok {
		return kept
	}
	m.paths[key] = p
	return p
}

// Forward expands the RIB route from a source PoP to a destination PoP into
// PoP-level hops. At each AS-level step it picks the available link between
// the two ASes that minimizes intra-AS detour plus link delay (hot-potato
// flavoured but latency-aware). Inside an AS, PoPs are assumed to form a
// full mesh at geographic delay.
//
// The path is remembered for the life of the RIB, and returned again while
// the topology's link state is unchanged.
func (r *RIB) Forward(src, dst topo.PoPID) (*Path, error) {
	m := r.memo()
	if m == nil {
		return r.forward(src, dst)
	}
	key := popPair(src, uint32(dst))
	m.mu.Lock()
	p, ok := m.paths[key]
	m.mu.Unlock()
	if ok {
		return p, nil
	}
	p, err := r.forward(src, dst)
	if err != nil {
		return nil, err
	}
	return m.keepPath(key, p), nil
}

// forward is Forward without the memo.
func (r *RIB) forward(src, dst topo.PoPID) (*Path, error) {
	t := r.Topo
	srcPoP := t.PoP(src)
	dstPoP := t.PoP(dst)
	path := &Path{Src: src, Dst: dst}
	cur := src
	asSeq := []topo.ASN{srcPoP.AS}
	if srcPoP.AS != dstPoP.AS {
		route, err := r.Lookup(srcPoP.AS, dstPoP.AS)
		if err != nil {
			return nil, err
		}
		if route == nil {
			return nil, fmt.Errorf("bgp: AS%d cannot reach AS%d", srcPoP.AS, dstPoP.AS)
		}
		for _, asn := range route.Path {
			asSeq = append(asSeq, asn)
			if asn == dstPoP.AS {
				// Everything after the first occurrence of the origin is
				// poison padding from the announcement sandwich; the data
				// plane stops here.
				break
			}
		}
	}
	path.ASPath = asSeq

	for i := 0; i+1 < len(asSeq); i++ {
		a, b := asSeq[i], asSeq[i+1]
		ids := r.Rel.Links[a][b]
		if len(ids) == 0 {
			return nil, fmt.Errorf("bgp: no usable link between AS%d and AS%d", a, b)
		}
		// Choose the link minimizing (intra-AS reposition + link delay).
		bestCost := -1.0
		var bestLink *topo.Link
		var bestNear, bestFar topo.PoPID
		for _, id := range ids {
			// Rel already lacks the links the policy denies.
			l := t.Link(id)
			if !l.Up {
				continue
			}
			near, far := l.A, l.B
			if t.PoP(near).AS != a {
				near, far = far, near
			}
			cost := r.intraDelay(cur, near) + l.DelayMs
			if bestCost < 0 || cost < bestCost {
				bestCost, bestLink, bestNear, bestFar = cost, l, near, far
			}
		}
		if bestLink == nil {
			return nil, fmt.Errorf("bgp: all links between AS%d and AS%d are down", a, b)
		}
		if bestNear != cur {
			path.Hops = append(path.Hops, Hop{From: cur, To: bestNear, DelayMs: r.intraDelay(cur, bestNear)})
		}
		path.Hops = append(path.Hops, Hop{From: bestNear, To: bestFar, Link: bestLink, DelayMs: bestLink.DelayMs})
		cur = bestFar
	}
	if cur != dst {
		if t.PoP(cur).AS != dstPoP.AS {
			return nil, fmt.Errorf("bgp: forwarding ended in AS%d, want AS%d", t.PoP(cur).AS, dstPoP.AS)
		}
		path.Hops = append(path.Hops, Hop{From: cur, To: dst, DelayMs: r.intraDelay(cur, dst)})
	}
	return path, nil
}

// intraDelay is the one-way delay between two PoPs of the same AS: direct
// geographic propagation plus a small switching overhead. Same PoP is free.
func (r *RIB) intraDelay(a, b topo.PoPID) float64 {
	if a == b {
		return 0
	}
	ca := r.Topo.Registry.MustGet(r.Topo.PoP(a).City)
	cb := r.Topo.Registry.MustGet(r.Topo.PoP(b).City)
	d := geo.PropagationMs(ca, cb)
	if d < 0.2 {
		d = 0.2
	}
	return d + 0.1
}

// NearestPoP returns the PoP of asn with the smallest forwarding
// propagation delay from the source PoP — how anycast/CDN edge selection is
// approximated when a measurement targets "the content AS" rather than a
// specific PoP.
//
// A failure to compute the routes themselves is returned, not skipped like
// an unreachable PoP. Like Forward, the choice is remembered while the link
// state is unchanged, and so is the path to the chosen PoP; the paths to the
// other candidates are not.
func (r *RIB) NearestPoP(src topo.PoPID, asn topo.ASN) (topo.PoPID, error) {
	m := r.memo()
	if m == nil {
		best, _, err := r.nearestPoP(src, asn)
		return best, err
	}
	key := popPair(src, uint32(asn))
	m.mu.Lock()
	best, ok := m.nearest[key]
	m.mu.Unlock()
	if ok {
		return best, nil
	}
	best, p, err := r.nearestPoP(src, asn)
	if err != nil {
		return 0, err
	}
	m.keepPath(popPair(src, uint32(best)), p)
	m.mu.Lock()
	m.nearest[key] = best
	m.mu.Unlock()
	return best, nil
}

// nearestPoP is NearestPoP without the memo; it also returns the path to
// the chosen PoP.
func (r *RIB) nearestPoP(src topo.PoPID, asn topo.ASN) (topo.PoPID, *Path, error) {
	if from := r.Topo.PoP(src).AS; from != asn {
		if _, err := r.Lookup(from, asn); err != nil {
			return 0, nil, err
		}
	}
	var best topo.PoPID
	var bestPath *Path
	bestDelay := -1.0
	for _, id := range r.Topo.PoPsOf(asn) {
		p, err := r.forward(src, id)
		if err != nil {
			continue
		}
		d := p.PropagationMs()
		if bestDelay < 0 || d < bestDelay {
			bestDelay, best, bestPath = d, id, p
		}
	}
	if bestDelay < 0 {
		return 0, nil, fmt.Errorf("bgp: no reachable PoP of AS%d from PoP %d", asn, src)
	}
	return best, bestPath, nil
}
