// Package bgp computes interdomain routes over a topo.Topology with the
// standard policy model: Gao–Rexford export rules (providers export
// everything to customers; routes learned from peers or providers are never
// re-exported to other peers or providers) and local preference ordered
// customer > peer > provider. It supports the route-manipulation events the
// paper treats as natural experiments and instruments: link failures,
// local-preference overrides, maintenance windows, and BGP poisoning
// (PoiRoot's instrumental variable).
//
// Routing is computed to a fixed point per destination AS. Gao–Rexford-
// consistent topologies are guaranteed to converge; the solver caps sweeps
// and reports an error otherwise, so policy bugs surface loudly.
package bgp

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/parallel"
)

// Local preference defaults by relationship to the next hop.
const (
	PrefCustomer = 300
	PrefPeer     = 200
	PrefProvider = 100
)

// Route is one AS's chosen route toward a destination AS.
type Route struct {
	Dest topo.ASN
	// Path is the AS path from (exclusive) the owning AS to the
	// destination, i.e. Path[0] is the next hop and Path[len-1] == Dest.
	// It is empty for the origin's own route. Poisoned ASNs appear in the
	// origin's announced path and therefore in everyone's Path.
	Path []topo.ASN
	// LocalPref is the preference under which the route was selected.
	LocalPref int
}

// NextHop returns the next-hop AS, or the destination itself at the origin.
func (r *Route) NextHop() topo.ASN {
	if len(r.Path) == 0 {
		return r.Dest
	}
	return r.Path[0]
}

// Len returns the AS-path length (0 at the origin).
func (r *Route) Len() int { return len(r.Path) }

// Policy collects the routing knobs events can turn.
type Policy struct {
	// LocalPref overrides the default relationship-based preference:
	// LocalPref[a][n] applies at AS a to routes via neighbor n.
	LocalPref map[topo.ASN]map[topo.ASN]int
	// Poison lists ASNs the origin inserts into its announcement for a
	// destination, causing them to reject the route (loop detection).
	Poison map[topo.ASN][]topo.ASN
	// DenyLink marks links administratively down (maintenance windows)
	// without mutating the topology.
	DenyLink map[topo.LinkID]bool
}

// NewPolicy returns an empty policy.
func NewPolicy() *Policy {
	return &Policy{
		LocalPref: make(map[topo.ASN]map[topo.ASN]int),
		Poison:    make(map[topo.ASN][]topo.ASN),
		DenyLink:  make(map[topo.LinkID]bool),
	}
}

// SetLocalPref sets a's preference for routes via neighbor n.
func (p *Policy) SetLocalPref(a, n topo.ASN, pref int) {
	if p.LocalPref[a] == nil {
		p.LocalPref[a] = make(map[topo.ASN]int)
	}
	p.LocalPref[a][n] = pref
}

// ClearLocalPref removes an override.
func (p *Policy) ClearLocalPref(a, n topo.ASN) {
	if p.LocalPref[a] != nil {
		delete(p.LocalPref[a], n)
	}
}

// Clone returns a deep copy: the scratch policy a what-if query edits.
func (p *Policy) Clone() *Policy {
	out := NewPolicy()
	for a, m := range p.LocalPref {
		for n, v := range m {
			out.SetLocalPref(a, n, v)
		}
	}
	for d, list := range p.Poison {
		out.Poison[d] = append([]topo.ASN(nil), list...)
	}
	for l, v := range p.DenyLink {
		out.DenyLink[l] = v
	}
	return out
}

// fingerprint encodes everything the policy changes about routing, in
// ascending key order: LocalPref overrides, non-empty poison lists and
// denied links. Equal fingerprints mean identical routing over the same
// topology, however the maps were written; it is the policy half of a Memo
// key.
func (p *Policy) fingerprint() string {
	if p == nil {
		return ""
	}
	var b []byte
	for _, a := range sortedKeys(p.LocalPref) {
		m := p.LocalPref[a]
		for _, n := range sortedKeys(m) {
			b = append(b, 'L')
			b = binary.AppendUvarint(b, uint64(a))
			b = binary.AppendUvarint(b, uint64(n))
			b = binary.AppendVarint(b, int64(m[n]))
		}
	}
	for _, d := range sortedKeys(p.Poison) {
		list := p.Poison[d]
		if len(list) == 0 {
			continue
		}
		b = append(b, 'P')
		b = binary.AppendUvarint(b, uint64(d))
		b = binary.AppendUvarint(b, uint64(len(list)))
		for _, x := range list {
			b = binary.AppendUvarint(b, uint64(x))
		}
	}
	for _, id := range sortedKeys(p.DenyLink) {
		if p.DenyLink[id] {
			b = append(b, 'D')
			b = binary.AppendVarint(b, int64(id))
		}
	}
	return string(b)
}

func sortedKeys[K topo.ASN | topo.LinkID, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// RIB is a set of routing tables: for every destination AS, the best route
// at every AS that can reach it.
//
// A RIB fills its tables lazily: a destination's fixed point is computed
// the first time a lookup needs it, from inputs captured when the RIB was
// created, and kept in a per-destination slot that is safe under concurrent
// lookups. Compute and Import return complete RIBs, so a shared RIB never
// computes. A slot is written at most once and no route is ever rewritten:
// a changed policy or topology is a new RIB. That is what lets Fork share
// every table.
//
// Forwarding answers (Forward, NearestPoP) are memoised per RIB for the
// link state they were computed under; a fork starts with an empty memo.
type RIB struct {
	Topo *topo.Topology
	Rel  *topo.ASRelationships
	c    *core
	fwd  atomic.Pointer[fwdMemo] // made on first forwarding lookup
}

// Lookup returns a's route to dest, or nil if unreachable. Its error is the
// failure to converge dest's table (or the RIB's cancelled context); a
// failed table is not kept, so the next lookup tries again.
func (r *RIB) Lookup(a, dest topo.ASN) (*Route, error) {
	d, ok := r.c.index(dest)
	if !ok {
		return nil, nil
	}
	tbl, err := r.c.table(d)
	if err != nil {
		return nil, err
	}
	i, ok := r.c.index(a)
	if !ok || tbl.state[i] != routed {
		return nil, nil
	}
	return &tbl.routes[i], nil
}

// ASPath returns the full AS path from a to dest including both endpoints,
// with any poisoned ASNs included as they appear in the announcement.
func (r *RIB) ASPath(a, dest topo.ASN) ([]topo.ASN, error) {
	rt, err := r.Lookup(a, dest)
	if err != nil {
		return nil, err
	}
	if rt == nil {
		return nil, fmt.Errorf("bgp: AS%d has no route to AS%d", a, dest)
	}
	return append([]topo.ASN{a}, rt.Path...), nil
}

// Compute converges routing for every destination AS under the policy
// (nil means default policy): a lazy RIB with every destination forced.
//
// Destinations are independent fixed-point problems over read-only inputs
// (topology, relationships, policy), so they fan out across pool; each
// lands in its own slot, making the result identical to the sequential
// loop. Cancelling ctx stops scheduling further destinations and returns
// ctx.Err().
func Compute(ctx context.Context, pool parallel.Pool, t *topo.Topology, pol *Policy) (*RIB, error) {
	r, err := newRIB(ctx, t, pol)
	if err != nil {
		return nil, err
	}
	// Force in the topology's AS order, so a failure reports the same
	// destination a sequential loop over t.ASes() would.
	ases := t.ASes()
	if err := pool.ForEach(ctx, len(ases), func(i int) error {
		d, _ := r.c.index(ases[i].ASN)
		_, err := r.c.table(d)
		return err
	}); err != nil {
		return nil, err
	}
	// Complete: nothing computes lazily any more, so the RIB need not keep
	// the caller's context alive.
	r.c.ctx = nil
	return r, nil
}

// relationshipsUnderPolicy rebuilds AS adjacency considering DenyLink.
func relationshipsUnderPolicy(t *topo.Topology, pol *Policy) (*topo.ASRelationships, error) {
	rel, err := t.Relationships()
	if err != nil {
		return nil, err
	}
	if len(pol.DenyLink) == 0 {
		return rel, nil
	}
	// Remove denied links; drop adjacencies with no remaining links.
	for a, m := range rel.Links {
		for b, ids := range m {
			var keep []topo.LinkID
			for _, id := range ids {
				if !pol.DenyLink[id] {
					keep = append(keep, id)
				}
			}
			if len(keep) == 0 {
				delete(rel.Links[a], b)
				delete(rel.Rel[a], b)
			} else {
				rel.Links[a][b] = keep
			}
		}
	}
	return rel, nil
}

func prefFor(rel *topo.ASRelationships, pol *Policy, a, n topo.ASN) int {
	if m := pol.LocalPref[a]; m != nil {
		if v, ok := m[n]; ok {
			return v
		}
	}
	switch rel.Rel[a][n] {
	case topo.RelCustomer: // a is the customer here, so n is a's provider
		return PrefProvider
	case topo.RelPeer:
		return PrefPeer
	case topo.RelProvider: // a is the provider here, so n is a's customer
		return PrefCustomer
	}
	return 0
}

// ValleyFree reports whether the AS path respects Gao–Rexford valley
// freedom under the relationship map: once the path goes over a peer or
// down to a customer, it must keep descending. Used by property tests.
func ValleyFree(rel *topo.ASRelationships, path []topo.ASN) bool {
	// Phase 0: climbing (customer→provider). Phase 1: at most one peer
	// step. Phase 2: descending (provider→customer).
	phase := 0
	for i := 0; i+1 < len(path); i++ {
		k, ok := rel.Rel[path[i]][path[i+1]]
		if !ok {
			return false // not adjacent
		}
		switch k {
		case topo.RelCustomer: // step up: path[i] buys from path[i+1]
			if phase != 0 {
				return false
			}
		case topo.RelPeer:
			if phase > 0 {
				return false
			}
			phase = 1
		case topo.RelProvider: // step down
			phase = 2
		}
	}
	return true
}
