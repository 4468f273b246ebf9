package bgp

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/obs"
)

// maxSweeps bounds convergence iterations; Gao–Rexford systems settle in
// O(diameter) sweeps, so hitting this means a policy dispute wheel.
const maxSweeps = 200

// core is everything a RIB's fixed points read, captured when the RIB is
// created, in dense form: ASes are numbered by ascending ASN, adjacency is
// CSR with each neighbour list sorted once, and the policy is folded into
// per-edge preferences. Later changes to the topology or policy the RIB was
// created from cannot reach it. Forks share the core; only the slots are
// written after newRIB, each at most once.
type core struct {
	// ctx is the context lazy computes run under (cancellation, obs
	// counters); nil once the RIB is complete.
	ctx  context.Context
	asns []topo.ASN // dense index → ASN, ascending
	// AS i's neighbours are nbr[off[i]:off[i+1]], ascending; kind[j] is i's
	// relationship toward neighbour nbr[j] and pref[j] the local preference
	// i gives routes learned from it.
	off    []int32
	nbr    []int32
	kind   []topo.RelKind
	pref   []int32
	poison map[topo.ASN][]topo.ASN
	slots  []slot // slots[d] holds destination d's table once computed
}

// slot is one destination's table: filled at most once, under mu, and read
// without locking once filled.
type slot struct {
	mu  sync.Mutex
	tbl atomic.Pointer[table]
}

// Entry states of a table: an AS with no entry, an AS that held a route
// during convergence and lost it (Export keeps it, as Unreachable), and an
// AS with a route.
const (
	absent uint8 = iota
	withdrawn
	routed
)

// table is one destination's converged routing table, indexed densely.
type table struct {
	routes []Route // routes[i] is AS i's route where state[i] == routed
	state  []uint8
	// sweeps is how many sweeps the fixed point took — the effort metric
	// the run trace reports.
	sweeps int
}

// newRIB captures t's current adjacency and pol (nil means the default
// policy) into a RIB with every table still to compute.
func newRIB(ctx context.Context, t *topo.Topology, pol *Policy) (*RIB, error) {
	if pol == nil {
		pol = NewPolicy()
	}
	rel, err := relationshipsUnderPolicy(t, pol)
	if err != nil {
		return nil, err
	}
	ases := t.ASes()
	asns := make([]topo.ASN, len(ases))
	for i, a := range ases {
		asns[i] = a.ASN
	}
	slices.Sort(asns)
	c := &core{ctx: ctx, asns: asns, off: make([]int32, len(asns)+1), slots: make([]slot, len(asns))}
	for i, a := range asns {
		c.off[i+1] = c.off[i] + int32(len(rel.Rel[a]))
	}
	edges := c.off[len(asns)]
	c.nbr = make([]int32, edges)
	c.kind = make([]topo.RelKind, edges)
	c.pref = make([]int32, edges)
	for i, a := range asns {
		row := c.nbr[c.off[i]:c.off[i+1]]
		k := 0
		for n := range rel.Rel[a] {
			j, _ := c.index(n)
			row[k] = int32(j)
			k++
		}
		slices.Sort(row)
		for k, j := range row {
			n := asns[j]
			c.kind[int(c.off[i])+k] = rel.Rel[a][n]
			c.pref[int(c.off[i])+k] = int32(prefFor(rel, pol, a, n))
		}
	}
	for d, list := range pol.Poison {
		if len(list) > 0 {
			if c.poison == nil {
				c.poison = make(map[topo.ASN][]topo.ASN)
			}
			c.poison[d] = append([]topo.ASN(nil), list...)
		}
	}
	return &RIB{Topo: t, Rel: rel, c: c}, nil
}

// index returns asn's dense index.
func (c *core) index(asn topo.ASN) (int, bool) {
	return slices.BinarySearch(c.asns, asn)
}

// table returns destination d's table, computing it on first use. Callers
// racing on one destination wait for a single compute. A failed compute —
// no convergence, or the RIB's context cancelled — leaves the slot empty.
func (c *core) table(d int) (*table, error) {
	s := &c.slots[d]
	if tbl := s.tbl.Load(); tbl != nil {
		return tbl, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if tbl := s.tbl.Load(); tbl != nil {
		return tbl, nil
	}
	ctx := c.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tbl, err := c.solve(d)
	if err != nil {
		return nil, err
	}
	s.tbl.Store(tbl)
	// Fixed-point effort accounting (no-op without a recorder on ctx): one
	// more destination converged, and the sweeps it took.
	obs.Add(ctx, "bgp.destinations", 1)
	obs.Add(ctx, "bgp.sweeps", int64(tbl.sweeps))
	return tbl, nil
}

// scratch is one fixed point's working state. Each AS's current path is
// an explicit copy in the arena, written when the AS changes its route, so
// an AS keeps the path its next hop offered when it chose, and a later
// change at the next hop shows up only when the AS re-evaluates. A path
// derived from the next-hop tree instead would change under the AS
// mid-sweep and alter the fixed point.
type scratch struct {
	state    []uint8
	pref     []int32
	fromCust []bool  // route learned from a customer (exportable to all)
	off, len []int32 // path of AS i is arena[off[i]:off[i]+len[i]]
	arena    []topo.ASN
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(n int) *scratch {
	s := scratchPool.Get().(*scratch)
	if cap(s.state) < n {
		s.state = make([]uint8, n)
		s.pref = make([]int32, n)
		s.fromCust = make([]bool, n)
		s.off = make([]int32, n)
		s.len = make([]int32, n)
	}
	s.state = s.state[:n]
	clear(s.state)
	s.pref, s.fromCust, s.off, s.len = s.pref[:n], s.fromCust[:n], s.off[:n], s.len[:n]
	s.arena = s.arena[:0]
	return s
}

// path is AS i's current path.
func (s *scratch) path(i int32) []topo.ASN { return s.arena[s.off[i] : s.off[i]+s.len[i]] }

// solve runs destination d's fixed point: sweep every AS in ascending ASN
// order, each choosing the best route its neighbours export to it
// (Gao–Rexford) by the BGP decision order — higher local preference, then
// shorter AS path, then lowest next-hop ASN — until a sweep changes nothing.
func (c *core) solve(d int) (*table, error) {
	s := getScratch(len(c.asns))
	defer scratchPool.Put(s)
	dest := c.asns[d]
	// The origin announces itself; with poisoning it announces the classic
	// sandwich "dest poisoned... dest" so poisoned ASes see themselves in
	// the path and drop the route, while the next hop stays the origin.
	// The announcement heads the arena.
	s.arena = append(s.arena, dest)
	if p := c.poison[dest]; len(p) > 0 {
		s.arena = append(append(s.arena, p...), dest)
	}
	ann := int32(len(s.arena))
	s.state[d], s.pref[d], s.off[d], s.len[d] = routed, PrefCustomer, 0, 0

	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for a := int32(0); int(a) < len(c.asns); a++ {
			if int(a) == d {
				continue
			}
			self := c.asns[a]
			best, bestPref, bestLen := int32(-1), int32(0), int32(0)
			for j := c.off[a]; j < c.off[a+1]; j++ {
				n := c.nbr[j]
				var advLen int32 // length of the path n offers a
				if int(n) == d {
					// The origin exports its own prefix to everyone.
					if slices.Contains(s.arena[:ann], self) {
						continue // poisoned against a
					}
					advLen = ann
				} else {
					if s.state[n] != routed {
						continue
					}
					// n exports to a iff a is n's customer, or n learned
					// the route from one of its own customers.
					if c.kind[j] != topo.RelCustomer && !s.fromCust[n] {
						continue
					}
					if slices.Contains(s.path(n), self) {
						continue // loop (or poisoned against a)
					}
					advLen = 1 + s.len[n]
				}
				// Neighbours ascend, so on a tie the earlier (lower) next
				// hop is already the better route.
				if p := c.pref[j]; best < 0 || p > bestPref || p == bestPref && advLen < bestLen {
					best, bestPref, bestLen = j, p, advLen
				}
			}
			if best < 0 {
				if s.state[a] == routed {
					s.state[a] = withdrawn
					changed = true
				}
				continue
			}
			n := c.nbr[best]
			if s.state[a] == routed && s.pref[a] == bestPref && s.len[a] == bestLen && s.offers(a, n, d, c.asns[n], ann) {
				continue
			}
			if int(n) == d {
				s.off[a] = 0 // the announcement itself, never rewritten
			} else {
				s.off[a] = int32(len(s.arena))
				s.arena = append(s.arena, c.asns[n])
				s.arena = append(s.arena, s.path(n)...)
			}
			s.state[a], s.pref[a], s.len[a] = routed, bestPref, bestLen
			s.fromCust[a] = c.kind[best] == topo.RelProvider
			changed = true
		}
		if !changed {
			return s.table(dest, sweep+1), nil
		}
	}
	return nil, fmt.Errorf("bgp: routing for dest AS%d did not converge in %d sweeps (policy dispute?)", dest, maxSweeps)
}

// offers reports whether a's current path is the one neighbour n (ASN asn)
// offers it: the announcement when n is the destination d, else n followed
// by n's path. Lengths are already known to match.
func (s *scratch) offers(a, n int32, d int, asn topo.ASN, ann int32) bool {
	cur := s.path(a)
	if int(n) == d {
		return slices.Equal(cur, s.arena[:ann])
	}
	return cur[0] == asn && slices.Equal(cur[1:], s.path(n))
}

// table copies the converged state into an immutable table whose paths
// share one exactly-sized backing array.
func (s *scratch) table(dest topo.ASN, sweeps int) *table {
	var total int32
	for i, st := range s.state {
		if st == routed {
			total += s.len[i]
		}
	}
	arena := make([]topo.ASN, total)
	t := &table{routes: make([]Route, len(s.state)), state: slices.Clone(s.state), sweeps: sweeps}
	var o int32
	for i, st := range s.state {
		if st != routed {
			continue
		}
		rt := &t.routes[i]
		rt.Dest, rt.LocalPref = dest, int(s.pref[i])
		if l := s.len[i]; l > 0 {
			rt.Path = arena[o : o+l : o+l]
			copy(rt.Path, s.path(int32(i)))
			o += l
		}
	}
	return t
}
