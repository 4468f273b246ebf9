package bgp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// The map-based routing core the dense one replaced, kept verbatim as the
// differential oracle: computeDest runs one destination's fixed point over
// maps, sorting every AS's neighbours on every sweep and allocating a Route
// per candidate.

// oracleCompute is Compute as it was: computeDest for every destination
// over the policy's relationships, in the topology's AS order. Unlike
// Compute it keeps every destination's outcome, so destinations that fail
// to converge are compared too; first is the error Compute reported.
func oracleCompute(t *topo.Topology, pol *Policy) (tables map[topo.ASN]destTable, errs map[topo.ASN]error, first error) {
	if pol == nil {
		pol = NewPolicy()
	}
	rel, err := relationshipsUnderPolicy(t, pol)
	if err != nil {
		return nil, nil, err
	}
	tables = make(map[topo.ASN]destTable)
	errs = make(map[topo.ASN]error)
	for _, as := range t.ASes() {
		tbl, err := computeDest(t, rel, pol, as.ASN)
		if err != nil {
			errs[as.ASN] = err
			if first == nil {
				first = err
			}
			continue
		}
		tables[as.ASN] = tbl
	}
	return tables, errs, first
}

// oracleExport is Export as it was, over the oracle's tables.
func oracleExport(tables map[topo.ASN]destTable) *Export {
	e := &Export{}
	dests := make([]topo.ASN, 0, len(tables))
	for d := range tables {
		dests = append(dests, d)
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	for _, d := range dests {
		m := tables[d].best
		ases := make([]topo.ASN, 0, len(m))
		for a := range m {
			ases = append(ases, a)
		}
		sort.Slice(ases, func(i, j int) bool { return ases[i] < ases[j] })
		ed := ExportDest{Dest: d}
		for _, a := range ases {
			rt := m[a]
			er := ExportRoute{AS: a}
			if rt == nil {
				er.Unreachable = true
			} else {
				er.Path = append([]topo.ASN(nil), rt.Path...)
				er.LocalPref = rt.LocalPref
			}
			ed.Routes = append(ed.Routes, er)
		}
		e.Dests = append(e.Dests, ed)
	}
	return e
}

// destTable is one destination's converged routing table plus the number of
// sweeps the fixed point took — the effort metric the run trace reports.
type destTable struct {
	best   map[topo.ASN]*Route
	sweeps int
}

func computeDest(t *topo.Topology, rel *topo.ASRelationships, pol *Policy, dest topo.ASN) (destTable, error) {
	best := make(map[topo.ASN]*Route)
	// The origin's announced path carries poisoned ASNs then itself.
	poison := pol.Poison[dest]
	best[dest] = &Route{Dest: dest, Path: nil, LocalPref: PrefCustomer}
	// The origin announces itself; with poisoning it announces the classic
	// sandwich "dest poisoned... dest" so poisoned ASes see themselves in
	// the path and drop the route, while the next hop stays the origin.
	originAnnouncement := []topo.ASN{dest}
	if len(poison) > 0 {
		originAnnouncement = append(append(originAnnouncement, poison...), dest)
	}

	// Deterministic AS sweep order.
	order := make([]topo.ASN, 0)
	for _, as := range t.ASes() {
		order = append(order, as.ASN)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	// advertised(n) = the path n offers neighbors.
	advertised := func(n topo.ASN) []topo.ASN {
		if n == dest {
			return originAnnouncement
		}
		r := best[n]
		if r == nil {
			return nil
		}
		return append([]topo.ASN{n}, r.Path...)
	}

	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for _, a := range order {
			if a == dest {
				continue
			}
			var cand *Route
			// Deterministic neighbor order.
			neighbors := make([]topo.ASN, 0, len(rel.Rel[a]))
			for n := range rel.Rel[a] {
				neighbors = append(neighbors, n)
			}
			sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
			for _, n := range neighbors {
				adv := advertised(n)
				if adv == nil {
					continue
				}
				if !canExport(rel, n, a, best[n], n == dest) {
					continue
				}
				if containsASN(adv, a) {
					continue // loop (or poisoned against a)
				}
				pref := prefFor(rel, pol, a, n)
				c := &Route{Dest: dest, Path: adv, LocalPref: pref}
				if better(c, cand) {
					cand = c
				}
			}
			if !routesEqual(cand, best[a]) {
				best[a] = cand
				changed = true
			}
		}
		if !changed {
			return destTable{best: best, sweeps: sweep + 1}, nil
		}
	}
	return destTable{}, fmt.Errorf("bgp: routing for dest AS%d did not converge in %d sweeps (policy dispute?)", dest, maxSweeps)
}

// canExport implements Gao–Rexford: n exports its route to neighbor a iff
// a is n's customer, or n's route was originated by n / learned from one of
// n's customers.
func canExport(rel *topo.ASRelationships, n, a topo.ASN, nRoute *Route, nIsOrigin bool) bool {
	if rel.Rel[n][a] == topo.RelProvider {
		return true // a is n's customer: export everything
	}
	if nIsOrigin {
		return true // own prefix: export to everyone
	}
	if nRoute == nil {
		return false
	}
	// Learned from a customer?
	return rel.Rel[n][nRoute.NextHop()] == topo.RelProvider
}

// better implements BGP decision order: higher local-pref, then shorter AS
// path, then lowest next-hop ASN.
func better(a, b *Route) bool {
	if b == nil {
		return a != nil
	}
	if a == nil {
		return false
	}
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if a.Len() != b.Len() {
		return a.Len() < b.Len()
	}
	return a.NextHop() < b.NextHop()
}

func routesEqual(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.LocalPref != b.LocalPref || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

func containsASN(path []topo.ASN, a topo.ASN) bool {
	for _, x := range path {
		if x == a {
			return true
		}
	}
	return false
}

// sweepsOf reads the sweep count of every destination the RIB computed.
func sweepsOf(r *RIB) map[topo.ASN]int {
	out := make(map[topo.ASN]int)
	for d := range r.c.slots {
		if tbl := r.c.slots[d].tbl.Load(); tbl != nil {
			out[r.c.asns[d]] = tbl.sweeps
		}
	}
	return out
}

func oracleSweeps(tables map[topo.ASN]destTable) map[topo.ASN]int {
	out := make(map[topo.ASN]int, len(tables))
	for d, tbl := range tables {
		out[d] = tbl.sweeps
	}
	return out
}

// oracleState is one routing state and the oracle's answer for it.
type oracleState struct {
	tables map[topo.ASN]destTable
	errs   map[topo.ASN]error
	first  error
}

func newOracleState(tp *topo.Topology, pol *Policy) oracleState {
	tables, errs, first := oracleCompute(tp, pol)
	return oracleState{tables, errs, first}
}

// lookupMatches looks a's route to dest up in r and requires the oracle's
// answer: the same error, or the same route (or none).
func (o oracleState) lookupMatches(t *testing.T, what string, r *RIB, a, dest topo.ASN) {
	t.Helper()
	got, err := r.Lookup(a, dest)
	if want := o.errs[dest]; want != nil || err != nil {
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: AS%d→AS%d error %v, oracle %v", what, a, dest, err, want)
		}
		return
	}
	want := o.tables[dest].best[a]
	if !routesEqual(got, want) || got != nil && got.Dest != want.Dest {
		t.Fatalf("%s: AS%d→AS%d route %+v, oracle %+v", what, a, dest, got, want)
	}
}

// matches requires r, with every destination looked up, to export exactly
// the oracle's tables with the oracle's sweep counts.
func (o oracleState) matches(t *testing.T, what string, r *RIB, asns []topo.ASN, rng *mathx.RNG) {
	t.Helper()
	for _, i := range rng.Perm(len(asns)) {
		o.lookupMatches(t, what, r, asns[rng.Intn(len(asns))], asns[i])
	}
	if got, want := r.Export(), oracleExport(o.tables); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: export differs from the oracle's", what)
	}
	if got, want := sweepsOf(r), oracleSweeps(o.tables); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: sweep counts %v, oracle %v", what, got, want)
	}
}

// TestDenseCoreMatchesOracle is the differential gate for the routing
// core. On the Table 1 world and a corpus of generated internets, a random
// sequence of link flaps, IXP joins, denied links, local-preference pins
// and poisonings (with policy restores, so states recur) moves the routing
// state; at every step the forced RIB (Compute), a lazy RIB looked up in
// random order and the memoised RIB must export exactly the oracle's
// tables with the same per-destination sweep counts. A lazy RIB created
// before the step and finished after it must still answer for the state it
// was created in.
func TestDenseCoreMatchesOracle(t *testing.T) {
	worlds := []string{scenario.SouthAfricaID}
	for seed := 1; seed <= 20; seed++ {
		worlds = append(worlds, fmt.Sprintf("gen:access=10+treated=2+seed=%d", seed))
	}
	steps := 24
	if testing.Short() {
		steps = 8
	}
	hits := 0
	for wi, spec := range worlds {
		t.Run(spec, func(t *testing.T) {
			id, err := scenario.ResolveID(spec)
			if err != nil {
				t.Fatal(err)
			}
			w, err := scenario.Build(id)
			if err != nil {
				t.Fatal(err)
			}
			hits += differentialCore(t, w.Topo, mathx.NewRNG(uint64(100+wi)), steps)
		})
	}
	if hits == 0 && !testing.Short() {
		t.Fatal("no routing state recurred: the memo was never exercised")
	}
}

// sortedASNs lists tp's ASNs in ascending order, the dense core's order.
func sortedASNs(tp *topo.Topology) []topo.ASN {
	var asns []topo.ASN
	for _, a := range tp.ASes() {
		asns = append(asns, a.ASN)
	}
	slices.Sort(asns)
	return asns
}

// differentialCore walks one world through steps random events, checking
// every RIB flavour against the oracle, and returns the memo hits.
func differentialCore(t *testing.T, tp *topo.Topology, rng *mathx.RNG, steps int) int {
	ctx := context.Background()
	asns := sortedASNs(tp)
	pol := NewPolicy()
	var memo Memo
	var saved []*Policy
	seen := make(map[*RIB]bool)
	hits := 0
	var prev *RIB
	var prevState oracleState
	for step := 0; step < steps; step++ {
		o := newOracleState(tp, pol)
		what := func(kind string) string { return fmt.Sprintf("step %d %s", step, kind) }

		forced, err := Compute(ctx, parallel.NewPool(2), tp, pol)
		if (err == nil) != (o.first == nil) || err != nil && err.Error() != o.first.Error() {
			t.Fatalf("%s: Compute error %v, oracle %v", what("forced"), err, o.first)
		}
		if err == nil {
			o.matches(t, what("forced"), forced, asns, rng)
		}

		// A lazy RIB answers half its destinations now; the rest after the
		// next event has changed the topology and policy it was made from.
		lazy, err := newRIB(ctx, tp, pol)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range rng.Perm(len(asns))[:len(asns)/2] {
			o.lookupMatches(t, what("lazy"), lazy, asns[rng.Intn(len(asns))], asns[i])
		}
		if prev != nil {
			prevState.matches(t, what("lazy, finished after an event"), prev, asns, rng)
		}
		prev, prevState = lazy, o

		m, err := memo.RIB(ctx, tp, pol)
		if err != nil {
			t.Fatal(err)
		}
		if seen[m] {
			hits++
		}
		seen[m] = true
		o.matches(t, what("memoised"), m, asns, rng)

		if rng.Bernoulli(0.3) {
			saved = append(saved, pol.Clone())
		}
		randomEvent(t, rng, tp, pol, &saved)
	}
	prevState.matches(t, "last lazy", prev, asns, rng)
	return hits
}

// randomEvent moves the routing state one step: a link flap, an IXP join,
// a denied link, a local-preference pin, a poisoning, or a restore of a
// saved policy.
func randomEvent(t *testing.T, rng *mathx.RNG, tp *topo.Topology, pol *Policy, saved *[]*Policy) {
	t.Helper()
	asns := sortedASNs(tp)
	links := tp.Links()
	switch rng.Intn(7) {
	case 0:
		l := links[rng.Intn(len(links))]
		tp.SetLinkUp(l.ID, !l.Up)
	case 1:
		// Joins that would peer an AS with its own provider or customer
		// make the topology inconsistent; only the others are candidates.
		transit := make(map[[2]topo.ASN]bool)
		for _, l := range links {
			if l.Rel == topo.CustomerOf {
				a, b := tp.PoP(l.A).AS, tp.PoP(l.B).AS
				transit[[2]topo.ASN{a, b}], transit[[2]topo.ASN{b, a}] = true, true
			}
		}
		type join struct {
			ixp string
			as  topo.ASN
		}
		var cands []join
		for _, x := range tp.IXPs() {
		next:
			for _, a := range asns {
				if _, member := tp.IXPMemberIndex(x.Name, a); member {
					continue
				}
				if _, err := tp.FindPoP(a, x.City); err != nil {
					continue
				}
				for _, m := range x.Members {
					if transit[[2]topo.ASN{a, m}] {
						continue next
					}
				}
				cands = append(cands, join{x.Name, a})
			}
		}
		if len(cands) == 0 {
			l := links[rng.Intn(len(links))]
			tp.SetLinkUp(l.ID, !l.Up)
			return
		}
		c := cands[rng.Intn(len(cands))]
		if _, err := tp.JoinIXP(c.ixp, c.as); err != nil {
			t.Fatal(err)
		}
	case 2:
		id := links[rng.Intn(len(links))].ID
		if pol.DenyLink[id] {
			delete(pol.DenyLink, id)
		} else {
			pol.DenyLink[id] = true
		}
	case 3, 4:
		rel, err := tp.Relationships()
		if err != nil {
			t.Fatal(err)
		}
		a := asns[rng.Intn(len(asns))]
		var ns []topo.ASN
		for n := range rel.Rel[a] {
			ns = append(ns, n)
		}
		if len(ns) == 0 {
			return
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		prefs := []int{10, 50, PrefProvider, PrefPeer, 250, PrefCustomer + 100}
		pol.SetLocalPref(a, ns[rng.Intn(len(ns))], prefs[rng.Intn(len(prefs))])
	case 5:
		d := asns[rng.Intn(len(asns))]
		if len(pol.Poison[d]) > 0 {
			delete(pol.Poison, d)
			return
		}
		for k := 1 + rng.Intn(2); k > 0; k-- {
			pol.Poison[d] = append(pol.Poison[d], asns[rng.Intn(len(asns))])
		}
	case 6:
		if len(*saved) == 0 {
			return
		}
		back := (*saved)[rng.Intn(len(*saved))]
		*pol = *back.Clone()
	}
}

// TestDenseCoreMatchesOracleOnWithdrawal: a route an AS held mid-sweep and
// then lost stays in the table as withdrawn, and exports as Unreachable,
// exactly as the oracle's nil map entry did. AS1 learns AS2's customer
// route, then AS2 switches to its pinned peer route, which it may not
// export to its peer AS1.
func TestDenseCoreMatchesOracleOnWithdrawal(t *testing.T) {
	b := topo.NewBuilder(nil).
		AddAS(1, "A", topo.Transit, "London").
		AddAS(2, "N", topo.Transit, "London").
		AddAS(3, "M", topo.Transit, "London").
		AddAS(9, "Origin", topo.Content, "London").
		Connect(1, "London", topo.PeerWith, 2, "London").
		Connect(2, "London", topo.PeerWith, 3, "London").
		Connect(9, "London", topo.CustomerOf, 2, "London").
		Connect(9, "London", topo.CustomerOf, 3, "London")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pol := NewPolicy()
	pol.SetLocalPref(2, 3, PrefCustomer+100)
	o := newOracleState(tp, pol)
	if rt, present := o.tables[9].best[1]; !present || rt != nil {
		t.Fatalf("the oracle does not withdraw AS1's route (%+v, present %v): the case lost its point", rt, present)
	}
	r, err := newRIB(context.Background(), tp, pol)
	if err != nil {
		t.Fatal(err)
	}
	o.matches(t, "withdrawal", r, sortedASNs(tp), mathx.NewRNG(1))
}

// TestLazyConcurrentLookupsComputeOnce: goroutines racing over every
// destination of one lazy RIB compute each destination exactly once, and
// the tables they fill are the forced RIB's.
func TestLazyConcurrentLookupsComputeOnce(t *testing.T) {
	w, err := scenario.Build(scenario.SouthAfricaID)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	r, err := newRIB(obs.With(context.Background(), rec), w.Topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	asns := sortedASNs(w.Topo)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := mathx.NewRNG(seed)
			for _, i := range rng.Perm(len(asns)) {
				if _, err := r.Lookup(asns[rng.Intn(len(asns))], asns[i]); err != nil {
					t.Error(err)
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	var computed float64
	for _, scope := range rec.Metrics() {
		computed += scope["bgp.destinations"]
	}
	if int(computed) != len(asns) {
		t.Fatalf("bgp.destinations = %v, want each of the %d destinations computed once", computed, len(asns))
	}
	forced, err := Compute(context.Background(), parallel.Pool{}, w.Topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Export(), forced.Export()) {
		t.Fatal("concurrently filled tables differ from the forced RIB's")
	}
}

// TestLazyFailuresAreNotCached: a lookup that fails — its context
// cancelled, or its destination's fixed point not converging — leaves the
// slot empty and surfaces through Lookup, Forward and NearestPoP; tables
// computed before the failure keep answering.
func TestLazyFailuresAreNotCached(t *testing.T) {
	tp := trombone(t)
	ctx, cancel := context.WithCancel(context.Background())
	r, err := newRIB(ctx, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rt := lookup(t, r, 3741, 300); rt == nil {
		t.Fatal("no route 3741→300 before cancellation")
	}
	cancel()
	if _, err := r.Lookup(3741, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("lookup after cancel = %v, want context.Canceled", err)
	}
	if rt := lookup(t, r, 3741, 300); rt == nil {
		t.Fatal("the table computed before cancellation was lost")
	}
	src, _ := tp.FindPoP(3741, "Johannesburg")
	dst, _ := tp.FindPoP(200, "Johannesburg")
	if _, err := r.Forward(src, dst); !errors.Is(err, context.Canceled) {
		t.Fatalf("Forward after cancel = %v, want context.Canceled", err)
	}
	if _, err := r.NearestPoP(src, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("NearestPoP after cancel = %v, want context.Canceled", err)
	}
	for d := range r.c.slots {
		if filled := r.c.slots[d].tbl.Load() != nil; filled != (r.c.asns[d] == 300) {
			t.Fatalf("slot for AS%d filled = %v after a cancelled lookup", r.c.asns[d], filled)
		}
	}
	if _, err := Compute(ctx, parallel.Pool{}, tp, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compute under a cancelled context = %v", err)
	}

	// A dispute wheel: each transit prefers its clockwise peer's route to
	// the origin over its own customer route, so no assignment is stable.
	gadget, pol := badGadget(t)
	r, err = newRIB(context.Background(), gadget, pol)
	if err != nil {
		t.Fatal(err)
	}
	_, want, _ := oracleCompute(gadget, pol)
	for i := 0; i < 2; i++ {
		if _, err := r.Lookup(1, 9); err == nil || want[9] == nil || err.Error() != want[9].Error() {
			t.Fatalf("lookup %d in a dispute wheel = %v, oracle %v", i, err, want[9])
		}
	}
	if d, _ := r.c.index(9); r.c.slots[d].tbl.Load() != nil {
		t.Fatal("a failed fixed point was cached")
	}
}

// badGadget builds a dispute wheel: origin 9 is a customer of transits 1, 2
// and 3, which peer in a ring, and each transit prefers the route through
// its clockwise peer over its direct customer route.
func badGadget(t *testing.T) (*topo.Topology, *Policy) {
	t.Helper()
	b := topo.NewBuilder(nil).
		AddAS(1, "T1", topo.Transit, "London").
		AddAS(2, "T2", topo.Transit, "London").
		AddAS(3, "T3", topo.Transit, "London").
		AddAS(9, "Origin", topo.Content, "London").
		Connect(9, "London", topo.CustomerOf, 1, "London").
		Connect(9, "London", topo.CustomerOf, 2, "London").
		Connect(9, "London", topo.CustomerOf, 3, "London").
		Connect(1, "London", topo.PeerWith, 2, "London").
		Connect(2, "London", topo.PeerWith, 3, "London").
		Connect(3, "London", topo.PeerWith, 1, "London")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pol := NewPolicy()
	pol.SetLocalPref(1, 2, 400)
	pol.SetLocalPref(2, 3, 400)
	pol.SetLocalPref(3, 1, 400)
	return tp, pol
}
