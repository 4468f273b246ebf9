package bgp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/geo"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
)

// The forwarding plane as it was before RIBs memoised it, kept verbatim as
// the differential oracle: every call re-forwards, and NearestPoP forwards
// to every PoP of the AS.

func oracleForward(r *RIB, src, dst topo.PoPID) (*Path, error) {
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
			cost := oracleIntraDelay(r, cur, near) + l.DelayMs
			if bestCost < 0 || cost < bestCost {
				bestCost, bestLink, bestNear, bestFar = cost, l, near, far
			}
		}
		if bestLink == nil {
			return nil, fmt.Errorf("bgp: all links between AS%d and AS%d are down", a, b)
		}
		if bestNear != cur {
			path.Hops = append(path.Hops, Hop{From: cur, To: bestNear, DelayMs: oracleIntraDelay(r, cur, bestNear)})
		}
		path.Hops = append(path.Hops, Hop{From: bestNear, To: bestFar, Link: bestLink, DelayMs: bestLink.DelayMs})
		cur = bestFar
	}
	if cur != dst {
		if t.PoP(cur).AS != dstPoP.AS {
			return nil, fmt.Errorf("bgp: forwarding ended in AS%d, want AS%d", t.PoP(cur).AS, dstPoP.AS)
		}
		path.Hops = append(path.Hops, Hop{From: cur, To: dst, DelayMs: oracleIntraDelay(r, cur, dst)})
	}
	return path, nil
}

func oracleIntraDelay(r *RIB, a, b topo.PoPID) float64 {
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

func oracleNearestPoP(r *RIB, src topo.PoPID, asn topo.ASN) (topo.PoPID, error) {
	if from := r.Topo.PoP(src).AS; from != asn {
		if _, err := r.Lookup(from, asn); err != nil {
			return 0, err
		}
	}
	var best topo.PoPID
	bestDelay := -1.0
	for _, id := range r.Topo.PoPsOf(asn) {
		p, err := oracleForward(r, src, id)
		if err != nil {
			continue
		}
		d := p.PropagationMs()
		if bestDelay < 0 || d < bestDelay {
			bestDelay, best = d, id
		}
	}
	if bestDelay < 0 {
		return 0, fmt.Errorf("bgp: no reachable PoP of AS%d from PoP %d", asn, src)
	}
	return best, nil
}

// fwdQuery is one forwarding lookup: Forward(src, dst), or, when nearest
// is set, NearestPoP(src, asn).
type fwdQuery struct {
	nearest bool
	src     topo.PoPID
	dst     topo.PoPID
	asn     topo.ASN
}

func (q fwdQuery) String() string {
	if q.nearest {
		return fmt.Sprintf("NearestPoP(%d, AS%d)", q.src, q.asn)
	}
	return fmt.Sprintf("Forward(%d, %d)", q.src, q.dst)
}

// fwdAnswer is a lookup's outcome: the path (Forward), the chosen PoP
// (NearestPoP) or the error.
type fwdAnswer struct {
	path *Path
	pop  topo.PoPID
	err  error
}

func (q fwdQuery) ask(r *RIB) fwdAnswer {
	if q.nearest {
		id, err := r.NearestPoP(q.src, q.asn)
		return fwdAnswer{pop: id, err: err}
	}
	p, err := r.Forward(q.src, q.dst)
	return fwdAnswer{path: p, err: err}
}

func (q fwdQuery) oracle(r *RIB) fwdAnswer {
	if q.nearest {
		id, err := oracleNearestPoP(r, q.src, q.asn)
		return fwdAnswer{pop: id, err: err}
	}
	p, err := oracleForward(r, q.src, q.dst)
	return fwdAnswer{path: p, err: err}
}

// differs describes how got differs from want, or returns "" when they
// agree: the same error text, or the same PoP, or paths with the same
// endpoints, AS path and hops — the same PoPs, delays to the bit, and the
// very same link records, so a path never crosses another topology's
// links.
func (got fwdAnswer) differs(want fwdAnswer) string {
	if got.err != nil || want.err != nil {
		if got.err == nil || want.err == nil || got.err.Error() != want.err.Error() {
			return fmt.Sprintf("error %v, oracle %v", got.err, want.err)
		}
		return ""
	}
	if got.pop != want.pop {
		return fmt.Sprintf("PoP %d, oracle %d", got.pop, want.pop)
	}
	g, w := got.path, want.path
	if (g == nil) != (w == nil) {
		return fmt.Sprintf("path %v, oracle %v", g, w)
	}
	if g == nil {
		return ""
	}
	if g.Src != w.Src || g.Dst != w.Dst || !slices.Equal(g.ASPath, w.ASPath) || len(g.Hops) != len(w.Hops) {
		return fmt.Sprintf("path %d→%d %v with %d hops, oracle %d→%d %v with %d hops",
			g.Src, g.Dst, g.ASPath, len(g.Hops), w.Src, w.Dst, w.ASPath, len(w.Hops))
	}
	for i, h := range g.Hops {
		o := w.Hops[i]
		if h.From != o.From || h.To != o.To || h.Link != o.Link || math.Float64bits(h.DelayMs) != math.Float64bits(o.DelayMs) {
			return fmt.Sprintf("hop %d %+v, oracle %+v", i, h, o)
		}
	}
	return ""
}

// randomQueries draws n lookups over tp: Forward between random PoPs, and
// NearestPoP from a random PoP to a random AS.
func randomQueries(tp *topo.Topology, rng *mathx.RNG, n int) []fwdQuery {
	pops := tp.PoPs()
	asns := sortedASNs(tp)
	qs := make([]fwdQuery, n)
	for i := range qs {
		q := fwdQuery{src: pops[rng.Intn(len(pops))].ID}
		if rng.Bernoulli(0.5) {
			q.nearest, q.asn = true, asns[rng.Intn(len(asns))]
		} else {
			q.dst = pops[rng.Intn(len(pops))].ID
		}
		qs[i] = q
	}
	return qs
}

// TestForwardMemoMatchesOracle is the differential gate for the forwarding
// memo. On the Table 1 world and a corpus of generated internets, random
// link flaps, IXP joins, denied links, local-preference pins and
// poisonings move the routing state. At every step the engine's memoised
// RIB answers random Forward and NearestPoP lookups, each asked twice in
// random order so the second is served from the memo, and must give the
// oracle's answer. The previous step's RIB, its memo filled, is asked its
// lookups again after the event: when the event moved the link state it
// must answer for the links as they are now, not from the memo.
func TestForwardMemoMatchesOracle(t *testing.T) {
	worlds := []string{scenario.SouthAfricaID}
	for seed := 1; seed <= 20; seed++ {
		worlds = append(worlds, fmt.Sprintf("gen:access=10+treated=2+seed=%d", seed))
	}
	steps := 24
	if testing.Short() {
		steps = 8
	}
	var served, stale int
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
			s, st := differentialForward(t, w.Topo, mathx.NewRNG(uint64(300+wi)), steps)
			served += s
			stale += st
		})
	}
	if served == 0 {
		t.Fatal("no lookup was served from the memo")
	}
	if stale == 0 && !testing.Short() {
		t.Fatal("no event changed a memoised answer: the invalidation rule was never exercised")
	}
}

// differentialForward walks one world through steps random events,
// checking every forwarding lookup against the oracle. It returns how many
// repeated Forward lookups got the first call's path back (served from the
// memo), and how many answers the previous step's RIB had memoised that
// its topology's later link state made wrong.
func differentialForward(t *testing.T, tp *topo.Topology, rng *mathx.RNG, steps int) (served, stale int) {
	ctx := context.Background()
	pol := NewPolicy()
	var memo Memo
	var saved []*Policy
	var prev *RIB
	var prevQueries []fwdQuery
	var prevAnswers []fwdAnswer
	for step := 0; step < steps; step++ {
		if prev != nil {
			for i, q := range prevQueries {
				want := q.oracle(prev)
				if prevAnswers[i].differs(want) != "" {
					stale++
				}
				if d := q.ask(prev).differs(want); d != "" {
					t.Fatalf("step %d, previous RIB after the event: %v: %s", step, q, d)
				}
			}
		}

		r, err := memo.RIB(ctx, tp, pol)
		if err != nil {
			t.Fatal(err)
		}
		qs := randomQueries(tp, rng, 24)
		first := make([]*fwdAnswer, len(qs))
		answers := make([]fwdAnswer, len(qs))
		for _, k := range rng.Perm(2 * len(qs)) {
			i := k % len(qs)
			q := qs[i]
			got := q.ask(r)
			if d := got.differs(q.oracle(r)); d != "" {
				t.Fatalf("step %d: %v: %s", step, q, d)
			}
			if first[i] == nil {
				first[i], answers[i] = &got, got
			} else if !q.nearest && got.err == nil && got.path == first[i].path {
				served++
			}
		}
		prev, prevQueries, prevAnswers = r, qs, answers

		if rng.Bernoulli(0.3) {
			saved = append(saved, pol.Clone())
		}
		randomEvent(t, rng, tp, pol, &saved)
	}
	return served, stale
}

// TestForwardMemoFollowsLinkState: a memoised path is served only at the
// link-state version it was computed under. Taking down a link the path
// crosses, then restoring it, must each time give the oracle's answer for
// the links as they are.
func TestForwardMemoFollowsLinkState(t *testing.T) {
	tp := trombone(t)
	r, err := newRIB(context.Background(), tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := tp.FindPoP(3741, "East London")
	dst, _ := tp.FindPoP(300, "Johannesburg")
	qs := []fwdQuery{{src: src, dst: dst}, {nearest: true, src: src, asn: 300}}
	check := func(what string) {
		t.Helper()
		for _, q := range qs {
			if d := q.ask(r).differs(q.oracle(r)); d != "" {
				t.Fatalf("%s: %v: %s", what, q, d)
			}
		}
	}
	check("first lookup")
	p, _ := r.Forward(src, dst)
	if again, _ := r.Forward(src, dst); again != p {
		t.Fatal("a repeated lookup at the same link state was not served from the memo")
	}
	var crossed *topo.Link
	for _, h := range p.Hops {
		if h.Link != nil {
			crossed = h.Link
		}
	}
	tp.SetLinkUp(crossed.ID, false)
	if _, err := r.Forward(src, dst); err == nil {
		t.Fatalf("Forward still answers with link %d down", crossed.ID)
	}
	check("link down")
	tp.SetLinkUp(crossed.ID, true)
	check("link restored")
}

// TestForwardMemoForkIsolation: a fork does not share its original's
// forwarding memo. Forked onto a clone, it forwards over the clone's
// links; the clone then loses a link the memoised paths cross, and the
// fork must route around the failure while the original keeps its
// answers.
func TestForwardMemoForkIsolation(t *testing.T) {
	tp, rib := frozenRIB(t)
	var qs []fwdQuery
	for _, a := range tp.PoPs() {
		for _, b := range tp.PoPs() {
			qs = append(qs, fwdQuery{src: a.ID, dst: b.ID})
		}
		for _, asn := range sortedASNs(tp) {
			qs = append(qs, fwdQuery{nearest: true, src: a.ID, asn: asn})
		}
	}
	check := func(what string, r *RIB) {
		t.Helper()
		for _, q := range qs {
			if d := q.ask(r).differs(q.oracle(r)); d != "" {
				t.Fatalf("%s: %v: %s", what, q, d)
			}
		}
	}
	check("original", rib)

	world := tp.Clone()
	fork := rib.Fork(world)
	if fork.fwd.Load() != nil {
		t.Fatal("the fork shares its original's forwarding memo")
	}
	check("fork", fork)
	rel, _ := world.Relationships()
	world.SetLinkUp(rel.Links[200][100][0], false)
	check("fork after its world lost a link", fork)
	check("original after the fork's world lost a link", rib)
}

// TestForwardMemoConcurrentLookups: goroutines racing over one lazy RIB —
// tables and forwarding memo both filled by whichever lookup comes first —
// all get the oracle's answers.
func TestForwardMemoConcurrentLookups(t *testing.T) {
	w, err := scenario.Build(scenario.SouthAfricaID)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	oracleRIB, err := newRIB(ctx, w.Topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := randomQueries(w.Topo, mathx.NewRNG(5), 64)
	want := make([]fwdAnswer, len(qs))
	for i, q := range qs {
		want[i] = q.oracle(oracleRIB)
	}
	r, err := newRIB(ctx, w.Topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := mathx.NewRNG(seed)
			for pass := 0; pass < 3; pass++ {
				for _, i := range rng.Perm(len(qs)) {
					if d := qs[i].ask(r).differs(want[i]); d != "" {
						t.Errorf("goroutine %d: %v: %s", seed, qs[i], d)
						return
					}
				}
			}
		}(uint64(g))
	}
	wg.Wait()
}
