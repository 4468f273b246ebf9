package engine

import (
	"reflect"
	"sort"
	"testing"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/netsim/traffic"
)

// TestWhatIfMatchesMutateAndRestore is the differential contract for the
// what-if path. Twin engines step the same world with adaptive egress on.
// Every hour the same random policy edit (local-pref pins, denied links) is
// asked of both: the oracle mutates its live policy, queries, and restores;
// the twin asks RIBUnder on a cloned policy and queries with PerfToASOn.
// The answers must be identical, the factual trajectories (PerfToAS and
// EventLog) must never diverge, and the twin's what-if must not recompute
// or replace its factual RIB.
func TestWhatIfMatchesMutateAndRestore(t *testing.T) {
	genID, err := scenario.ResolveID("gen:access=10+treated=2+seed=3")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{scenario.SouthAfricaID, genID} {
		t.Run(id, func(t *testing.T) { differentialWhatIf(t, id, 240) })
	}
}

func differentialWhatIf(t *testing.T, id string, hours int) {
	build := func() (*scenario.World, *Engine) {
		s, err := scenario.Build(id)
		if err != nil {
			t.Fatal(err)
		}
		e := New(s.Topo, 11, Config{AdaptiveEgress: true})
		if err := addProviderCrowds(e); err != nil {
			t.Fatal(err)
		}
		return s, e
	}
	s, oracle := build()
	_, twin := build()

	rel, err := s.Topo.Relationships()
	if err != nil {
		t.Fatal(err)
	}
	var ases []topo.ASN
	for a := range rel.Rel {
		ases = append(ases, a)
	}
	sortASNs(ases)
	links := s.Topo.Links()
	units := s.AllUnits()

	rng := mathx.NewRNG(5)
	bites := 0
	for h := 0; h < hours; h++ {
		if err := oracle.Step(); err != nil {
			t.Fatal(err)
		}
		if err := twin.Step(); err != nil {
			t.Fatal(err)
		}
		src, err := s.UserPoP(units[rng.Intn(len(units))])
		if err != nil {
			t.Fatal(err)
		}
		dst := s.ContentASNs[rng.Intn(len(s.ContentASNs))]

		fo, erro := oracle.PerfToAS(src, dst)
		ft, errt := twin.PerfToAS(src, dst)
		samePerf(t, h, "factual", fo, erro, ft, errt)
		if !reflect.DeepEqual(oracle.EventLog(), twin.EventLog()) {
			t.Fatalf("hour %d: event logs diverged:\noracle %v\ntwin   %v", h, oracle.EventLog(), twin.EventLog())
		}

		ed := randomEdit(rng, rel, ases, links, s.Topo.PoP(src).AS)
		before, err := twin.RIB()
		if err != nil {
			t.Fatal(err)
		}
		factualPol := twin.Policy.Clone()
		pol := twin.Policy.Clone()
		ed.apply(pol)
		var wt *PathPerf
		rib, errwt := twin.RIBUnder(pol)
		if errwt == nil {
			wt, errwt = twin.PerfToASOn(rib, src, dst)
		}
		after, err := twin.RIB()
		if err != nil {
			t.Fatal(err)
		}
		if before != after || twin.dirty {
			t.Fatalf("hour %d: the what-if query recomputed the factual RIB", h)
		}
		if !reflect.DeepEqual(twin.Policy.Clone(), factualPol) {
			t.Fatalf("hour %d: the what-if query edited the engine's policy", h)
		}

		wo, errwo := mutateAndRestore(oracle, ed, src, dst)
		samePerf(t, h, "what-if", wo, errwo, wt, errwt)
		if errwt != nil || errt != nil || !reflect.DeepEqual(wt.Path.ASPath, ft.Path.ASPath) {
			bites++
		}
	}
	adapted := false
	for _, ev := range twin.EventLog() {
		adapted = adapted || len(ev) > 6 && ev[:6] == "egress"
	}
	if !adapted {
		t.Fatal("adaptive egress never fired: the factual policy never moved")
	}
	if bites == 0 {
		t.Fatal("no what-if edit changed a queried path")
	}
}

// policyEdit is one hour's counterfactual: local-pref pins, then denials.
type policyEdit struct {
	pins []prefPin
	deny []topo.LinkID
}

type prefPin struct {
	a, n topo.ASN
	pref int
}

func (ed policyEdit) apply(pol *bgp.Policy) {
	for _, p := range ed.pins {
		pol.SetLocalPref(p.a, p.n, p.pref)
	}
	for _, id := range ed.deny {
		pol.DenyLink[id] = true
	}
}

// randomEdit pins one or two random (AS, neighbour) preferences — half the
// time at the queried source's AS, so the edit often bites — and denies a
// random link half the time.
func randomEdit(rng *mathx.RNG, rel *topo.ASRelationships, ases []topo.ASN, links []*topo.Link, srcAS topo.ASN) policyEdit {
	prefs := []int{10, 50, bgp.PrefProvider, bgp.PrefPeer, 250, bgp.PrefCustomer + 100}
	var ed policyEdit
	for i := 0; i < 1+rng.Intn(2); i++ {
		a := ases[rng.Intn(len(ases))]
		if _, ok := rel.Rel[srcAS]; ok && i == 0 && rng.Bernoulli(0.5) {
			a = srcAS
		}
		var ns []topo.ASN
		for n := range rel.Rel[a] {
			ns = append(ns, n)
		}
		sortASNs(ns)
		ed.pins = append(ed.pins, prefPin{a, ns[rng.Intn(len(ns))], prefs[rng.Intn(len(prefs))]})
	}
	if rng.Bernoulli(0.5) {
		ed.deny = append(ed.deny, links[rng.Intn(len(links))].ID)
	}
	return ed
}

// mutateAndRestore is the oracle: the mutate-and-restore dance the what-if
// path replaced. It edits the live policy, dirties the v4 plane, queries,
// then restores every touched entry and dirties the plane again.
func mutateAndRestore(e *Engine, ed policyEdit, src topo.PoPID, dst topo.ASN) (*PathPerf, error) {
	type savedPref struct {
		pin prefPin
		ok  bool
	}
	var prefs []savedPref
	for _, p := range ed.pins {
		v, ok := e.Policy.LocalPref[p.a][p.n]
		prefs = append(prefs, savedPref{prefPin{p.a, p.n, v}, ok})
	}
	denied := make(map[topo.LinkID]bool, len(ed.deny))
	for _, id := range ed.deny {
		denied[id] = e.Policy.DenyLink[id]
	}
	ed.apply(e.Policy)
	e.MarkDirtyFamily(V4)
	perf, err := e.PerfToAS(src, dst)
	// Restore in reverse so a pin repeated within one edit unwinds to the
	// value before the first.
	for i := len(prefs) - 1; i >= 0; i-- {
		if p := prefs[i]; p.ok {
			e.Policy.SetLocalPref(p.pin.a, p.pin.n, p.pin.pref)
		} else {
			e.Policy.ClearLocalPref(p.pin.a, p.pin.n)
		}
	}
	for id, was := range denied {
		if was {
			e.Policy.DenyLink[id] = true
		} else {
			delete(e.Policy.DenyLink, id)
		}
	}
	e.MarkDirtyFamily(V4)
	return perf, err
}

// addProviderCrowds puts recurring flash crowds on every provider link of
// every multihomed AS, so the adaptive egress controller moves the factual
// policy during the run.
func addProviderCrowds(e *Engine) error {
	rel, err := e.Topo.Relationships()
	if err != nil {
		return err
	}
	var ases []topo.ASN
	for a := range rel.Rel {
		ases = append(ases, a)
	}
	sortASNs(ases)
	rng := mathx.NewRNG(17)
	for _, a := range ases {
		var providers []topo.ASN
		for n, k := range rel.Rel[a] {
			if k == topo.RelCustomer {
				providers = append(providers, n)
			}
		}
		if len(providers) < 2 {
			continue
		}
		sortASNs(providers)
		for _, p := range providers {
			for _, id := range rel.Links[a][p] {
				for h := 10 + 30*rng.Float64(); h < 400; h += 30 + 40*rng.Float64() {
					e.Traffic.AddFlashCrowd(traffic.FlashCrowd{
						Link: id, StartHour: h, Hours: 4 + 10*rng.Float64(), Magnitude: 0.35 + 0.25*rng.Float64(),
					})
				}
			}
		}
	}
	return nil
}

func samePerf(t *testing.T, hour int, what string, a *PathPerf, aerr error, b *PathPerf, berr error) {
	t.Helper()
	if (aerr == nil) != (berr == nil) || aerr != nil && aerr.Error() != berr.Error() {
		t.Fatalf("hour %d: %s errors differ: oracle %v, twin %v", hour, what, aerr, berr)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("hour %d: %s performance differs:\noracle %+v\ntwin   %+v", hour, what, a, b)
	}
}

func sortASNs(s []topo.ASN) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }
