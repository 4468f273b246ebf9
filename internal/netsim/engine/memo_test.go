package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/traffic"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// sameAsCompute requires rib, looked up over every destination, to hold
// exactly what a fresh Compute over the engine's current topology gives.
func sameAsCompute(t *testing.T, e *Engine, rib *bgp.RIB, pol *bgp.Policy) {
	t.Helper()
	want, err := bgp.Compute(context.Background(), parallel.Pool{}, e.Topo, pol)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range e.Topo.ASes() {
		if _, err := rib.Lookup(a.ASN, a.ASN); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(rib.Export(), want.Export()) {
		t.Fatal("memoised RIB differs from a fresh Compute")
	}
}

// TestMemoRecomputesAfterLinkDown: a what-if under an unchanged policy is
// memoised until a link fails; then the link-state version moves, the same
// question recomputes, and the answer routes around the failure. The
// memo's counters record the one hit and two misses.
func TestMemoRecomputesAfterLinkDown(t *testing.T) {
	tp := zaTopo(t)
	rec := obs.NewRecorder()
	e := New(tp, 1, Config{}).Bind(obs.With(context.Background(), rec))
	rel, _ := tp.Relationships()
	id := rel.Links[3741][200][0]
	src, _ := tp.FindPoP(3741, "Johannesburg")
	pol := e.Policy.Clone()
	pol.SetLocalPref(3741, 200, 250)

	before, err := e.RIBUnder(pol)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := e.RIBUnder(pol.Clone()); again != before {
		t.Fatal("an equal policy over unchanged links missed the memo")
	}
	perf, err := e.PerfToASOn(before, src, 300)
	if err != nil || !perf.Path.CrossesLink(id) {
		t.Fatalf("pinned what-if avoids the AS200 link before it fails (err %v)", err)
	}

	version := tp.Version()
	e.Schedule(EvLinkDown(1, id))
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if tp.Version() == version {
		t.Fatal("SetLinkUp did not bump the link-state version")
	}
	after, err := e.RIBUnder(pol)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("the what-if after a link failure reused the pre-failure RIB")
	}
	if perf, err = e.PerfToASOn(after, src, 300); err != nil || perf.Path.CrossesLink(id) {
		t.Fatalf("what-if after the failure still crosses the failed link (err %v)", err)
	}
	m := rec.Metrics()[""]
	if m["bgp.memo.hits"] != 1 || m["bgp.memo.misses"] != 2 {
		t.Fatalf("memo counters %v hits, %v misses; want 1 and 2", m["bgp.memo.hits"], m["bgp.memo.misses"])
	}
	sameAsCompute(t, e, after, pol)
}

// TestMemoSeesMaintenanceWrites: EvMaintenance writes DenyLink straight
// into the live policy. The fingerprint covers it, so routing under that
// same *Policy recomputes when the window opens and returns to the
// memoised pre-window RIB when it closes.
func TestMemoSeesMaintenanceWrites(t *testing.T) {
	tp := zaTopo(t)
	e := New(tp, 1, Config{})
	rel, _ := tp.Relationships()
	id := rel.Links[3741][200][0]
	start, end := EvMaintenance(1, 3, id)
	e.Schedule(start)
	e.Schedule(end)
	src, _ := tp.FindPoP(3741, "Johannesburg")

	open, err := e.RIBUnder(e.Policy)
	if err != nil {
		t.Fatal(err)
	}
	if perf, err := e.PerfToASOn(open, src, 300); err != nil || !perf.Path.CrossesLink(id) {
		t.Fatalf("default routing avoids the AS200 link before maintenance (err %v)", err)
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	closed, err := e.RIBUnder(e.Policy)
	if err != nil {
		t.Fatal(err)
	}
	if closed == open {
		t.Fatal("a maintenance window's DenyLink write did not change the memo key")
	}
	if perf, err := e.PerfToASOn(closed, src, 300); err != nil || perf.Path.CrossesLink(id) {
		t.Fatalf("routing during maintenance crosses the denied link (err %v)", err)
	}
	sameAsCompute(t, e, closed, e.Policy)
	if factual, _ := e.RIB(); factual != closed {
		t.Fatal("the factual recompute did not consult the memo")
	}
	if err := e.RunUntil(4); err != nil {
		t.Fatal(err)
	}
	if reopened, _ := e.RIBUnder(e.Policy); reopened != open {
		t.Fatal("the policy after maintenance missed the memoised pre-window RIB")
	}
}

// TestMemoHitsAfterEgressRestore: an adaptive egress shift moves the
// factual policy and its restore moves it back; the restored state is the
// memoised pre-shift RIB, not a recompute.
func TestMemoHitsAfterEgressRestore(t *testing.T) {
	tp := zaTopo(t)
	e := New(tp, 1, Config{AdaptiveEgress: true})
	rel, _ := tp.Relationships()
	e.Traffic.AddFlashCrowd(traffic.FlashCrowd{Link: rel.Links[3741][200][0], StartHour: 5, Hours: 10, Magnitude: 0.5})

	var before, shifted *bgp.RIB
	restored := false
	for e.Hour() < 40 && !restored {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		rib, err := e.RIB()
		if err != nil {
			t.Fatal(err)
		}
		log := strings.Join(e.EventLog(), ";")
		switch {
		case !strings.Contains(log, "egress-shift AS3741"):
			before = rib
		case !strings.Contains(log, "egress-restore AS3741"):
			shifted = rib
		default:
			if rib != before {
				t.Fatal("the restored policy recomputed instead of hitting the memo")
			}
			restored = true
		}
	}
	if before == nil || shifted == nil || !restored {
		t.Fatalf("no shift-and-restore cycle in 40 hours: %v", e.EventLog())
	}
	if shifted == before {
		t.Fatal("the egress shift did not change the factual RIB")
	}
}
