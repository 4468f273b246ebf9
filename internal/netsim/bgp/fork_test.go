package bgp

import (
	"context"
	"testing"

	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/parallel"
)

// frozenRIB computes a converged RIB over the trombone world and freezes
// the world, mimicking exactly what the artifact store holds.
func frozenRIB(t testing.TB) (*topo.Topology, *RIB) {
	t.Helper()
	tp := trombone(t)
	rib, err := Compute(context.Background(), parallel.Pool{}, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	tp.Freeze()
	return tp, rib
}

// TestFrozenForkSharesTables pins the fork contract: a fork of the stored
// RIB is rebound onto its own world and shares every per-destination table
// and the relationship map with the original, so it routes identically.
func TestFrozenForkSharesTables(t *testing.T) {
	tp, rib := frozenRIB(t)

	world := tp.Clone()
	a := rib.Fork(world)
	if a == rib || a.Topo != world {
		t.Fatal("fork is not a copy rebound onto the caller's world")
	}
	if len(a.best) != len(rib.best) {
		t.Fatalf("fork has %d destinations, original %d", len(a.best), len(rib.best))
	}
	for dest := range rib.best {
		if !sameTable(a.best[dest], rib.best[dest]) {
			t.Fatalf("fork copied the table for dest AS%d", dest)
		}
	}
	if a.Rel != rib.Rel {
		t.Fatal("fork copied the relationship map")
	}
	if got, want := a.Lookup(3741, 300), rib.Lookup(3741, 300); got == nil || got != want {
		t.Fatalf("fork route 3741→300 = %+v, want the original's %+v", got, want)
	}
}

func sameTable(a, b map[topo.ASN]*Route) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestFrozenForkAllocations pins the pointer-cheap fork property: forking
// the stored RIB allocates the RIB struct, never route tables.
func TestFrozenForkAllocations(t *testing.T) {
	tp, rib := frozenRIB(t)
	forkWorld := tp.Clone()
	var sink *RIB
	allocs := testing.AllocsPerRun(100, func() { sink = rib.Fork(forkWorld) })
	_ = sink
	// The RIB struct only: a deep copy would allocate a map, a Route and a
	// Path slice per route (the trombone world has 4 dests × 4 ASes).
	if allocs > 1 {
		t.Fatalf("Fork allocates %v objects per run, want 1", allocs)
	}
}

// TestSizeBytes sanity-checks the residency estimator: nonzero, and
// monotone in route count.
func TestSizeBytes(t *testing.T) {
	_, rib := frozenRIB(t)
	n := rib.SizeBytes()
	if n <= 0 {
		t.Fatalf("SizeBytes() = %d, want > 0", n)
	}
	routes := 0
	for _, m := range rib.best {
		routes += len(m)
	}
	if n < int64(routes)*64 {
		t.Fatalf("SizeBytes() = %d, below the per-route floor for %d routes", n, routes)
	}
}
