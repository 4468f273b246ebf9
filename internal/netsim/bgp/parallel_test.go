package bgp

import (
	"context"
	"reflect"
	"testing"

	"sisyphus/internal/mathx"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/parallel"
)

// TestComputeParallelBitIdentity: the converged RIB must be identical
// whether per-destination propagation runs on one worker or many, on a
// random topology large enough to exercise real fan-out.
func TestComputeParallelBitIdentity(t *testing.T) {
	r := mathx.NewRNG(9)
	cfg := topo.GenConfig{Tier1: 3, Tier2: 8, Access: 25, Content: 4, MultihomeProb: 0.5, PeerProb: 0.3}
	tp, err := topo.Generate(r, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	seq, seqErr := Compute(ctx, parallel.NewPool(1), tp, nil)
	par, parErr := Compute(ctx, parallel.NewPool(8), tp, nil)
	if seqErr != nil || parErr != nil {
		t.Fatalf("compute errors: %v / %v", seqErr, parErr)
	}
	if !reflect.DeepEqual(seq.best, par.best) {
		t.Fatal("parallel RIB differs from sequential RIB")
	}
}
