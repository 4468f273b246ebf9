package main

import (
	"context"
	"testing"
	"time"

	"sisyphus/internal/obs"
)

// TestAdoptByContainment records a program span inside one benchmark
// operation and checks that the tracer gives it that operation's request
// and parent, and counts only the uncovered rest of the operation. The
// operations come from a finished loop's samples, as in a traced run.
func TestAdoptByContainment(t *testing.T) {
	tr := newTracer()
	recEpoch := time.Now()
	rec := obs.NewRecorder()
	ctx := obs.With(context.Background(), rec)

	t0 := time.Now()
	time.Sleep(2 * time.Millisecond)
	sp := obs.StartSpan(ctx, "query/scenario")
	time.Sleep(4 * time.Millisecond)
	sp.End(nil)
	time.Sleep(2 * time.Millisecond)
	t1 := time.Now()
	// A second operation that contains no stage span, sent by an open loop
	// half a millisecond after its due time.
	const lag = 500 * time.Microsecond
	t2 := time.Now()
	time.Sleep(time.Millisecond)
	st := loopStats{samples: []opSample{
		{seq: 0, sent: t0, lat: t1.Sub(t0)},
		{seq: 1, sent: t2, lat: time.Since(t2) + lag, lag: lag},
	}}
	const offset = 10
	tr.addOps(st, offset, func(int) string { return "loadgen/query" })
	if second := tr.spans[1]; second.request != offset+2 || second.end-second.start != st.samples[1].lat-lag {
		t.Fatalf("second operation span %+v; want request %d lasting %v", second, offset+2, st.samples[1].lat-lag)
	}

	tr.adopt(rec, recEpoch)
	var stage span
	for _, s := range tr.spans {
		if s.name == "query/scenario" {
			stage = s
		}
	}
	if opID := tr.spans[0].id; stage.request != offset+1 || stage.parent != opID || stage.layer != "experiments" {
		t.Fatalf("stage span adopted as %+v; want request %d, parent %d, layer experiments", stage, offset+1, opID)
	}
	// Operation 1 is about half covered, operation 2 not at all.
	if got := tr.uncoveredShare("loadgen/query"); got < 0.3 || got > 0.7 {
		t.Fatalf("uncovered share %.2f, want about 0.5", got)
	}
}

func TestUnionLen(t *testing.T) {
	iv := [][2]time.Duration{{5, 10}, {0, 3}, {8, 20}, {2, 4}}
	// Clipped to [1, 15]: [1,4] and [5,15].
	if got := unionLen(iv, 1, 15); got != 13 {
		t.Fatalf("unionLen = %d, want 13", got)
	}
}

func TestAssignLanesNests(t *testing.T) {
	spans := []span{
		{start: 0, end: 10},  // root
		{start: 1, end: 4},   // nested in root
		{start: 3, end: 12},  // overlaps root's end: needs a lane of its own
		{start: 12, end: 14}, // after root: back on lane 0
	}
	got := assignLanes(spans)
	want := []int{0, 0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lanes %v, want %v", got, want)
		}
	}
}
