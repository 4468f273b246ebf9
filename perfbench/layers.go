package main

import (
	"context"
	"fmt"
	"time"

	"sisyphus/internal/artifact"
	"sisyphus/internal/experiments"
	"sisyphus/internal/netsim/bgp"
	"sisyphus/internal/netsim/scenario"
	"sisyphus/internal/netsim/topo"
	"sisyphus/internal/obs"
	"sisyphus/internal/parallel"
)

// layerIn is what a traced run hands to layerMetrics.
type layerIn struct {
	rec *obs.Recorder
	tr  *tracer
	// ops counts the operations of the traced phase; counts are per op.
	ops float64
	// cache holds the artifact store's counters over the traced phase, and
	// its residency at the end of it.
	cache artifact.Stats
	win   *window
	cores int
	// untraced and traced are ops_per_s without and with the recorder, at
	// the same load.
	untraced, traced float64
	// lags are the open-loop send lags; nil for closed-loop workloads.
	lags []float64
	// opName names the benchmark's operation spans whose time not covered
	// by stage spans is reported; "" when the workload does not report it.
	opName string
	// worlds are the registered world ids the workload runs on; genSpec is
	// a gen: spec for the world-build probe.
	worlds  []string
	genSpec string
	// query is the workload's causal query, nil when it sends none.
	query *experiments.CausalQuery
	// handlerUs is the in-process handler time per warm request; 0 when the
	// workload has no warm classes.
	handlerUs float64
}

// layerMetrics computes the per-layer metrics: counters and stage spans
// the program recorded, store statistics, runtime readings, and direct
// timings of each layer's public functions on the workload's inputs.
func layerMetrics(ctx context.Context, in layerIn) (metricList, error) {
	counters := map[string]float64{}
	for _, scope := range in.rec.Metrics() {
		for name, v := range scope {
			counters[name] += v
		}
	}
	per := func(v float64) float64 { return v / in.ops }
	computeMs, forwardUs, err := probeRouting(ctx, in.tr, in.worlds)
	if err != nil {
		return nil, err
	}
	buildMs, err := probeBuild(in.tr, in.genSpec)
	if err != nil {
		return nil, err
	}
	hitUs, err := probeHit(ctx, in.tr, in.cache.Entries)
	if err != nil {
		return nil, err
	}
	compileUs, err := probeCompile(in.tr, in.query)
	if err != nil {
		return nil, err
	}
	hitRatio := 0.0
	if lookups := in.cache.Hits + in.cache.Misses; lookups > 0 {
		hitRatio = float64(in.cache.Hits) / float64(lookups)
	}
	uncovered := 0.0
	if in.opName != "" {
		uncovered = in.tr.uncoveredShare(in.opName)
	}

	var l metricList
	l.add("bgp.destinations", per(counters["bgp.destinations"]), "count")
	l.add("bgp.sweeps", per(counters["bgp.sweeps"]), "count")
	l.add("bgp.compute_ms", computeMs, "ms")
	l.add("bgp.forward_us", forwardUs, "us")
	l.add("experiments.stage.query.scenario_ms", per(in.tr.stageMs("query/scenario")), "ms")
	l.add("experiments.stage.query.estimator_ms", per(in.tr.stageMs("query/estimator")), "ms")
	l.add("experiments.stage.table1.scenario_ms", per(in.tr.stageMs("table1/scenario")), "ms")
	l.add("experiments.stage.table1.estimator_ms", per(in.tr.stageMs("table1/estimator")), "ms")
	l.add("experiments.compile_us", compileUs, "us")
	l.add("platform.delivered", per(counters["store.delivered"]), "count")
	l.add("synthetic.placebo_fits", per(counters["placebo.fits_attempted"]-counters["placebo.fits_skipped"]), "count")
	l.add("artifact.hit_ratio", hitRatio, "ratio")
	l.add("artifact.builds", per(float64(in.cache.Builds)), "count")
	l.add("artifact.evictions", per(float64(in.cache.Evictions)), "count")
	l.add("artifact.resident_mib", float64(in.cache.Bytes)/mib, "MiB")
	l.add("artifact.hit_us", hitUs, "us")
	l.add("serve.handler_us", in.handlerUs, "us")
	l.add("scenario.build_ms", buildMs, "ms")
	l.add("parallel.tasks", per(counters["parallel.tasks"]), "count")
	l.add("runtime.cpu_util", in.win.cpuUtil(in.cores), "ratio")
	l.add("runtime.gc_cpu_share", in.win.gcCPUShare(), "ratio")
	l.add("runtime.mallocs", per(in.win.mallocs()), "count")
	switch lag, ok := percentile(in.lags, 0.99); {
	case in.lags == nil:
		l.none("loadgen.lag_p99_ms", "ms", "closed loop: no schedule to lag")
	case !ok:
		l.none("loadgen.lag_p99_ms", "ms", fmt.Sprintf("%d samples, p99 needs %d", len(in.lags), 100*minBeyond))
	default:
		l.add("loadgen.lag_p99_ms", lag, "ms")
	}
	l.add("trace.overhead_ratio", (in.untraced-in.traced)/in.untraced, "ratio")
	l.add("trace.uncovered_share", uncovered, "ratio")
	return l, nil
}

// statsDelta is the store's activity between two snapshots, with the
// residency of the later one.
func statsDelta(a, b artifact.Stats) artifact.Stats {
	return artifact.Stats{
		Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses,
		Builds: b.Builds - a.Builds, Evictions: b.Evictions - a.Evictions,
		Entries: b.Entries, Bytes: b.Bytes,
	}
}

// probeRouting times bgp.Compute at pool width 1 on each world, and
// RIB.Forward over every ordered pair of the world's PoPs. It returns the
// median compute in ms and the median per-call forward time in µs.
func probeRouting(ctx context.Context, tr *tracer, worlds []string) (computeMs, forwardUs float64, err error) {
	const reps = 3
	var computes, forwards []float64
	for _, id := range worlds {
		w, err := scenario.Build(id)
		if err != nil {
			return 0, 0, err
		}
		var rib *bgp.RIB
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			rib, err = bgp.Compute(ctx, parallel.NewPool(1), w.Topo, nil)
			if err != nil {
				return 0, 0, fmt.Errorf("bgp.Compute %s: %w", id, err)
			}
			t1 := time.Now()
			tr.add("bgp.Compute "+id, "bgp", 0, t0, t1)
			computes = append(computes, ms(t1.Sub(t0)))
		}
		n := len(w.Topo.PoPs())
		t0 := time.Now()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				// Unreachable pairs error out of the same lookups; they are
				// timed like the rest.
				_, _ = rib.Forward(topo.PoPID(src), topo.PoPID(dst))
			}
		}
		t1 := time.Now()
		tr.add("bgp.Forward "+id, "bgp", 0, t0, t1)
		forwards = append(forwards, float64(t1.Sub(t0))/float64(time.Microsecond)/float64(n*n))
	}
	return median(computes), median(forwards), nil
}

// probeBuild times scenario.Build of a generated world.
func probeBuild(tr *tracer, spec string) (float64, error) {
	id, err := scenario.ResolveID(spec)
	if err != nil {
		return 0, err
	}
	var times []float64
	for r := 0; r < 9; r++ {
		t0 := time.Now()
		if _, err := scenario.Build(id); err != nil {
			return 0, err
		}
		t1 := time.Now()
		tr.add("scenario.Build", "scenario", 0, t0, t1)
		times = append(times, ms(t1.Sub(t0)))
	}
	return median(times), nil
}

// probeHit times a GetOrBuild hit on a benchmark-owned key, in a store
// holding as many entries as the workload's store did.
func probeHit(ctx context.Context, tr *tracer, entries int) (float64, error) {
	entries = max(entries, 1)
	st := artifact.NewStore(artifact.WithMaxEntries(max(entries, 64)))
	spec := artifact.Spec[[]byte]{
		Build: func(context.Context) ([]byte, error) { return make([]byte, 4096), nil },
		Fork:  func(b []byte) []byte { return append([]byte(nil), b...) },
		Size:  func(b []byte) int64 { return int64(len(b)) },
	}
	keys := make([]artifact.Key, entries)
	for i := range keys {
		k, err := artifact.NewKey("perfbench", "", uint64(i), nil)
		if err != nil {
			return 0, err
		}
		if _, err := artifact.GetOrBuild(ctx, st, k, spec); err != nil {
			return 0, err
		}
		keys[i] = k
	}
	const batch = 2000
	var times []float64
	for r := 0; r < 7; r++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := artifact.GetOrBuild(ctx, st, keys[i%entries], spec); err != nil {
				return 0, err
			}
		}
		t1 := time.Now()
		tr.add("artifact.GetOrBuild hits", "artifact", 0, t0, t1)
		times = append(times, float64(t1.Sub(t0))/float64(time.Microsecond)/batch)
	}
	return median(times), nil
}

// probeCompile times experiments.CompileCausalQuery on the workload's query.
func probeCompile(tr *tracer, q *experiments.CausalQuery) (float64, error) {
	if q == nil {
		return 0, nil
	}
	const batch = 200
	var times []float64
	for r := 0; r < 7; r++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := experiments.CompileCausalQuery(*q); err != nil {
				return 0, err
			}
		}
		t1 := time.Now()
		tr.add("experiments.CompileCausalQuery", "experiments", 0, t0, t1)
		times = append(times, float64(t1.Sub(t0))/float64(time.Microsecond)/batch)
	}
	return median(times), nil
}
